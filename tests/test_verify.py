"""The self-check battery: every check of `igformer verify` is one test here,
named by its battery id."""

import pytest

from igformer import verify

CHECKS = verify.checks()


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[cid for cid, _ in CHECKS])
def test_battery(check):
    check()

