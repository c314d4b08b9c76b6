"""The self-check battery: every check of `igformer verify` is one test here,
named by its battery id."""

import inspect

import pytest

import igformer.tensor as T
from igformer import verify

CHECKS = verify.checks()


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[cid for cid, _ in CHECKS])
def test_battery(check):
    check()


def test_every_backward_op_has_a_gradient_check():
    # each tensor function that installs its own backward closure has a
    # `tensor.gradcheck.<name>` check, which fails once `verify --corrupt-op
    # <name>` mis-scales that backward
    ops = [name for name, fn in inspect.getmembers(T, inspect.isfunction)
           if fn.__module__ == T.__name__ and "_backward_fn = " in inspect.getsource(fn)]
    assert "project_patches" in ops and "sum_all" in ops
    for name in ops:
        ok, results = verify.run_checks(corrupt_op=name)
        assert [cid for cid, _, _ in results] == [f"tensor.gradcheck.{name}"]
        assert not ok, name
