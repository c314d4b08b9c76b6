"""The quick demos run to completion. 05 and 06 train for about a minute each
and are left to run by hand."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


@pytest.mark.parametrize("demo", QUICK)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_quick_demos_found():
    assert len(QUICK) == 4
