"""The benchmark's contract with the package: a short traced run of
`igbench/run.py` passes every check. Its tracer wraps functions by the module
attribute callers look them up by, so the run fails when a change drops or
bypasses one of them ("a traced layer recorded no calls")."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_desk_run_is_correct():
    proc = subprocess.run([sys.executable, "igbench/run.py", "--workload", "desk-train",
                           "--seed", "1", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
