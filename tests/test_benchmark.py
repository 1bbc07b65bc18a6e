"""The benchmark's workloads run against this checkout's program.

perfbench/run.py calls the public training API (train, evaluate,
predict_probs) the way the benchmark does, so a change to those
signatures shows here rather than only in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["train_b128", "infer_b128"])
def test_workload_runs_correctly_at_tiny_size(workload):
    """About a second per workload: its last stdout line is the result,
    which must be correct with no failed operation."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "tiny",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["attempted"] > 0 and result["failed"] == 0, result
