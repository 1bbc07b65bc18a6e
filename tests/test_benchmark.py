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


@pytest.mark.parametrize("workload, trace", [
    pytest.param("train_b128", 0, id="train_b128"),
    pytest.param("infer_b128", 0, id="infer_b128"),
    pytest.param("predict_one", 0, id="predict_one"),
    pytest.param("train_b128", 1, id="train_b128-trace"),
    pytest.param("infer_b128", 1, id="infer_b128-trace"),
])
def test_workload_runs_correctly_at_tiny_size(workload, trace):
    """About a second per workload: its last stdout line is the result,
    which must be correct with no failed operation. Traced, the file
    readers each workload calls and the tensor ops of model.forward_logits,
    the forward every chunk runs, must show in the per-layer metrics, so a
    refactor cannot hide them from the tracer."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "tiny",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["attempted"] > 0 and result["failed"] == 0, result
    if trace:
        nonzero = ["data.read_volume.ms", "tensor.ops_per_forward"]
        if workload == "infer_b128":
            nonzero.append("checkpoint.load_checkpoint.ms")
        for name in nonzero:
            assert result["metrics"][name]["value"] > 0, name
