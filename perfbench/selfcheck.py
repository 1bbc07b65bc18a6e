"""Quick self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Runs every workload, predict_one too, at the tiny size, untraced and
traced, in this process, and asserts that:

* every metric BENCHMARK.json names is printed, with its unit;
* a corrupted program output is counted as a failed operation, for
  each kind of output check;
* two train_b128 runs at one seed give the same history digest.

Prints one line per check and exits 0 when all of them hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import run

run.pin_blas_threads()
run.import_program()

import numpy as np  # noqa: E402  (after the thread pin)

from volformer import model, training  # noqa: E402

SECONDS = "0.5"


def run_tiny(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    """(environment line, result line) of one tiny run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
                         "--trace", str(trace), "--size", "tiny"])
    assert code == 0, f"{workload} exited {code}"
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@contextlib.contextmanager
def patched(module, name: str, corrupt):
    """Replace module.<name> by a version whose output `corrupt(output,
    *args)` spoils."""
    original = getattr(module, name)

    def spoiled(*args, **kwargs):
        return corrupt(original(*args, **kwargs), *args)

    setattr(module, name, spoiled)
    try:
        yield
    finally:
        setattr(module, name, original)


def shifted_probs(probs, *args):
    """Row 0 no longer sums to 1."""
    probs = probs.copy()
    probs[0, 0] += 0.5
    return probs


def rolled_batch_of_one(probs, params, config, volumes, *args):
    """Batch-1 rows get their classes rotated: still finite and summing to
    1, so only the comparison with the batch-128 pass can catch it."""
    return np.roll(probs, 1, axis=1) if len(volumes) == 1 else probs


def next_class(preds, *args):
    """Every prediction moved to the next class; the probabilities stay valid."""
    return (np.asarray(preds) + 1) % model.ModelConfig().num_classes


def nan_loss(result, *args):
    result.history[-1]["train_loss"] = math.nan
    return result


CORRUPTIONS = [
    ("train_b128", training, "train", nan_loss),
    ("infer_b128", training, "predict_probs", shifted_probs),
    ("infer_b128", model, "predict_classes", next_class),
    ("predict_one", training, "predict_probs", shifted_probs),
    ("predict_one", training, "predict_probs", rolled_batch_of_one),
]


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(run.WORKLOAD_NAMES), names

    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            _, result = run_tiny(workload, trace)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == wanted[trace], (workload, trace, printed)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            print(f"ok   {workload} --trace {trace}: {len(printed)} metrics with units")

    for workload, module, name, corrupt in CORRUPTIONS:
        with patched(module, name, corrupt):
            _, result = run_tiny(workload, 0)
        assert result["failed"] > 0 and not result["correct"], (workload, name, result)
        print(f"ok   {workload}: {corrupt.__name__} in {module.__name__}.{name} counted as "
              f"{result['failed']} of {result['attempted']} failed")

    digests = [run_tiny("train_b128", 0, seed=5)[0]["history_digest"] for _ in range(2)]
    assert digests[0] == digests[1], digests
    print(f"ok   train_b128: two runs at one seed give history digest {digests[0]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
