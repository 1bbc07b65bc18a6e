"""volformer benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train_b128 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is imported from that
checkout's src/ directory, and inputs, checkpoints and span files go to
.perfbench/ there. Workloads and metrics are listed in BENCHMARK.json and
described in workloads.py; predict_one is not in BENCHMARK.json (see
WORKLOAD_NAMES) but runs the same way.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates untraced steps with steps that record spans around every
public function of the program's modules (tracing.py), so both see the
same machine load, and reports the per-layer metrics and the tracing
overhead. Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the run environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# BENCHMARK.json lists train_b128 and infer_b128. predict_one runs only on
# request: its 5 ms requests resolve the seconds-long swings in speed of a
# shared host, so on such a host its figures spread wider than any bound
# the benchmark may set (see CHANGES.md).
WORKLOAD_NAMES = ("train_b128", "infer_b128", "predict_one")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-core machine a second OpenBLAS thread gave these
# workloads no speed-up but kept a second core busy waiting, which made
# runs more sensitive to other load on the machine.
BLAS_THREADS = 1
# Set-up time is the median of this many fresh processes per run, started
# at even intervals through the timed loop so that they meet the same
# machine load as the timed steps; a short run (selfcheck.py) takes at
# least MIN_SETUP_SAMPLES.
SETUP_SAMPLES = 15
MIN_SETUP_SAMPLES = 3
# The top-level spans of a traced operation must cover this share of it.
MIN_COVERAGE = 0.9


def pin_blas_threads() -> int:
    """Pin BLAS pools to min(BLAS_THREADS, nproc) threads; numpy must not
    be imported yet."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="reference", choices=("reference", "tiny"),
                        help="tiny: a small model and dataset, for selfcheck.py")
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="internal: set up on the inputs in DIR, print 'ready', exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import volformer from this checkout's src/, and nowhere else."""
    if not (SRC / "volformer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'volformer'}; "
                         "run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import volformer

    if Path(volformer.__file__).resolve().parent != (SRC / "volformer").resolve():
        raise SystemExit(f"perfbench: imported volformer from {volformer.__file__}, "
                         f"not from {SRC}")


def environment(threads: int, args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": threads,
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(), "seed": args.seed,
            "workload": args.workload, "size": args.size, "trace": args.trace,
            "seconds": args.seconds}


def measure_setup(args, workdir: str) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--size", args.size, "--setup-probe", workdir]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def checked_step(workload, traced=contextlib.nullcontext()):
    """One timed step (inside `traced`), then its checks (outside)."""
    with traced:
        step = workload.step()
    step.failed += workload.check(step)
    step.output = None
    return step


def timed_loop(workload, seconds: float, min_ops: int, probe) -> tuple[list, list]:
    """Steps for `seconds` (and at least `min_ops` operations), with a
    set-up probe every seconds / SETUP_SAMPLES; returns (steps, probe
    seconds). Probes run between steps, never inside one."""
    steps, setup_samples = [], []
    attempted = 0
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or attempted < min_ops
           or len(setup_samples) < MIN_SETUP_SAMPLES):
        if time.perf_counter() - start >= len(setup_samples) * seconds / SETUP_SAMPLES:
            setup_samples.append(probe())
        steps.append(checked_step(workload))
        attempted += steps[-1].attempted
    return steps, setup_samples


def latencies(steps) -> list[float]:
    return [lat for s in steps for lat in s.latencies]


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); NaN without values."""
    if len(values) < 2:
        return float(values[0]) if values else math.nan
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(steps, setup_samples) -> dict:
    lat = latencies(steps)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "vol_per_s": (sum(s.volumes for s in steps) / sum(s.seconds for s in steps), "vol/s"),
        "op_ms_p50": (1e3 * percentile(lat, 50), "ms"),
        "op_ms_p90": (1e3 * percentile(lat, 90), "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def measure_end_to_end(args, workload, workdir: str) -> tuple[list, dict]:
    workload.setup()
    steps, setup_samples = timed_loop(workload, args.seconds, workload.min_ops,
                                      lambda: measure_setup(args, workdir))
    workload.info["setup_samples_s"] = setup_samples
    return steps, end_to_end(steps, setup_samples)


def measure_layers(args, workload) -> tuple[list, dict, bool]:
    """Traced run: (steps, per-layer metrics, whether the spans cover the
    traced operations)."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.running(0):
            workload.setup()
        plain, traced = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            tracer.uninstall()  # plain steps run the unwrapped program
            plain.append(checked_step(workload))
            tracer.install()
            traced.append(checked_step(workload, tracer.running(len(traced) + 1)))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, max(len(latencies(traced)), 1))
    cover = tracing.coverage(tracer, sum(s.seconds for s in traced))
    metrics["trace.overhead_ratio"] = (
        percentile(latencies(traced), 50) / percentile(latencies(plain), 50), "ratio")
    metrics["trace.coverage"] = (cover, "ratio")
    spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(str(spans_path))
    workload.info["spans"] = str(spans_path.relative_to(ROOT))
    return plain + traced, metrics, MIN_COVERAGE <= cover <= 1.0 + 1e-6


def run(args, threads: int) -> dict:
    from workloads import SIZES, WORKLOADS

    size = SIZES[args.size]
    if args.setup_probe:
        WORKLOADS[args.workload](size, args.setup_probe, args.seed).setup()
        print("ready", flush=True)
        return {}

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workload = WORKLOADS[args.workload](size, str(workdir), args.seed)
    try:
        workload.generate()
        if args.trace == 0:
            steps, metrics = measure_end_to_end(args, workload, str(workdir))
            covered = True
        else:
            steps, metrics, covered = measure_layers(args, workload)
        deferred_failed = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s.attempted for s in steps)
    failed = sum(s.failed for s in steps) + deferred_failed
    info = {"env": environment(threads, args), "unit": workload.unit, **workload.info,
            "steps": len(steps), "failed_ratio": failed / attempted}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(info))
    return {"correct": failed == 0 and covered
                       and all(math.isfinite(v) for v, _ in metrics.values()),
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    import_program()
    result = run(args, threads)
    if result:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
