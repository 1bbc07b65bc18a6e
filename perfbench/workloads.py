"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client. `setup` does what a user
pays before the first result (parameter init or checkpoint load and the
volume reads); `step` runs and times one loop step and does nothing else,
so a traced step holds only program spans; `check` checks a step's output
and `finish` runs the checks that must wait until the timed loop is over.

* train_b128  -- `training.train` as `volformer train` runs it; one step
  is one call of `size.epochs` epochs, one operation is one epoch.
* infer_b128  -- the `volformer eval --split train` path; one operation
  is one pass over the 200 train-split volumes: `predict_probs` at batch
  128, `predict_classes` and `confusion`.
* predict_one -- the `volformer predict scan.vvol` path without process
  start, over the test-split scans in turn; one operation is one
  request: `read_volume`, then `predict_probs` at batch 1.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from volformer import checkpoint, data, metrics, model, training
from volformer.rng import derive_seed

import inputs

# A probability row may miss a sum of 1 by this much (float32 softmax).
ROW_SUM_TOL = 1e-5
# A batch-1 response may differ from the same volume's row of a batch-128
# pass by this much per class: only BLAS blocking differs between the two.
PREDICT_TOL = 1e-5


# The reference split: SplitSpec's default fractions, as in the README's
# run.json. The harness keeps its own copy so a change to the program's
# defaults does not change the workloads.
SPLIT_FRACTIONS = (0.6, 0.2)


def split_counts(n: int) -> tuple[int, int, int]:
    """(train, val, test) volumes of an n-volume dataset: train rounds
    half up first, then val, and test takes the rest, as the program
    documents for its split."""
    n_train = min(math.floor(SPLIT_FRACTIONS[0] * n + 0.5), n)
    n_val = min(math.floor(SPLIT_FRACTIONS[1] * n + 0.5), n - n_train)
    return n_train, n_val, n - n_train - n_val


@dataclass(frozen=True)
class Size:
    """How much work one run does; `reference` is the benchmark.

    One dataset of `n_volumes` volumes is split by `split_counts`, and
    each workload reads the split the program's command would:
    train_b128 trains on train and validates on val (`volformer train`),
    infer_b128 evaluates train (`volformer eval --split train`), and
    predict_one predicts each test volume in turn (`volformer predict`).
    """

    model: dict
    batch_size: int
    epochs: int
    learning_rate: float
    n_volumes: int
    min_requests: int

    @property
    def n_train(self) -> int:
        return split_counts(self.n_volumes)[0]

    @property
    def n_val(self) -> int:
        return split_counts(self.n_volumes)[1]

    @property
    def n_test(self) -> int:
        return split_counts(self.n_volumes)[2]


SIZES = {
    # 334 volumes split 200/67/67. 200 training volumes are not a multiple
    # of 128, so every epoch (and every infer_b128 pass over the train
    # split) is one batch of 128 and one of 72. The test split would never
    # fill a batch of 128, which is why infer_b128 evaluates the train
    # split. All 67 test scans fit one batch-128 reference pass.
    # A training.train call runs 3 epochs from fresh parameters. On a
    # 2-vCPU Xeon, its one-off set-up (stacking the training set, Adam
    # state) took about 2% of an epoch, and its checkpoint write (every
    # epoch improves on fresh parameters) about 0.25%.
    "reference": Size(model={}, batch_size=128, epochs=3, learning_rate=1e-4,
                      n_volumes=334, min_requests=1000),
    "tiny": Size(model=dict(slices=4, height=8, width=8, patch_slices=4,
                            patch_height=4, patch_width=4, embed_dim=8,
                            num_heads=2, num_layers=2),
                 batch_size=8, epochs=3, learning_rate=1e-2,
                 n_volumes=34, min_requests=50),
}


@dataclass
class Step:
    """One timed loop step: its operations, their latencies, and failures.

    An operation that raised has no latency; one whose output fails a
    check keeps its latency and also counts as failed.
    """

    seconds: float
    attempted: int
    volumes: int = 0
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    output: object = None


def rows_ok(probs, rows: int, classes: int) -> np.ndarray:
    """Per-row flag: finite, and summing to 1 within ROW_SUM_TOL."""
    probs = np.asarray(probs)
    if probs.shape != (rows, classes):
        return np.zeros(rows, dtype=bool)
    finite = np.isfinite(probs).all(axis=1)
    return finite & (np.abs(probs.sum(axis=1, dtype=np.float64) - 1.0) <= ROW_SUM_TOL)


def _report_exception(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    name = ""
    unit = ""
    min_ops = 1

    def __init__(self, size: Size, workdir: str, seed: int):
        self.size = size
        self.workdir = workdir
        self.seed = seed
        self.config = model.ModelConfig(**size.model)
        self.info: dict = {}

    def generate(self) -> None:
        """Write this workload's input files (harness work, never timed)."""

    def setup(self) -> None:
        raise NotImplementedError

    def step(self) -> Step:
        raise NotImplementedError

    def check(self, step: Step) -> int:
        """Failed operations in a step's output; may prepare the next step."""
        return 0

    def finish(self) -> int:
        """Checks deferred past the timed loop; returns failed operations."""
        return 0

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.workdir, "manifest.jsonl")

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.workdir, "model.vvck")


class TrainB128(Workload):
    name = "train_b128"
    unit = "epoch"

    def generate(self):
        inputs.write_dataset(self.workdir, self.seed, self.config,
                             {"train": self.size.n_train, "val": self.size.n_val})

    def setup(self):
        manifest = data.DatasetManifest.load(self.manifest_path)
        self.train_set = manifest.load_volumes(manifest.subset("train"))
        self.val_set = manifest.load_volumes(manifest.subset("val"))
        self.initial = model.ModelParams.initialize(self.config,
                                                    seed=derive_seed(self.seed, 0))
        self.cfg = training.TrainConfig(
            learning_rate=self.size.learning_rate, batch_size=self.size.batch_size,
            epochs=self.size.epochs, seed=self.seed)
        self.best_path = os.path.join(self.workdir, "best.vvck")
        self._fresh_params()

    def _fresh_params(self) -> None:
        """Copy the initial parameters for the next call; train updates in place."""
        self.params = model.ModelParams.from_arrays(
            self.config, {name: t.data.copy() for name, t in self.initial.named_parameters()})

    def step(self) -> Step:
        marks = []
        epochs = self.cfg.epochs
        start = time.perf_counter()
        try:
            result = training.train(self.params, self.config, self.train_set, self.val_set,
                                    self.cfg, checkpoint_path=self.best_path,
                                    on_epoch=lambda row: marks.append(time.perf_counter()))
        except Exception:
            _report_exception("training.train")
            return Step(time.perf_counter() - start, epochs, failed=epochs)
        seconds = time.perf_counter() - start
        return Step(seconds, epochs, epochs * len(self.train_set),
                    np.diff([start] + marks).tolist(), output=result)

    def check(self, step: Step) -> int:
        """All epochs fail unless every loss is finite, the last epoch's
        train loss is below the first's, the history matches the first
        call's and the best checkpoint reproduces the best val_loss."""
        result = step.output
        ok = result is not None and self._call_ok(result)
        if os.path.exists(self.best_path):
            os.remove(self.best_path)
        self._fresh_params()
        return 0 if ok or result is None else step.attempted

    def _call_ok(self, result: training.TrainResult) -> bool:
        history = result.history
        digest = hashlib.sha256(json.dumps(history, sort_keys=True).encode()).hexdigest()[:16]
        self.info.setdefault("history_digest", digest)
        return (
            len(history) == self.cfg.epochs
            and all(math.isfinite(r["train_loss"]) and math.isfinite(r["val_loss"])
                    for r in history)
            and history[-1]["train_loss"] < history[0]["train_loss"]
            and digest == self.info["history_digest"]
            and self._best_checkpoint_reproduces(result)
        )

    def _best_checkpoint_reproduces(self, result: training.TrainResult) -> bool:
        """Reloading the best checkpoint gives the recorded best val_loss exactly."""
        if result.best_epoch is None or not os.path.exists(self.best_path):
            return False
        _, best = checkpoint.load_checkpoint(self.best_path, expect_config=self.config)
        val_loss, _ = training.evaluate(best, self.config, self.val_set, self.cfg.batch_size)
        return val_loss == result.best_value


class InferB128(Workload):
    name = "infer_b128"
    unit = "pass"

    def generate(self):
        inputs.write_dataset(self.workdir, self.seed, self.config,
                             {"train": self.size.n_train})
        inputs.write_checkpoint(self.checkpoint_path, self.seed, self.config)

    def setup(self):
        self.config, self.params = checkpoint.load_checkpoint(
            self.checkpoint_path, expect_config=self.config)
        self.manifest = data.DatasetManifest.load(self.manifest_path)
        self.volumes = self.manifest.load_volumes(self.manifest.subset("train"))
        self.labels = np.array([v.label for v in self.volumes])

    def step(self) -> Step:
        n = len(self.volumes)
        start = time.perf_counter()
        try:
            probs = training.predict_probs(self.params, self.config, self.volumes,
                                           self.size.batch_size)
            preds = model.predict_classes(probs)
            cm = metrics.confusion(self.labels, preds, num_classes=self.config.num_classes,
                                   class_names=self.manifest.class_names)
        except Exception:
            _report_exception("pass")
            return Step(time.perf_counter() - start, 1, failed=1)
        seconds = time.perf_counter() - start
        return Step(seconds, 1, n, [seconds], output=(probs, preds, cm))

    def check(self, step: Step) -> int:
        if step.output is None:
            return 0
        return int(not self._pass_ok(*step.output))

    def _pass_ok(self, probs, preds, cm) -> bool:
        classes = self.config.num_classes
        if not rows_ok(probs, len(self.labels), classes).all():
            return False
        expected = np.zeros((classes, classes), dtype=np.int64)
        np.add.at(expected, (self.labels, np.argmax(probs, axis=1)), 1)
        return (np.array_equal(preds, np.argmax(probs, axis=1))
                and np.array_equal(cm.counts, expected))


class PredictOne(Workload):
    name = "predict_one"
    unit = "request"

    @property
    def min_ops(self) -> int:
        return self.size.min_requests

    def generate(self):
        inputs.write_dataset(self.workdir, self.seed, self.config,
                             {"test": self.size.n_test})
        inputs.write_checkpoint(self.checkpoint_path, self.seed, self.config)

    def setup(self):
        self.config, self.params = checkpoint.load_checkpoint(
            self.checkpoint_path, expect_config=self.config)
        self.paths = [os.path.join(self.workdir, f"test_{i:04d}.vvol")
                      for i in range(self.size.n_test)]
        self.responses: list[tuple[int, np.ndarray]] = []

    def step(self) -> Step:
        index = len(self.responses) % len(self.paths)
        start = time.perf_counter()
        try:
            volume = data.read_volume(self.paths[index])
            probs = training.predict_probs(self.params, self.config, [volume], 1)
        except Exception:
            _report_exception("request")
            return Step(time.perf_counter() - start, 1, failed=1)
        seconds = time.perf_counter() - start
        self.responses.append((index, probs))
        return Step(seconds, 1, 1, [seconds])

    def finish(self) -> int:
        """Each response must match its volume's row of one batch-128 pass."""
        volumes = [data.read_volume(p) for p in self.paths]
        reference = training.predict_probs(self.params, self.config, volumes,
                                           self.size.batch_size)
        classes = self.config.num_classes
        failed = 0
        for index, probs in self.responses:
            ok = rows_ok(probs, 1, classes)[0] \
                and np.abs(probs[0] - reference[index]).max() <= PREDICT_TOL
            failed += not ok
        return failed


WORKLOADS = {w.name: w for w in (TrainB128, InferB128, PredictOne)}
