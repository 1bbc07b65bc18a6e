"""Loss, Adam, the epoch loop, and improvement-gated checkpointing. Batches
run in chunks on a pool of worker threads; each chunk is one
model.forward_logits call, taped on the worker for a training chunk."""

from __future__ import annotations

import ctypes
import json
import numbers
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from . import model as M
from . import tensor as T
from .checkpoint import save_checkpoint
from .data import Volume, write_file
from .errors import (ConfigError, DataError, DimensionError, NumericError,
                     UsageError, require_field_types)
from .rng import Rng, derive_seed

MONITORS = ("val_loss", "val_acc")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters. Defaults are the reference setup."""

    learning_rate: float = 1e-4
    batch_size: int = 128
    epochs: int = 1500
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    seed: int = 0
    monitor: str = "val_loss"

    def __post_init__(self):
        require_field_types(self)
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if not 0 < self.beta1 < 1 or not 0 < self.beta2 < 1:
            raise ConfigError("Adam betas must lie in (0, 1)")
        if self.epsilon <= 0:
            raise ConfigError("Adam epsilon must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.monitor not in MONITORS:
            raise ConfigError(f"monitor must be one of {MONITORS}")


class AdamState:
    """First/second-moment vectors in the layout of params.flat, and the
    number of steps taken."""

    def __init__(self, params: M.ModelParams):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.step_count = 0


def adam_step(params: M.ModelParams, grad: np.ndarray, state: AdamState,
              cfg: TrainConfig) -> None:
    """One bias-corrected Adam update of params.flat in place, from grad in
    the same layout.

    The gradient is checked before anything mutates, so a bad step aborts
    cleanly with params and state intact: a grad not of params.flat's shape
    is a UsageError (a scalar would broadcast to every parameter), and a
    non-finite entry a NumericError naming the first parameter holding one.
    """
    if np.shape(grad) != params.flat.shape:
        raise UsageError(f"gradient of shape {np.shape(grad)}; the parameters have shape "
                         f"{params.flat.shape}")
    if not np.isfinite(grad).all():
        named = M.ModelParams(params.config, np.asarray(grad, params.flat.dtype))
        for name, tensor in named.named_parameters():
            if not np.isfinite(tensor.data).all():
                raise NumericError(f"non-finite gradient in '{name}'; step aborted")
    t = state.step_count + 1
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    m, v = state.m, state.v
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * (grad * grad)
    params.flat -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)
    state.step_count = t


def _check_inputs(params: M.ModelParams, config: M.ModelConfig,
                  volumes: Sequence[Volume]) -> None:
    """Raise UsageError when config is not params.config, the config every
    layer reads, and then DimensionError naming the first volume whose
    shape is not the configured input shape."""
    if config != params.config:
        differ = params.config.differing_fields(config)
        raise UsageError(f"config differs from the parameters' own in {', '.join(differ)}")
    for volume in volumes:
        if volume.voxels.shape != config.input_shape:
            raise DimensionError(
                f"volume {volume.id!r} has shape {volume.voxels.shape}, which does not "
                f"match configured input {config.input_shape}")


# Every training forward and backward runs on at most _CHUNK volumes: a
# chunk's tape holds its activations until its backward frees them node by
# node (13.3 MiB after the forward of 32 reference volumes, 9 nodes per
# encoder block; the whole chunk gradient peaks at 14.3 MiB), and the cut
# sets the low bits of the summed gradient, so both pin it at 32.
_CHUNK = 32
# An inference batch runs in chunks of at most _INFER_CHUNK volumes, which
# bounds a worker's transient arrays at about 34 KB per volume (4.3 MB for
# 128 reference volumes). A forward_logits call on 32, 64, 100, 128 and 200
# reference volumes (one BLAS thread, 2-core host with 2 MB of L2 per core)
# cost 0.95-0.99, 0.89-0.95, 0.84-0.87, 0.84 and 0.86-0.87 ms per volume
# on one thread, and 0.65-0.71, 0.52-0.57, 0.49-0.51, 0.48-0.50 and
# 0.47-0.48 ms with two threads at once: most encoder ops on 32 volumes are
# too short to gain from the time numpy releases the GIL.
_INFER_CHUNK = 128


def _chunks(n: int) -> list[slice]:
    """Cut n rows by model._cut into ceil(n / _CHUNK) slices of at most
    _CHUNK; none is a single row (which numpy sends to GEMV) unless n == 1."""
    return M._cut(n, -(-n // _CHUNK))


def _inference_chunks(n: int, workers: int) -> list[slice]:
    """Cut an inference batch of n volumes into a multiple of workers
    chunks of at most _INFER_CHUNK volumes, but into no more than one chunk
    per 8 volumes, so none holds fewer than 5 unless n < 16. The count is a
    multiple of workers whenever n >= 8 * workers."""
    k = workers * -(-n // (workers * _INFER_CHUNK))
    return M._cut(n, min(k, max(1, n // 8)))


# The chunk worker pool: one thread per CPU this process may run on (taskset
# or a cpuset sets that). numpy releases the GIL inside BLAS and long ufunc
# loops, so workers with one BLAS thread each keep that many cores busy; with
# a default-size BLAS pool each they contend for the cores (predict_probs on
# 200 reference volumes at batch 128, 2 cores: 152 ms against 88 ms). So
# importing this module sets numpy's OpenBLAS to one thread, process-wide.
# The threads start on the first submit, not at import.
_WORKERS = len(os.sched_getaffinity(0))
_pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="volformer")


def _one_blas_thread() -> None:
    """Call the OpenBLAS setter that dlsym finds among the libraries numpy's
    linalg extension links (bundled, 64-bit-integer or plain OpenBLAS), or
    warn when there is none: numpy was built on another BLAS."""
    blas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads"):
        if hasattr(blas, name):
            getattr(blas, name)(1)
            return
    warnings.warn("numpy's BLAS has no OpenBLAS thread setter, so volformer's chunk workers "
                  "may contend for the cores; set OMP_NUM_THREADS=1 before numpy loads",
                  RuntimeWarning)


_one_blas_thread()


def _chunk_gradient(chunk: Sequence[Volume], params: M.ModelParams) -> tuple[float, np.ndarray]:
    """(mean cross-entropy, its gradient in the layout of params.flat) of
    one chunk, run on a worker thread. The chunk's tape records onto the
    shared parameter tensors and keeps its gradients to itself."""
    with T.Tape() as tape:
        logits = M.forward_logits([v.voxels for v in chunk], params)
        loss = T.softmax_cross_entropy(logits, [v.label for v in chunk])
    tape.backward(loss, params.tensors())
    return float(loss.data), np.concatenate([g.ravel() for g in tape.grads])


def _batches(volumes: Sequence[Volume], params: M.ModelParams, batch_size: int, what: str):
    """(batch, logits) for each batch of batch_size volumes.

    Each batch is cut on its own by _inference_chunks for the pool's
    thread count, so every chunk boundary falls on a multiple of 4 volumes
    from the start of its batch (see model._cut), its last chunk ends where
    the batch does, and a 1-volume batch is a 1-volume chunk. Every
    chunk of every batch goes to the worker pool up front, and each batch's
    logits are gathered in chunk order, so they are bit-identical to one
    forward_logits pass over the batch at any worker count. The first error
    a chunk raises is raised here, and the chunks not yet started are then
    dropped, as they are when the caller stops early. Shapes must have
    passed _check_inputs.
    """
    if isinstance(batch_size, bool) or not isinstance(batch_size, numbers.Integral) \
            or batch_size < 1:
        raise UsageError(f"batch_size must be an integer >= 1, got {batch_size!r}")
    if not volumes:
        raise DataError(f"cannot {what} an empty set")
    batches = [volumes[start : start + batch_size]
               for start in range(0, len(volumes), batch_size)]
    cuts = [_inference_chunks(len(batch), _WORKERS) for batch in batches]
    logits = _pool.map(M.forward_logits, [[v.voxels for v in batch[s]]
                                          for batch, cut in zip(batches, cuts) for s in cut],
                       repeat(params))
    for batch, cut in zip(batches, cuts):
        yield batch, T.Tensor(np.concatenate([next(logits).data for _ in cut]))


def evaluate(params: M.ModelParams, config: M.ModelConfig, volumes: Sequence[Volume],
             batch_size: int = 128) -> tuple[float, float]:
    """(mean cross-entropy, accuracy) over a volume list, without a tape.

    The loss is averaged per batch of batch_size and then over the set, so
    batch_size sets the low bits of the result. config must be
    params.config (see _check_inputs).
    """
    _check_inputs(params, config, volumes)
    total_loss = 0.0
    correct = 0
    for batch, logits in _batches(volumes, params, batch_size, "evaluate"):
        labels = np.array([v.label for v in batch], dtype=np.int64)
        total_loss += float(T.softmax_cross_entropy(logits, labels).data) * len(batch)
        correct += int((M.predict_classes(logits.data) == labels).sum())
    return total_loss / len(volumes), correct / len(volumes)


def predict_probs(params: M.ModelParams, config: M.ModelConfig,
                  volumes: Sequence[Volume], batch_size: int = 128) -> np.ndarray:
    """Class probabilities [n, classes] for a volume list; config must be
    params.config (see _check_inputs)."""
    _check_inputs(params, config, volumes)
    return np.concatenate([
        T.softmax(logits).data for _, logits in _batches(volumes, params, batch_size, "predict")])


def _batch_gradient(params: M.ModelParams, volumes: Sequence[Volume]) -> tuple[float, np.ndarray]:
    """(summed loss of the batch volumes, gradient of their mean
    cross-entropy in the layout of params.flat).

    The chunks of the batch run on the worker pool (_chunk_gradient), and
    their gradient vectors are summed in chunk order, each weighted by its
    share of the batch; the first chunk's vector is the accumulator. The
    first error a chunk raises is raised here, and the chunks not yet
    started are then dropped.
    """
    chunks = [volumes[s] for s in _chunks(len(volumes))]
    results = _pool.map(_chunk_gradient, chunks, repeat(params))
    loss_sum = 0.0
    total = None
    for chunk, (loss, grad) in zip(chunks, results):
        loss_sum += loss * len(chunk)
        grad *= len(chunk) / len(volumes)  # 1.0 for a one-chunk batch: the same bits
        if total is None:
            total = grad
        else:
            total += grad
    return loss_sum, total


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: Optional[int] = None
    best_value: float = float("nan")


def train(params: M.ModelParams, config: M.ModelConfig,
          train_set: Sequence[Volume], val_set: Sequence[Volume],
          cfg: TrainConfig, checkpoint_path=None, history_path=None,
          on_epoch: Optional[Callable[[dict], None]] = None) -> TrainResult:
    """Run the epoch loop with improvement-gated checkpointing.

    config must be params.config (a UsageError otherwise), and every train
    and validation volume must have its input shape (a DimensionError
    naming the first that does not); both are checked before epoch 1.
    Each epoch reshuffles the training set from a stream derived from
    cfg.seed (derive_seed(seed, 1)), walks it in batches of cfg.batch_size
    (last partial batch kept), one Adam step per batch, and evaluates the
    validation set. A batch's forward and backward run
    in chunks of at most _CHUNK volumes on the worker pool, each through
    the forward_logits that inference runs, so peak memory stops growing with
    cfg.batch_size past one chunk per worker and holds no copy of the
    training set. A checkpoint is written only when the monitored metric
    strictly improves. Identical seeds give bit-identical histories and
    checkpoint bytes at any worker count.

    The history file at history_path is JSONL, one {"epoch",
    "train_loss", "val_loss", "val_acc", "checkpointed"} record per
    epoch, rewritten whole by data.write_file as each epoch ends (before
    on_epoch), so a run that stops early leaves exactly the rows of every
    finished epoch, never a partial line.
    """
    if not train_set or not val_set:
        raise DataError("train and validation sets must be non-empty")
    _check_inputs(params, config, [*train_set, *val_set])
    n = len(train_set)
    state = AdamState(params)
    shuffle_rng = Rng(derive_seed(cfg.seed, 1))
    minimize = cfg.monitor == "val_loss"
    best = float("inf") if minimize else float("-inf")
    result = TrainResult()
    shuffled = list(train_set)  # reshuffled in place each epoch
    history = ""  # the text of history_path, rewritten whole each epoch
    for epoch in range(1, cfg.epochs + 1):
        shuffle_rng.shuffle(shuffled)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            loss_sum, grad = _batch_gradient(params, shuffled[start : start + cfg.batch_size])
            epoch_loss += loss_sum
            adam_step(params, grad, state, cfg)
        val_loss, val_acc = evaluate(params, config, val_set, cfg.batch_size)
        metric = val_loss if minimize else val_acc
        improved = metric < best if minimize else metric > best
        if improved:
            best = metric
            result.best_epoch = epoch
            result.best_value = metric
            if checkpoint_path is not None:
                save_checkpoint(checkpoint_path, params)
        row = {
            "epoch": epoch,
            "train_loss": epoch_loss / n,
            "val_loss": val_loss,
            "val_acc": val_acc,
            "checkpointed": bool(improved and checkpoint_path is not None),
        }
        result.history.append(row)
        if history_path is not None:
            history += json.dumps(row) + "\n"
            write_file(history_path, history)
        if on_epoch is not None:
            on_epoch(row)
    return result
