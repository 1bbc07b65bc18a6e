"""Spans around the public functions of volformer's modules.

`Tracer.install` replaces every public function and public method of the
modules in LAYERS with a wrapper that records a span (name, start, end,
parent span, run id) while a run is open, and calls straight through
otherwise. Names the program imported from one module into another (such
as `training.save_checkpoint`) are rebound too. Nothing under src/
changes; `uninstall` puts every original back.

Spans are kept in flat arrays and written out with `save`. `layer_metrics`
turns them into the per-layer metrics of BENCHMARK.json: `.ms` is the
mean inclusive time per call, `.self_ms` the mean time per call not
covered by child spans, and `.calls` the calls per workload operation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("tensor", "model", "training", "checkpoint", "data", "rng", "metrics")
ELEMENTWISE = ("add", "sub", "mul", "scale", "shift", "relu")
TAPE_SCAN = "perfbench.tape_scan"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.run = array("l")
        self.errors = dict.fromkeys(LAYERS, 0)
        self.tape_nodes: list[int] = []
        self.tape_bytes: list[int] = []
        self._stack: list[int] = []
        self._run_id = -1
        self._last_error: BaseException | None = None
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def running(self, run_id: int):
        """Record spans under `run_id` for the duration of the block."""
        self._run_id = run_id
        try:
            yield
        finally:
            self._run_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, span: str, layer: str):
        name_id = self._name_id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._run_id < 0:
                return fn(*args, **kwargs)
            index = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self._last_error:  # count where it was raised
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                self._close(index)

        return traced

    def _scan_tape(self, traced_backward):
        """Wrap Tape.backward so each call also records the tape's size.

        The scan runs in its own span after backward returns, so it is
        not charged to backward or to the caller's self time.
        """
        scan_id = self._name_id(TAPE_SCAN)

        @functools.wraps(traced_backward)
        def backward(tape, loss, leaves=None):
            traced_backward(tape, loss, leaves)
            if self._run_id < 0:
                return
            index = self._open(scan_id)
            try:
                self.tape_nodes.append(len(tape.nodes))
                self.tape_bytes.append(_tape_bytes(tape, leaves or ()))
            finally:
                self._close(index)

        return backward

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        if all(o is not owner or a != attr for o, a, _, _ in self._patches):
            self._patches.append((owner, attr, owner.__dict__[attr], value))

    def install(self) -> None:
        """Put the wrappers in place; the first call makes them."""
        if not self._patches:
            self._make_patches()
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Put every original back; `install` can put the wrappers back."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _make_patches(self) -> None:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"volformer.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
                    self._patch(module, attr, wrapped[id(obj)])
                elif inspect.isclass(obj):
                    self._patch_methods(obj, f"{layer}.{attr}", layer)
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("volformer.") or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._patch(module, attr, wrapped[id(obj)])

    def _patch_methods(self, cls, prefix: str, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            span = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                traced = self._wrap(member, span, layer)
                if span == "tensor.Tape.backward":
                    traced = self._scan_tape(traced)
                self._patch(cls, attr, traced)
            elif isinstance(member, (classmethod, staticmethod)):
                self._patch(cls, attr, type(member)(self._wrap(member.__func__, span, layer)))

    # -- results -----------------------------------------------------------

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 start_ns=np.asarray(self.start), end_ns=np.asarray(self.end),
                 parent=np.asarray(self.parent), run=np.asarray(self.run))

    def spans(self) -> dict[str, np.ndarray]:
        start = np.asarray(self.start, dtype=np.int64)
        end = np.asarray(self.end, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = (end - start).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return {"name": np.asarray(self.name, dtype=np.int64), "parent": parent,
                "run": np.asarray(self.run, dtype=np.int64), "dur": dur,
                "self": dur - child}


def _array_owner(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _tape_bytes(tape, leaves) -> int:
    """Bytes of distinct arrays a tape keeps alive, parameters excluded.

    Counts each node's output and inputs and every array its backward
    rule closes over, each underlying buffer once.
    """
    skip = {id(_array_owner(t.data)) for t in leaves}
    seen: dict[int, int] = {}
    for node in tape.nodes:
        arrays = [node.output.data] + [t.data for t in node.inputs]
        for cell in node.vjp.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                arrays.append(value)
        for arr in arrays:
            owner = _array_owner(arr)
            if id(owner) not in skip:
                seen[id(owner)] = owner.nbytes
    return sum(seen.values())


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from every recorded span; `ops` is the number of
    workload operations in runs with id >= 1 (the timed, traced runs)."""
    s = tracer.spans()
    names = {n: i for i, n in enumerate(tracer.names)}

    def mask(*spans):
        ids = [names[n] for n in spans if n in names]
        return np.isin(s["name"], ids)

    def mean(m, key="dur"):
        return float(s[key][m].mean()) / 1e6 if m.any() else 0.0

    def per_op(m):
        return float(np.count_nonzero(m & (s["run"] >= 1))) / ops

    out: dict[str, tuple[float, str]] = {}
    groups = {
        "tensor.matmul": ("tensor.matmul",),
        "tensor.softmax": ("tensor.softmax",),
        "tensor.layer_norm": ("tensor.layer_norm",),
        "tensor.elementwise": tuple(f"tensor.{op}" for op in ELEMENTWISE),
    }
    for group, spans in groups.items():
        m = mask(*spans)
        out[f"{group}.ms"] = (mean(m), "ms")
        out[f"{group}.calls"] = (per_op(m), "count")
    out["tensor.Tape.backward.ms"] = (mean(mask("tensor.Tape.backward")), "ms")
    out["tensor.tape_nodes"] = (float(np.mean(tracer.tape_nodes)) if tracer.tape_nodes
                                else 0.0, "count")
    out["tensor.tape_mb"] = (float(np.mean(tracer.tape_bytes)) / 2**20
                             if tracer.tape_bytes else 0.0, "MB")
    out["tensor.ops_per_forward"] = (_ops_per_forward(s, names), "count")
    for span in ("model.forward_logits", "model.encoder_block", "training.train",
                 "training.predict_probs"):
        out[f"{span}.self_ms"] = (mean(mask(span), "self"), "ms")
    for span in ("model.embed", "model.mhsa", "model.attention", "model.ffn",
                 "model.classifier_logits", "training.adam_step", "training.evaluate",
                 "rng.Rng.shuffle", "checkpoint.save_checkpoint",
                 "checkpoint.load_checkpoint", "data.read_volume", "metrics.confusion"):
        out[f"{span}.ms"] = (mean(mask(span)), "ms")
    out["checkpoint.save_checkpoint.calls"] = (per_op(mask("checkpoint.save_checkpoint")),
                                               "count")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (float(tracer.errors[layer]), "count")
    return out


def _ops_per_forward(s, names) -> float:
    """Calls of tensor-module functions inside model.forward_logits, per call."""
    forward = names.get("model.forward_logits")
    if forward is None:
        return 0.0
    tensor_fns = {i for n, i in names.items()
                  if n.startswith("tensor.") and n.count(".") == 1}
    inside = [False] * len(s["name"])
    count = 0
    for i, (name, parent) in enumerate(zip(s["name"].tolist(), s["parent"].tolist())):
        inside[i] = name == forward or (parent >= 0 and inside[parent])
        count += inside[i] and name in tensor_fns
    calls = np.count_nonzero(s["name"] == forward)
    return count / calls if calls else 0.0


def coverage(tracer: Tracer, traced_seconds: float) -> float:
    """Share of the traced operations' wall time inside top-level spans."""
    s = tracer.spans()
    top = (s["parent"] < 0) & (s["run"] >= 1)
    return float(s["dur"][top].sum()) / 1e9 / traced_seconds
