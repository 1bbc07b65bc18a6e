"""Dense tensors with taped reverse-mode differentiation.

numpy supplies storage and BLAS; gradient propagation is done here. Ops
executed while a Tape is active append (inputs, output, vjp) nodes in
execution order, which is already a topological order, so a single
reversed walk backpropagates every node exactly once. Without an active
tape the same ops run as plain numpy (inference mode).

Float32 is the training precision; float64 is used by the
finite-difference oracle. Mixing the two in one op is an error so
precision downgrades cannot happen silently.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, DimensionError, NumericError, UsageError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """N-d float array with an optional gradient slot.

    Gradients are written by Tape.backward, which overwrites (never
    accumulates into) .grad, so repeated backward passes over one tape
    are bit-identical.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)


class _Node:
    __slots__ = ("output", "inputs", "vjp")

    def __init__(self, output: Tensor, inputs: tuple[Tensor, ...], vjp: Callable):
        self.output = output
        self.inputs = inputs
        self.vjp = vjp


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of differentiable ops for one backward pass.

    Use as a context manager; only the innermost active tape records.
    A tape is confined to one logical thread of execution.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must unwind in LIFO order"

    def backward(self, loss: Tensor, leaves: Optional[Sequence[Tensor]] = None) -> None:
        """Populate .grad on every requires_grad leaf reachable from loss.

        `leaves`, when given, additionally guarantees a gradient (zeros
        if the tensor did not influence the loss). Gradients are
        overwritten, so calling backward twice on the same tape yields
        bit-identical results.
        """
        if loss.data.size != 1:
            raise UsageError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        produced = {id(node.output) for node in self.nodes}
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        leaf_tensors: dict[int, Tensor] = {}
        for node in reversed(self.nodes):
            g = grads.pop(id(node.output), None)
            if g is None:
                continue
            input_grads = node.vjp(g)
            for tensor, ig in zip(node.inputs, input_grads):
                if ig is None or not tensor.requires_grad:
                    continue
                key = id(tensor)
                acc = grads.get(key)
                grads[key] = ig if acc is None else acc + ig
                if key not in produced:
                    leaf_tensors[key] = tensor
        for key, tensor in leaf_tensors.items():
            tensor.grad = grads.get(key, np.zeros_like(tensor.data))
        if leaves is not None:
            for tensor in leaves:
                if id(tensor) not in leaf_tensors:
                    tensor.grad = grads.get(id(tensor), np.zeros_like(tensor.data))


def _active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(out_data: np.ndarray, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        tape.nodes.append(_Node(out, inputs, vjp))
    return out


def _check_dtypes(*tensors: Tensor) -> None:
    dtypes = {t.data.dtype for t in tensors}
    if len(dtypes) > 1:
        raise UsageError(f"mixed dtypes in one op: {sorted(str(d) for d in dtypes)}")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were broadcast to reach its shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise DimensionError(f"add: cannot broadcast {a.shape} with {b.shape}") from exc
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    _check_dtypes(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise DimensionError(f"matmul batch dims incompatible: {a.shape} x {b.shape}") from exc

    def vjp(g):
        # an operand that needs no gradient (tokens, constants) gets none:
        # its gradient can be the largest array of the whole backward pass
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad and b.data.ndim == 2 and a.data.ndim > 2:
            # a weight shared over leading axes: one GEMM over the flattened
            # rows, not a batched product summed over the batch afterwards
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        elif b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return _record(out, (a, b), vjp)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}") from exc
    return _record(out, (a,), lambda g: (g.reshape(a.shape),))


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.shape[axis]

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, a.shape).astype(a.data.dtype, copy=False),)

    return _record(out, (a,), vjp)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    """Elementwise max(x, 0); subgradient at 0 is taken as 0."""
    mask = a.data > 0
    return _record(np.maximum(a.data, 0), (a,), lambda g: (g * mask,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along one axis.

    Rejects non-finite input; rows of the output are probability
    vectors (nonnegative, summing to 1 up to rounding).
    """
    out = _softmax_inplace(np.array(a.data), axis)
    return _record(out, (a,), lambda g: (out * (g - _row_sum(g * out, axis)),))


def _softmax_inplace(x: np.ndarray, axis: int) -> np.ndarray:
    """Overwrite x with its softmax along axis and return it."""
    if not np.isfinite(x).all():
        raise NumericError("softmax input contains NaN or Inf")
    x -= _row_max(x, axis)
    np.exp(x, out=x)
    x /= _row_sum(x, axis)
    return x


# Attention rows are 16 wide, and numpy's max and sum reductions cost
# several times the arithmetic on rows that short; a running maximum over
# the row's positions and an einsum do the same work in a few passes.


def _row_max(x: np.ndarray, axis: int) -> np.ndarray:
    """x.max(axis, keepdims=True), bit-identical: max ignores order."""
    rows = np.moveaxis(x, axis, 0)
    m = np.array(rows[0])
    for row in rows[1:]:
        np.maximum(m, row, out=m)
    return np.expand_dims(m, axis)


def _row_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """x.sum(axis, keepdims=True), summed in einsum's order."""
    return np.expand_dims(np.einsum("...i->...", np.moveaxis(x, axis, -1)), axis)


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
              sink: Optional[list] = None) -> Tensor:
    """Multi-head scaled dot-product self-attention of [B, N, d] inputs.

    Per head of head_dim = d / num_heads features, softmax(q k^T /
    sqrt(head_dim)) rows weight the values; the heads are concatenated
    back to [B, N, d]. A list sink receives the weights [B, num_heads,
    N, N]. One tape node, which keeps the weights but not the scores.
    """
    _check_dtypes(q, k, v)
    if q.data.ndim != 3 or not q.shape == k.shape == v.shape or q.shape[-1] % num_heads:
        raise DimensionError(f"attention needs equal [B, N, d] inputs with d divisible by "
                             f"{num_heads} heads, got {q.shape}, {k.shape} and {v.shape}")
    b, n, d = q.shape
    head_dim = d // num_heads

    def split(x):  # [B, N, d] -> [B, heads, N, head_dim] view
        return x.reshape(b, n, num_heads, head_dim).transpose(0, 2, 1, 3)

    def transposed(x):  # [B, N, d] -> contiguous [B, heads, head_dim, N]
        return np.ascontiguousarray(np.swapaxes(split(x), -1, -2))

    def heads_product(a, c):
        """a @ c per head, written through the head views of one [B, N, d]
        array, so the heads need no merge copy."""
        out = np.empty((b, n, d), q.dtype)
        np.matmul(a, c, out=split(out))
        return out

    # the factor goes on q, not on the scores: with 16 tokens and head_dim
    # 2 the queries are 8 times smaller. A product over head_dim features
    # takes its right operand contiguous: on 32 reference volumes (one BLAS
    # thread) q @ k^T took 182 us on the strided view of k and 57 us on a
    # contiguous k^T.
    factor = 1.0 / math.sqrt(head_dim)
    q_s, k_h, v_h = split(q.data) * factor, split(k.data), split(v.data)
    alpha = _softmax_inplace(np.matmul(q_s, transposed(k.data)), -1)
    if sink is not None:
        sink.append(alpha)
    out = heads_product(alpha, v_h)

    def vjp(g):
        g_h = split(g)
        # rowsum(dalpha * alpha) is rowsum over head_dim of g * out, since
        # out = alpha v (Dao et al., 2022): no pass over the N x N weights
        row = _row_sum((g * out).reshape(b, n, num_heads, head_dim), -1)
        ds = np.matmul(g_h, transposed(v.data))
        ds -= row.transpose(0, 2, 1, 3)
        ds *= alpha
        dq = heads_product(ds, k_h)
        dq *= factor
        dk = heads_product(np.swapaxes(ds, -1, -2), q_s)
        dv = heads_product(np.swapaxes(alpha, -1, -2), g_h)
        return dq, dk, dv

    return _record(out, (q, k, v), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to mean 0 / population variance 1, then affine."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    _check_dtypes(x, gamma, beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm gamma/beta must have shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gamma.data + beta.data

    def vjp(g):
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        reduce_axes = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=reduce_axes)
        dbeta = g.sum(axis=reduce_axes)
        return dx, dgamma, dbeta

    return _record(out, (x, gamma, beta), vjp)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels, fused from logits.

    Stabilized via logsumexp; the gradient is (softmax - onehot)/batch.
    """
    if logits.data.ndim != 2:
        raise DimensionError(f"logits must be [batch, classes], got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    batch, classes = logits.shape
    if labels.shape != (batch,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {batch}")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise DataError(f"label out of range [0, {classes})")
    m = logits.data.max(axis=1, keepdims=True)
    z = logits.data - m
    sum_exp = np.exp(z).sum(axis=1, keepdims=True)
    log_probs = z - np.log(sum_exp)
    rows = np.arange(batch)
    out = np.asarray(-log_probs[rows, labels].mean(), dtype=logits.dtype)

    def vjp(g):
        p = np.exp(log_probs)
        p[rows, labels] -= 1.0
        return (g * p / batch,)

    return _record(out, (logits,), vjp)


# ---------------------------------------------------------------------------
# verification oracle
# ---------------------------------------------------------------------------


def finite_difference_check(f: Callable[[Tensor], Tensor], point, step: float = 1e-5) -> float:
    """Max relative error between backward() and central differences.

    f must map one tensor to a scalar. The check always runs in double
    precision; the relative error denominator is floored at 1e-8. This
    path never consults the vjp rules it is checking: the numeric side
    is plain re-evaluation of f at perturbed points.
    """
    base = point.data if isinstance(point, Tensor) else np.asarray(point)
    x = Tensor(np.array(base, dtype=np.float64), requires_grad=True)
    with Tape() as tape:
        out = f(x)
    if out.data.size != 1:
        raise UsageError("finite_difference_check needs a scalar-valued f")
    tape.backward(out, leaves=[x])
    analytic = x.grad.copy()

    numeric = np.empty_like(x.data)
    flat = x.data.reshape(-1)
    numeric_flat = numeric.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        f_plus = float(f(x).data)
        flat[i] = original - step
        f_minus = float(f(x).data)
        flat[i] = original
        numeric_flat[i] = (f_plus - f_minus) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
