"""Dense tensors with taped reverse-mode differentiation.

numpy supplies storage and BLAS; gradient propagation is done here. Ops
executed while a Tape is active append (output key, input keys, vjp) nodes
in execution order, which is already a topological order, so a single
reversed walk backpropagates every node exactly once. A node names its
tensors by key and holds none of them, and each VJP closure keeps only the
arrays, shapes and flags it reads (or a parameter, which lives anyway), so
an activation that no backward step reads is freed as soon as the forward
no longer needs it. The walk consumes the tape, dropping each node once
its VJP has run, so activation memory falls as it goes and a tape backs
one backward call. The gradients stay on the tape: no tensor is written,
so tapes on several threads may record onto the same leaves. Without an
active tape the same ops run as plain numpy (inference mode).

Float32 is the training precision; float64 is used by the tests'
finite-difference oracle (tests/gradcheck.py). Mixing the two in one op
is an error so precision downgrades cannot happen silently.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, DimensionError, NumericError, UsageError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """N-d float array; requires_grad marks it for Tape.backward.

    key names the tensor on a tape: a fresh object, which a node that
    holds it keeps alive, so it cannot be reused for another tensor the way
    an id() could once the tensor itself is freed.
    """

    __slots__ = ("data", "requires_grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.key = object()

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


class _Node:
    """One op on a tape: its output's key, its inputs' keys (None for an
    input that needs no gradient) and its VJP, which maps the output's
    gradient to one gradient (or None) per input."""

    __slots__ = ("output", "inputs", "vjp")

    def __init__(self, output: object, inputs: tuple[Optional[object], ...], vjp: Callable):
        self.output = output
        self.inputs = inputs
        self.vjp = vjp


class _TapeStack(threading.local):
    """The open tapes of the current thread, innermost last: an op records
    only onto a tape its own thread opened."""

    def __init__(self):
        self.tapes: list["Tape"] = []


_TAPE_STACK = _TapeStack()


class Tape:
    """Ordered record of differentiable ops for one backward pass.

    Use as a context manager; only the innermost active tape of the
    calling thread records, so ops run on other threads never reach it.
    Its nodes hold tensor keys and the arrays their VJPs read, never a
    tensor.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.grads: Optional[list[np.ndarray]] = None  # set by backward

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tapes = _TAPE_STACK.tapes
        if not tapes or tapes[-1] is not self:
            raise UsageError("a tape must be exited on the thread that entered it, "
                             "innermost first")
        tapes.pop()

    def backward(self, loss: Tensor, leaves: Sequence[Tensor]) -> None:
        """Set self.grads to the gradient of loss with respect to each of
        leaves, in order: zeros for a leaf the loss does not reach, and
        twice for a leaf listed twice. No tensor is written.

        The walk empties self.nodes, dropping each node (its keys and VJP
        closure) once its VJP has run, so a tape backs one backward call: a
        second call is a UsageError. Record a new tape to take gradients
        again.
        """
        if self.grads is not None:
            raise UsageError("this tape's backward has already run; record a new tape")
        if loss.data.size != 1:
            raise UsageError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        self.grads = []  # spent from here on, even if a VJP raises
        grads: dict[object, np.ndarray] = {loss.key: np.ones_like(loss.data)}
        while self.nodes:
            node = self.nodes.pop()
            g = grads.pop(node.output, None)
            if g is None:
                continue
            for key, ig in zip(node.inputs, node.vjp(g)):
                if key is None or ig is None:
                    continue
                acc = grads.get(key)
                grads[key] = ig if acc is None else acc + ig
        # a leaf is never a node's output, so its gradient is never popped
        self.grads = [grads[t.key] if t.key in grads else np.zeros_like(t.data)
                      for t in leaves]


def _active_tape() -> Optional[Tape]:
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


def _record(out_data: np.ndarray, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """Wrap out_data as the output of an op on inputs and, on an active
    tape, append its node. vjp must hold no input tensor, only what it
    reads, or the tape keeps that tensor's array alive until backward."""
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=track)
    if track:
        keys = tuple(t.key if t.requires_grad else None for t in inputs)
        tape.nodes.append(_Node(out.key, keys, vjp))
    return out


def _check_dtypes(first: Tensor, *rest: Tensor) -> None:
    dtype = first.data.dtype
    for t in rest:
        if t.data.dtype != dtype:
            raise UsageError(f"mixed dtypes in one op: {dtype} and {t.data.dtype}")


# ---------------------------------------------------------------------------
# linear maps and reductions
# ---------------------------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor, relu: bool = False,
           addend: Optional[Tensor] = None) -> Tensor:
    """x @ w + b for x [..., n], a weight w [n, m] and a bias b [m], then
    either max(., 0) (relu) or + addend, a tensor of the output's shape
    [..., m] (a residual).

    One tape node: one GEMM over the rows of x, which reads the weight
    once for all of them, with the bias and the epilogue applied in place
    on its output. The node keeps the rows of x and, with the ReLU only,
    that output: the ReLU's VJP masks by out > 0, which holds exactly
    where x @ w + b was > 0, so the subgradient at 0 is taken as 0. The
    addend's gradient is the output's, so the node keeps nothing of it.
    """
    inputs = (x, w, b) if addend is None else (x, w, b, addend)
    _check_dtypes(*inputs)
    if x.data.ndim < 1 or w.data.ndim != 2 or x.shape[-1] != w.shape[0] \
            or b.shape != w.shape[1:]:
        raise DimensionError(f"linear needs x [..., n], w [n, m] and b [m], got "
                             f"{x.shape}, {w.shape} and {b.shape}")
    if relu and addend is not None:
        raise UsageError("linear takes a ReLU or an addend, not both")
    out_shape = x.shape[:-1] + w.shape[1:]
    if addend is not None and addend.shape != out_shape:
        raise DimensionError(f"linear: addend {addend.shape} is not of its output's "
                             f"shape {out_shape}")
    rows = x.data.reshape(-1, w.shape[0])
    out = rows @ w.data
    out += b.data
    out = out.reshape(out_shape)
    if relu:
        np.maximum(out, 0, out=out)
    elif addend is not None:
        out += addend.data

    # the VJP keeps arrays, shapes and flags, never a tensor
    w_data, x_shape, mask = w.data, x.shape, out if relu else None
    needs = tuple(t.requires_grad for t in inputs)
    has_addend = addend is not None

    def vjp(g):
        if relu:
            g = g * (mask > 0)
        # an operand that needs no gradient (tokens, constants) gets none:
        # its gradient can be the largest array of the whole backward pass
        g_rows = g.reshape(-1, w_data.shape[1])
        dx = (g_rows @ w_data.T).reshape(x_shape) if needs[0] else None
        dw = rows.T @ g_rows if needs[1] else None
        db = np.ones(len(g_rows), g.dtype) @ g_rows if needs[2] else None
        if not has_addend:
            return dx, dw, db
        return dx, dw, db, g if needs[3] else None

    return _record(out, inputs, vjp)


def reduce_mean(a: Tensor, axis: int) -> Tensor:
    """The mean of a over one axis, which the output drops."""
    out = a.data.mean(axis=axis)
    count, shape, dtype = a.shape[axis], a.shape, a.dtype

    def vjp(g):
        g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, shape).astype(dtype, copy=False),)

    return _record(out, (a,), vjp)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax of an array over its last axis, as a
    new array. No tape op: training differentiates softmax_cross_entropy.

    Rejects non-finite input; rows of the output are probability
    vectors (nonnegative, summing to 1 up to rounding).
    """
    slabs = np.moveaxis(x, -1, 0).copy()
    _softmax_over_slabs(slabs)
    return np.moveaxis(slabs, 0, -1)


def _softmax_over_slabs(x: np.ndarray, stats: Optional[tuple[np.ndarray, np.ndarray]] = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite a C-contiguous x with its softmax along axis 0 and return
    its row statistics: the max and the sum of exp(x - max) per row.

    Each x[i] is one contiguous slab, so every pass runs over long vectors
    however short the softmax rows are. numpy reduces an outer axis slab by
    slab, in order: the sum is a sequential running sum. Given the stats of
    an earlier call on the same x, the same subtraction, exp and division
    rebuild that call's softmax bit for bit, without the check or either
    reduction.
    """
    if stats is None:
        if not np.isfinite(x).all():
            raise NumericError("softmax input contains NaN or Inf")
        peak = x.max(axis=0)
    else:
        peak, total = stats
    x -= peak
    np.exp(x, out=x)
    if stats is None:
        total = x.sum(axis=0)
    x /= total
    return peak, total


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
              sink: Optional[list] = None) -> Tensor:
    """Multi-head scaled dot-product self-attention of [B, N, d] inputs.

    Per head of head_dim = d / num_heads features, softmax(q k^T /
    sqrt(head_dim)) rows weight the values; the heads are concatenated
    back to [B, N, d]. A list sink receives the weights [B, num_heads,
    N, N] as a strided view. One tape node, which keeps neither the scores
    nor the weights but each query row's softmax max and sum, [B,
    num_heads, N] each (FlashAttention's statistics, Dao et al., 2022):
    its VJP rebuilds the weights from the kept q and k with the forward's
    own calls, so they, and every gradient, are the same bits.
    """
    _check_dtypes(q, k, v)
    if q.data.ndim != 3 or not q.shape == k.shape == v.shape or q.shape[-1] % num_heads:
        raise DimensionError(f"attention needs equal [B, N, d] inputs with d divisible by "
                             f"{num_heads} heads, got {q.shape}, {k.shape} and {v.shape}")
    b, n, d = q.shape
    head_dim = d // num_heads

    def split(x):  # [B, N, d] -> [B, heads, N, head_dim] view
        return x.reshape(b, n, num_heads, head_dim).transpose(0, 2, 1, 3)

    dtype = q.dtype  # the VJP's helpers keep no input tensor

    def heads_product(a, c):
        """a @ c per head, written through the head views of one [B, N, d]
        array, so the heads need no merge copy."""
        out = np.empty((b, n, d), dtype)
        np.matmul(a, c, out=split(out))
        return out

    def key_major(keys, queries):
        """keys @ queries^T per head into a [N_k, B, heads, N_q] array: one
        contiguous slab of B * heads * N_q entries per key. The right
        operand goes contiguous: on 32 reference volumes (one BLAS thread)
        the product took 254 us on the strided view and 101 us on a copy."""
        buf = np.empty((n, b, num_heads, n), dtype)
        np.matmul(keys, np.ascontiguousarray(np.swapaxes(queries, -1, -2)), out=by_key(buf))
        return buf

    def by_key(x):  # [N_k, B, heads, N_q] -> [B, heads, N_k, N_q] view
        return x.transpose(1, 2, 0, 3)

    def by_query(x):  # [N_k, B, heads, N_q] -> [B, heads, N_q, N_k] view
        return x.transpose(1, 2, 3, 0)

    # the factor goes on q, not on the scores: with 16 tokens and head_dim
    # 2 the queries are 8 times smaller. The softmax over keys runs over
    # the key-major slabs; alpha @ v then reads each head's weights
    # column-major, which BLAS takes transposed (70 us against 118 us for
    # row-major weights on 32 reference volumes).
    factor = 1.0 / math.sqrt(head_dim)
    q_s, k_h, v_h = split(q.data) * factor, split(k.data), split(v.data)
    weights = key_major(k_h, q_s)
    stats = _softmax_over_slabs(weights)
    if sink is not None:
        sink.append(by_query(weights))
    out = heads_product(by_query(weights), v_h)

    def vjp(g):
        # on 32 reference volumes the rebuild took about 200 us (2-core x86
        # host) and saves 512 KiB of tape per block
        weights = key_major(k_h, q_s)
        _softmax_over_slabs(weights, stats)
        g_h = split(g)
        # rowsum(dalpha * alpha) is rowsum over head_dim of g * out, since
        # out = alpha v (Dao et al., 2022): no pass over the N x N weights.
        # A GEMV takes the short sums; the row goes contiguous [B, heads,
        # N_q] before it is broadcast over the key slabs.
        rows = (g * out).reshape(-1, head_dim) @ np.ones(head_dim, g.dtype)
        row = np.ascontiguousarray(rows.reshape(b, n, num_heads).transpose(0, 2, 1))
        ds = key_major(v_h, g_h)
        ds -= row
        ds *= weights
        dq = heads_product(by_query(ds), k_h)
        dq *= factor
        # ds^T and alpha^T go in row-major, blocks 32 KB apart: of the
        # product forms timed, this one was the fastest
        dk = heads_product(by_key(ds), q_s)
        dv = heads_product(by_key(weights), g_h)
        return dq, dk, dv

    return _record(out, (q, k, v), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalize the last axis to mean 0 / population variance 1, then affine."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    _check_dtypes(x, gamma, beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm gamma/beta must have shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    # rows are d = 32 wide on the reference config, too short for numpy's
    # reductions: the row means are GEMVs against a column of 1/d (exact
    # for a power of two), and the parameter gradients GEMVs against ones
    rows = x.data.reshape(-1, d)
    mean_weights = np.full((d, 1), 1.0 / d, x.dtype)
    xhat = rows - rows @ mean_weights
    inv = np.square(xhat) @ mean_weights
    inv += eps
    np.sqrt(inv, out=inv)
    np.reciprocal(inv, out=inv)
    xhat *= inv
    out = (xhat * gamma.data).reshape(x.shape)
    out += beta.data
    gamma_data, x_shape = gamma.data, x.shape

    def vjp(g):
        g_rows = g.reshape(-1, d)
        dx = g_rows * gamma_data
        m2 = xhat * ((dx * xhat) @ mean_weights)
        dx -= dx @ mean_weights
        dx -= m2
        dx *= inv
        ones = np.ones(len(g_rows), g.dtype)
        dgamma = ones @ (g_rows * xhat)
        dbeta = ones @ g_rows
        return dx.reshape(x_shape), dgamma, dbeta

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
