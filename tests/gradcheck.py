"""Taped ops, the finite-difference gradient oracle and an attention VJP
oracle that only the tests use. The ops build on volformer.tensor's
recording hooks, so their nodes join a Tape like the library's own ops."""

import math
from typing import Callable, Sequence

import numpy as np

from volformer.errors import DimensionError, UsageError
from volformer.tensor import Tape, Tensor, _check_dtypes, _record


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were broadcast to reach its shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise DimensionError(f"add: cannot broadcast {a.shape} with {b.shape}") from exc
    a_shape, b_shape = a.shape, b.shape
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}") from exc
    a_shape = a.shape
    return _record(out, (a,), lambda g: (g.reshape(a_shape),))


def attention_vjp_with_weights(q, k, v, num_heads: int, weights, out, g):
    """(dq, dk, dv) of T.attention's VJP as it was when its node kept the
    weights: the same formulas and operand layouts, applied to the weights
    the forward appended to its sink ([B, heads, N_q, N_k] views of a
    key-major [N_k, B, heads, N_q] buffer), to q, k and v, to the op's
    output out and to its output gradient g, all [B, N, d] arrays. The op
    now rebuilds its weights in backward; its VJP must give these bits."""
    b, n, d = q.shape
    head_dim = d // num_heads

    def split(x):
        return x.reshape(b, n, num_heads, head_dim).transpose(0, 2, 1, 3)

    def heads_product(a, c):
        res = np.empty((b, n, d), q.dtype)
        np.matmul(a, c, out=split(res))
        return res

    factor = 1.0 / math.sqrt(head_dim)
    q_s, k_h, v_h, g_h = split(q) * factor, split(k), split(v), split(g)
    key_major_weights = weights.transpose(3, 0, 1, 2)  # the sink's own buffer
    row_sums = (g * out).reshape(-1, head_dim) @ np.ones(head_dim, g.dtype)
    row = np.ascontiguousarray(row_sums.reshape(b, n, num_heads).transpose(0, 2, 1))
    ds = np.empty((n, b, num_heads, n), q.dtype)
    np.matmul(v_h, np.ascontiguousarray(np.swapaxes(g_h, -1, -2)), out=ds.transpose(1, 2, 0, 3))
    ds -= row
    ds *= key_major_weights
    dq = heads_product(ds.transpose(1, 2, 3, 0), k_h)
    dq *= factor
    dk = heads_product(ds.transpose(1, 2, 0, 3), q_s)
    dv = heads_product(np.swapaxes(weights, -1, -2), g_h)
    return dq, dk, dv


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
    tape.backward(out, [x])
    analytic = tape.grads[0]

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
