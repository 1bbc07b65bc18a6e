"""Taped ops and the finite-difference gradient oracle that only the tests
use. They build on volformer.tensor's recording hooks, so their nodes
join a Tape like the library's own ops."""

from typing import Callable, Sequence

import numpy as np

from volformer.errors import DimensionError, UsageError
from volformer.tensor import Tape, Tensor, _check_dtypes, _record, _unbroadcast


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes(a, b)
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise DimensionError(f"add: cannot broadcast {a.shape} with {b.shape}") from exc
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}") from exc
    return _record(out, (a,), lambda g: (g.reshape(a.shape),))


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
