"""Independent gradient verification via central finite differences.

This is the oracle side of every gradient check in the package: it never
touches the reverse-mode tape, so agreement between the two is evidence that
both are right.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .errors import NumericDomainError
from .tensor import Tensor, backward, dense_grad, no_grad

# central-difference step; anything in [1e-6, 1e-4] is sensible at 64-bit
FD_STEP = 1e-5
# magnitude under which a gradient coordinate is central-difference noise
FD_FLOOR = 1e-8


def finite_diff_grad(f: Callable[[Tensor], Tensor], x: Tensor) -> np.ndarray:
    """Central-difference estimate of d f / d x, one coordinate at a time,
    with step ``FD_STEP``. f must be a pure scalar function of x.
    """
    base = x.data
    out = np.zeros(base.shape)
    flat = out.reshape(-1)
    with no_grad():
        for i in range(base.size):
            bump = np.zeros(base.size)
            bump[i] = FD_STEP
            bump = bump.reshape(base.shape)
            hi = _scalar(f(Tensor(base + bump)))
            lo = _scalar(f(Tensor(base - bump)))
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericDomainError(
                    f"finite_diff_grad: non-finite evaluation at coordinate {i}"
                )
            flat[i] = (hi - lo) / (2.0 * FD_STEP)
    return out


def _scalar(value) -> float:
    if isinstance(value, Tensor):
        return value.item()
    return float(value)


def max_relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Largest elementwise relative error, skipping coordinates where both
    magnitudes sit under ``FD_FLOOR``."""
    a = np.asarray(approx, dtype=np.float64)
    b = np.asarray(exact, dtype=np.float64)
    keep = np.maximum(np.abs(a), np.abs(b)) >= FD_FLOOR
    if not keep.any():
        return 0.0
    denom = np.maximum(np.abs(a), np.abs(b))[keep]
    return float((np.abs(a - b)[keep] / denom).max())


def check_gradients(f: Callable[..., Tensor], xs: Sequence[Tensor]) -> float:
    """Compare reverse-mode gradients of f(*xs) against finite differences.

    Returns the worst relative error over all inputs.
    """
    tracked = [Tensor(x.data, grad_tracked=True) for x in xs]
    grads = backward(f(*tracked))
    worst = 0.0
    for i, t in enumerate(tracked):

        def f_i(xi: Tensor, _i=i) -> Tensor:
            args = [Tensor(u.data) for u in tracked]
            args[_i] = xi
            return f(*args)

        numeric = finite_diff_grad(f_i, t)
        exact = grads.get(t)
        exact = np.zeros(t.shape) if exact is None else dense_grad(exact)
        worst = max(worst, max_relative_error(numeric, exact))
    return worst
