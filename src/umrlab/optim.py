"""Bias-corrected Adam over named parameter dicts, its moments kept in place.

The params passed to ``OptimizerState.init`` or :func:`adam_update` are
never written; each step returns fresh read-only parameter tensors, so old
weight versions (teachers, checkpoints) stay intact. The state owns the m
and v arrays ``init`` allocates; a step writes them, ``live`` and ``step``
in place and returns that state, so after a step raises, its state is spent.

A step moves only a parameter's live rows: the rows any gradient so far has
held, kept sorted in ``OptimizerState.live``. They start empty and only
grow; a :class:`~umrlab.tensor.RowGrad` adds its rows and a dense gradient
makes every row live. Every other row is a fixed point of the formula: its
m and v are still +0.0 and its gradient is 0, so m' = v' = +0.0, the update
is lr*0.0/(sqrt(0.0) + eps) = +0.0 and p - 0.0 keeps p's bytes, -0.0
included. This holds for finite lr >= 0, betas in [0, 1) and eps > 0, which
``init`` checks. So skipping those rows gives the bytes of a step over
every row, at less cost while the live rows are a small share of a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError
from .tensor import RowGrad, Tensor, row_union


@dataclass
class OptimizerState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    # sorted ids of the rows whose m and v may be non-zero
    live: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @classmethod
    def init(cls, params: dict[str, Tensor], lr: float, beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "OptimizerState":
        if not (math.isfinite(lr) and lr >= 0):
            raise ConfigurationError(f"Adam lr must be finite and >= 0, got {lr}")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ConfigurationError(f"Adam betas must lie in [0, 1), got {beta1} and {beta2}")
        if not (math.isfinite(eps) and eps > 0):
            raise ConfigurationError(f"Adam eps must be finite and > 0, got {eps}")
        return cls(
            lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0,
            m={n: np.zeros(p.shape) for n, p in params.items()},
            v={n: np.zeros(p.shape) for n, p in params.items()},
            live={n: np.empty(0, dtype=np.int64) for n in params},
        )


def adam_update(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray | RowGrad],
    state: OptimizerState,
) -> tuple[dict[str, Tensor], OptimizerState]:
    """One Adam step; returns (new params, ``state`` updated in place).

    On each live row, m' = beta1*m + (1 - beta1)*g, v' = beta2*v +
    (1 - beta2)*(g*g) and p' = p - lr*(m'/bc1)/(sqrt(v'/bc2) + eps), in
    place and in that operation order."""
    if set(grads) != set(params):
        missing = set(params) ^ set(grads)
        raise DimensionError(f"gradient keys do not match parameters: {sorted(missing)}")
    t = state.step + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    new_params: dict[str, Tensor] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(
                f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}"
            )
        if isinstance(g, RowGrad):
            live = row_union(state.live[name], g.ids)
            g_live = np.zeros((live.size,) + p.shape[1:])
            g_live[np.searchsorted(live, g.ids)] = g.rows
        else:
            live, g_live = np.arange(p.shape[0]), g
        # a basic slice when every row moves, so m and v are views
        rows = slice(None) if live.size == p.shape[0] else live
        m, v = state.m[name][rows], state.v[name][rows]
        m *= state.beta1
        m += (1.0 - state.beta1) * g_live
        v *= state.beta2
        v += (1.0 - state.beta2) * (g_live * g_live)
        state.m[name][rows], state.v[name][rows] = m, v
        denom = np.sqrt(v / bc2)
        denom += state.eps
        data = p.data.copy()
        data[rows] -= state.lr * (m / bc1) / denom
        new_params[name] = Tensor._wrap(data, p.grad_tracked)
        state.live[name] = live
    state.step = t
    return new_params, state
