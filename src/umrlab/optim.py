"""Bias-corrected Adam over named parameter dicts, fully functional.

Updates never mutate: each step returns fresh parameter tensors and a fresh
state, which keeps old weight versions (teachers, checkpoints) intact and
makes runs bitwise reproducible.

A gradient given as a :class:`~umrlab.tensor.RowGrad` updates only the
parameter's live rows: the rows any gradient so far has held, which
``OptimizerState.live`` keeps, sorted. They start empty and only grow; a
dense gradient makes every row live. Every other row is a fixed point of
the dense formula. Its m and v are still +0.0 and its gradient is 0, so
m' = v' = +0.0, the update is lr*0.0/(sqrt(0.0) + eps) = +0.0 and p - 0.0
keeps p's bytes, -0.0 included. This holds for finite lr >= 0, betas in
[0, 1) and eps > 0, which ``OptimizerState.init`` checks. So the live rows
run the dense formula, in its operation order, and the other rows of p, m
and v are copied: the same bytes as a dense step, at less cost while the
live rows are a small share of the table.
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
    """One Adam step; returns (new params, new state)."""
    if set(grads) != set(params):
        missing = set(params) ^ set(grads)
        raise DimensionError(f"gradient keys do not match parameters: {sorted(missing)}")
    t = state.step + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    new_params: dict[str, Tensor] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    new_live: dict[str, np.ndarray] = {}

    def formula(p, m, v, g):
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        return p - update, m, v

    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(
                f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}"
            )
        live = state.live[name]
        if isinstance(g, RowGrad):
            live = row_union(live, g.ids)
            g_live = np.zeros((live.size,) + p.shape[1:])
            g_live[np.searchsorted(live, g.ids)] = g.rows
            data, m, v = p.data.copy(), state.m[name].copy(), state.v[name].copy()
            data[live], m[live], v[live] = formula(p.data[live], m[live], v[live], g_live)
            new_params[name] = Tensor._wrap(data, p.grad_tracked)
            new_m[name], new_v[name], new_live[name] = m, v, live
            continue
        data, new_m[name], new_v[name] = formula(p.data, state.m[name], state.v[name], g)
        new_params[name] = Tensor._wrap(data, p.grad_tracked)
        new_live[name] = live if live.size == p.shape[0] else np.arange(p.shape[0])
    return new_params, OptimizerState(
        lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps,
        step=t, m=new_m, v=new_v, live=new_live,
    )
