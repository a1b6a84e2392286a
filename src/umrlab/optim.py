"""Bias-corrected Adam over named parameter dicts, fully functional.

Updates never mutate: each step returns fresh parameter tensors and a fresh
state, which keeps old weight versions (teachers, checkpoints) intact and
makes runs bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .tensor import Tensor


@dataclass
class OptimizerState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @classmethod
    def init(cls, params: dict[str, Tensor], lr: float, beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "OptimizerState":
        return cls(
            lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0,
            m={n: np.zeros(p.shape) for n, p in params.items()},
            v={n: np.zeros(p.shape) for n, p in params.items()},
        )


def adam_update(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
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
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(
                f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}"
            )
        m = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        new_params[name] = Tensor._wrap(p.data - update, p.grad_tracked)
        new_m[name] = m
        new_v[name] = v
    return new_params, OptimizerState(
        lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps,
        step=t, m=new_m, v=new_v,
    )
