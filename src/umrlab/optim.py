"""Bias-corrected Adam over one owned parameter store, updated in place.

``OptimizerState.init`` copies the weights it is given, float64 arrays,
once into one flat float64 buffer, in the dict's order (``parameter_shapes``
order for an encoder), with the flat first and second moments beside it.
``state.params`` maps each name to a read-only view of its slice of that
buffer, and ``m`` and ``v`` to its slices of the moments. The arrays passed
to ``init`` are never written.

A step, :func:`adam_update`, writes the buffer, the moments, ``live`` and
``step`` in place and returns the state's own views, the same arrays at
every step: the next step changes them, and every encoder built on them, in
place. Params that are not the state's own views but carry its names and
shapes are first copied into the buffer, and are never written; that
happens on the first step of every stage. A step checks every name and
shape before it writes anything, and the whole buffer for a non-finite
weight or second moment after it writes. After a step raises, the state
and every view it returned are spent.

A run of consecutive parameters with dense gradients takes one call of the
formula over its slice of the buffer. A table whose gradient is a
:class:`~umrlab.tensor.RowGrad` moves only its live rows: the rows any
gradient so far has held, kept sorted in ``OptimizerState.live``. They start
empty and only grow; a ``RowGrad`` adds its rows and a dense gradient makes
every row live. Every other row is a fixed point of the formula: its m and
v are still +0.0 and its gradient is 0, so m' = v' = +0.0, the update is
lr*0.0/(sqrt(0.0) + eps) = +0.0 and p - 0.0 keeps p's bytes, -0.0 included.
This holds for finite lr >= 0, betas in [0, 1) and eps > 0, which ``init``
checks. So skipping those rows gives the bytes of a step over every row, at
less cost while the live rows are a small share of a table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericDomainError
from .tensor import RowGrad, row_union


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
    # the store: every weight, m and v flat, in ``params`` order, and one
    # read-only array view of each parameter's slice of the weights
    weights: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)
    flat_m: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)
    flat_v: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)
    params: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    # each parameter's [start, stop) in the flat buffers
    spans: dict[str, tuple[int, int]] = field(default_factory=dict, repr=False)

    @classmethod
    def init(cls, params: dict[str, np.ndarray], lr: float, beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "OptimizerState":
        if not (math.isfinite(lr) and lr >= 0):
            raise ConfigurationError(f"Adam lr must be finite and >= 0, got {lr}")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ConfigurationError(f"Adam betas must lie in [0, 1), got {beta1} and {beta2}")
        if not (math.isfinite(eps) and eps > 0):
            raise ConfigurationError(f"Adam eps must be finite and > 0, got {eps}")
        spans, size = {}, 0
        for name, p in params.items():
            spans[name] = (size, size + p.size)
            size += p.size
        state = cls(
            lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0, weights=np.empty(size),
            flat_m=np.zeros(size), flat_v=np.zeros(size), spans=spans,
        )
        for name, p in params.items():
            a, b = spans[name]
            weights = state.weights[a:b].reshape(p.shape)
            weights[...] = p
            weights.flags.writeable = False
            state.m[name] = state.flat_m[a:b].reshape(p.shape)
            state.v[name] = state.flat_v[a:b].reshape(p.shape)
            state.live[name] = np.empty(0, dtype=np.int64)
            state.params[name] = weights
        return state


def _check(params: dict[str, np.ndarray], grads: dict[str, np.ndarray | RowGrad],
           state: OptimizerState) -> None:
    """Refuse params or gradients whose names or shapes differ from the store's."""
    if set(params) != set(state.params):
        stray = set(params) ^ set(state.params)
        raise DimensionError(f"parameter keys do not match the optimizer state: {sorted(stray)}")
    if set(grads) != set(params):
        missing = set(params) ^ set(grads)
        raise DimensionError(f"gradient keys do not match parameters: {sorted(missing)}")
    for name, own in state.params.items():
        p = params[name]
        if p is not own and p.shape != own.shape:
            raise DimensionError(
                f"parameter shape {p.shape} != optimizer state shape {own.shape} for {name!r}"
            )
        if grads[name].shape != own.shape:
            raise DimensionError(
                f"gradient shape {grads[name].shape} != parameter shape {own.shape} for {name!r}"
            )


def _formula(m: np.ndarray, v: np.ndarray, g: np.ndarray, state: OptimizerState,
             bc1: float, bc2: float) -> np.ndarray:
    """Adam's formula on matching m, v and g: writes m' and v' into ``m``
    and ``v`` and returns lr*(m'/bc1)/(sqrt(v'/bc2) + eps), what p' takes
    from p, in ``g``'s buffer, which it spends as scratch. It runs the
    operations of :func:`adam_update`'s formula in their order, up to the
    operands of a product swapped, each into a buffer it already holds.
    numpy's invalid-value and overflow warnings are off: an infinite
    gradient entry turns its weight into NaN, inf/inf, and a finite one
    whose square overflows turns its v into inf, which would freeze the
    weight (m/inf = 0); the step's finiteness check names either."""
    with np.errstate(invalid="ignore", over="ignore"):
        scratch = np.multiply(g, 1.0 - state.beta1)
        m *= state.beta1
        m += scratch
        np.multiply(g, g, out=g)
        g *= 1.0 - state.beta2
        v *= state.beta2
        v += g
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += state.eps
        np.divide(m, bc1, out=g)
        g *= state.lr
        g /= scratch
    return g


def _dense_run(names: list[str], grads: dict[str, np.ndarray], state: OptimizerState,
               bc1: float, bc2: float) -> None:
    """One formula call over the consecutive slice that ``names`` cover."""
    if not names:
        return
    a, b = state.spans[names[0]][0], state.spans[names[-1]][1]
    g = np.concatenate([grads[name] for name in names], axis=None)
    state.weights[a:b] -= _formula(state.flat_m[a:b], state.flat_v[a:b], g, state, bc1, bc2)
    for name in names:
        rows = state.params[name].shape[0]
        if state.live[name].size != rows:
            state.live[name] = np.arange(rows)


def _table_rows(name: str, g: RowGrad, state: OptimizerState, bc1: float, bc2: float) -> None:
    """The formula on the live rows of one table."""
    live = state.live[name]
    if live.size < g.shape[0]:  # once every row is live, the union is all of them
        live = row_union(live, g.ids)
    g_live = np.zeros((live.size,) + g.shape[1:])
    g_live[np.searchsorted(live, g.ids)] = g.rows
    a, b = state.spans[name]
    weights = state.weights[a:b].reshape(g.shape)
    if live.size == g.shape[0]:
        # every row moves: the formula works on the views themselves
        weights -= _formula(state.m[name], state.v[name], g_live, state, bc1, bc2)
    else:
        m, v = state.m[name][live], state.v[name][live]
        step = _formula(m, v, g_live, state, bc1, bc2)
        state.m[name][live], state.v[name][live] = m, v
        weights[live] -= step
    state.live[name] = live


def adam_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray | RowGrad],
    state: OptimizerState,
) -> tuple[dict[str, np.ndarray], OptimizerState]:
    """One Adam step on ``state``'s store, in place; returns (the state's own
    parameter views, ``state``).

    On each live row, m' = beta1*m + (1 - beta1)*g, v' = beta2*v +
    (1 - beta2)*(g*g) and p' = p - lr*(m'/bc1)/(sqrt(v'/bc2) + eps), in
    that operation order. Raises DimensionError, before writing anything,
    for params or gradients whose names or shapes are not the store's, and
    NumericDomainError naming the first parameter whose weight or second
    moment is non-finite after the update, as one is after an infinite or
    NaN gradient entry or one whose square overflows."""
    _check(params, grads, state)
    for name, p in params.items():
        own = state.params[name]
        if p is not own:
            a, b = state.spans[name]
            state.weights[a:b].reshape(own.shape)[...] = p
    t = state.step + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    run: list[str] = []
    for name in state.params:
        g = grads[name]
        if isinstance(g, RowGrad):
            _dense_run(run, grads, state, bc1, bc2)
            run = []
            _table_rows(name, g, state, bc1, bc2)
        else:
            run.append(name)
    _dense_run(run, grads, state, bc1, bc2)
    state.step = t
    # v is never negative, so its max is below inf exactly when every entry
    # is finite; a max is one pass with no mask
    finite = np.isfinite(state.weights)
    if not (finite.all() and state.flat_v.max(initial=0.0) < np.inf):
        for name, (a, b) in state.spans.items():
            if not (finite[a:b].all() and state.flat_v[a:b].max(initial=0.0) < np.inf):
                raise NumericDomainError(
                    f"parameter {name!r} or its second moment is non-finite after the update"
                )
    return dict(state.params), state
