"""Independent gradient verification via central finite differences.

This is the oracle side of every gradient check in the package: it never
touches the reverse-mode tape or the block stack's pullback, so agreement
between the two is evidence that both are right. :func:`gradient_suite`
lists the checks of the losses and the encoder that ``umrlab grad-check``
and the loss tests run; the encoder's exact gradient is taken as a training
step takes it, through the pullback of the [RET] rows.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import partial

import numpy as np

from .encoder import Encoder, EncoderConfig, embed_raw, embed_taped, parameter_names
from .errors import NumericDomainError
from .losses import (
    DISTILL_VARIANTS,
    TEMPERATURE_MODES,
    cosine_similarity_matrix,
    infonce,
    mac_loss,
    pretraining_loss,
    self_distill,
)
from .prompts import TokenSequence
from .tensor import Tensor, backward, dense_grad, mean, mul

# central-difference step; anything in [1e-6, 1e-4] is sensible at 64-bit
FD_STEP = 1e-5
# magnitude under which a gradient coordinate is central-difference noise
FD_FLOOR = 1e-8


def finite_diff_grad(f: Callable[[Tensor], Tensor], x: Tensor) -> np.ndarray:
    """Central-difference estimate of d f / d x, one coordinate at a time,
    with step ``FD_STEP``. f must be a pure scalar function of x. Each
    evaluation gets a fresh untracked Tensor, so f records no tape node
    unless it closes over a tracked one.
    """
    base = x.data
    out = np.zeros(base.shape)
    flat = out.reshape(-1)
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


def check_gradients(f: Callable[..., Tensor], xs: Sequence[Tensor], exact: Callable | None = None) -> float:
    """Compare the exact gradients of f(*xs) against finite differences of
    f: ``exact(xs)``, or by default a ``backward`` of f at tracked copies of
    xs, zero for an input the tape never reached.

    Returns the worst relative error over all inputs.
    """
    if exact is None:
        tracked = [Tensor(x.data, grad_tracked=True) for x in xs]
        taped = backward(f(*tracked))
        grads = [taped.get(t, np.zeros(t.shape)) for t in tracked]
    else:
        grads = exact(xs)
    worst = 0.0
    for i, (x, g) in enumerate(zip(xs, grads)):

        def f_i(xi: Tensor, _i=i) -> Tensor:
            args = [Tensor(u.data) for u in xs]
            args[_i] = xi
            return f(*args)

        worst = max(worst, max_relative_error(finite_diff_grad(f_i, x), g))
    return worst


_SUITE_ENCODER = EncoderConfig(vocab_size=48, d_model=4, n_heads=2, n_layers=2, max_seq=8, k=2)


def _infonce(q, c):
    return infonce(cosine_similarity_matrix(q, c), 0.2)


def _mac(mode, q, c):
    tags = ["text", "image", "image_text", "text"]
    return mac_loss(cosine_similarity_matrix(q, c), tags, 0.11, 0.3, mode)


def _distill(tq, tc, variant, sq, sc):
    return self_distill(tq, sq, tc, sc, variant, tau=0.8)


def _pretraining(tq, tc, q, c):
    contrastive = infonce(cosine_similarity_matrix(q, c), 0.3)
    return pretraining_loss(contrastive, self_distill(tq, q, tc, c, "mse"), (0.9, 0.1))


def _ret_rows(batch, weights, taped: bool):
    """The suite encoder's [RET] rows of ``batch``; ``taped``, with their pullback."""
    params = {name: w.data for name, w in zip(parameter_names(_SUITE_ENCODER), weights)}
    model = Encoder(_SUITE_ENCODER, params)
    depth = _SUITE_ENCODER.n_layers
    return (embed_taped if taped else embed_raw)(model, batch, depth)


def _encoder_loss(batch, *weights):
    rows = Tensor(_ret_rows(batch, weights, False))
    return mean(mul(rows, rows))


def _encoder_grads(batch, weights):
    """The loss's gradient as a step takes it: a backward to the rows, then their pullback."""
    rows, pullback = _ret_rows(batch, weights, True)
    leaf = Tensor._wrap(rows, True)
    return [dense_grad(g) for g in pullback(backward(mean(mul(leaf, leaf)))[leaf])]


def gradient_suite(seed: int) -> list[tuple]:
    """The gradient checks at one seed, as (name, f, inputs, exact) for
    :func:`check_gradients`, each name ending in ``[seed]``: InfoNCE, the
    MAC loss in each temperature mode, each distill variant and the stage-1
    pretraining mix, checked on the tape (``exact`` None), and the [RET]
    rows of one sequence and of two equal-length ones through one block
    stack, as functions of every weight of a tiny encoder, checked through
    its pullback."""

    def rand(shape, offset):
        return Tensor(np.random.default_rng(seed + offset).normal(size=shape))

    cases = [("infonce", _infonce, [rand((4, 5), 0), rand((4, 5), 10)])]
    for mode in TEMPERATURE_MODES:
        cases.append((f"mac-{mode}", partial(_mac, mode), [rand((4, 5), 0), rand((4, 5), 20)]))
    for variant in DISTILL_VARIANTS:
        teacher = partial(_distill, rand((3, 4), 30), rand((3, 4), 40), variant)
        cases.append((f"distill-{variant}", teacher, [rand((3, 4), 50), rand((3, 4), 60)]))
    mixed = partial(_pretraining, rand((4, 5), 70), rand((4, 5), 80))
    cases.append(("pretraining", mixed, [rand((4, 5), 0), rand((4, 5), 5)]))
    cases = [(name, f, xs, None) for name, f, xs in cases]
    enc = Encoder.init(_SUITE_ENCODER, seed=seed)
    ids = np.random.default_rng(seed).integers(36, 46, size=(2, 3))
    seqs = [TokenSequence(tuple(int(t) for t in row) + (1,)) for row in ids]
    weights = [Tensor(w) for w in enc.params.values()]
    for name, batch in (("encoder", seqs[:1]), ("encoder-batch", seqs)):
        cases.append((name, partial(_encoder_loss, batch), weights, partial(_encoder_grads, batch)))
    return [(f"{name}[{seed}]", *case) for name, *case in cases]
