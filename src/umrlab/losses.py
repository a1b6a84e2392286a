"""Training objectives and their schedules.

The contrastive losses act on a G x G cosine similarity matrix whose
diagonal holds the positives (query i's target is candidate i). The
modality-adaptive variant divides each score by a per-pair temperature:
pairs whose target-candidate modalities match (the harder, intra-modality
negatives) get a decaying hard temperature, all other pairs keep the base
temperature. With both temperatures equal every variant collapses to plain
InfoNCE, bitwise.

Stage 1 weighs contrastive against self-distillation by one of three
named alpha schedules (:data:`ALPHA_PRESETS`), each a straight line in
training progress between two preset end points.

Each objective computes its value on arrays and records one tape node
(:func:`~umrlab.tensor._result`) with a hand-written vjp. Three array
helpers carry the arithmetic, each with its vjp: unit rows, the cosine
matrix and the stable row cross-entropy. A vjp takes the per-op derivative
it replaced in that tape's order of operations, so values and gradients
keep its bytes; ``tests/per_op_reference.py`` keeps the per-op tape as the
reference. A temperature must be finite and > 0, an alpha finite and >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from collections.abc import Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .tasks import MODALITIES
from .tensor import NORM_EPS, Tensor

TEMPERATURE_MODES = ("mac", "reverse", "off")
DISTILL_VARIANTS = ("mse", "cosine", "kl")
# alpha1 (the contrastive weight) at progress 0 and 1 for each stage-1
# schedule; alpha2 = 1 - alpha1 is the self-distillation weight
ALPHA_PRESETS = {"fixed": (0.9, 0.9), "dynamic": (0.5, 0.9), "reverse": (0.5, 0.1)}
ALPHA_MODES = tuple(ALPHA_PRESETS)


@dataclass(frozen=True)
class TemperatureSchedule:
    """Base temperature, decay sparsity for the hard group, and mode."""

    tau0: float = 0.05
    lam: float = 0.2
    mode: str = "mac"

    def __post_init__(self):
        if not (math.isfinite(self.tau0) and self.tau0 > 0):
            raise ContractError(f"tau0 must be finite and positive, got {self.tau0}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ContractError(f"decay sparsity lam must be finite and >= 0, got {self.lam}")
        if self.mode not in TEMPERATURE_MODES:
            raise ContractError(f"mode must be one of {TEMPERATURE_MODES}, got {self.mode!r}")


def tau_hard_at(schedule: TemperatureSchedule, progress: float) -> float:
    """Hard-group temperature tau0 * exp(-lam * progress), rounded to three
    decimals half-away-from-zero. Progress is epoch-granular in [0, 1]."""
    if not 0.0 <= progress <= 1.0:
        raise ContractError(f"progress {progress} outside [0, 1]")
    raw = schedule.tau0 * math.exp(-schedule.lam * progress)
    return float(Decimal(raw).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def alpha_at(mode: str, progress: float) -> tuple[float, float]:
    """(alpha1, alpha2) of the named schedule at ``progress``: alpha1 moves
    linearly between the preset's end points and the pair sums to 1."""
    if mode not in ALPHA_PRESETS:
        raise ContractError(f"alpha mode must be one of {ALPHA_MODES}, got {mode!r}")
    if not 0.0 <= progress <= 1.0:
        raise ContractError(f"progress {progress} outside [0, 1]")
    start, end = ALPHA_PRESETS[mode]
    a1 = start + progress * (end - start)
    return a1, 1.0 - a1


def _unit_rows(x: np.ndarray):
    """Each row of x scaled to unit norm, a row with norm < NORM_EPS by
    1/NORM_EPS, and the vjp of that scaling."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    denom = np.maximum(norms, NORM_EPS)
    out = x / denom

    def vjp(dy):
        inner = (dy * out).sum(axis=1, keepdims=True)
        return np.where(norms < NORM_EPS, dy / NORM_EPS, (dy - out * inner) / denom)

    return out, vjp


def _cosine(q: np.ndarray, c: np.ndarray):
    """The cosine matrix of the rows of q and c, and its vjp, which returns
    the gradients of q and c."""
    qn, q_vjp = _unit_rows(q)
    cn, c_vjp = _unit_rows(c)
    ct = cn.T

    def vjp(ds):
        return q_vjp(ds @ ct.T), c_vjp((qn.T @ ds).T)

    return qn @ ct, vjp


def _cross_entropy(scores: np.ndarray, p: np.ndarray):
    """Mean over rows of the cross-entropy of softmax(scores) against the
    row-stochastic constant p, through a stable log-softmax, and its vjp."""
    row_max = scores.max(axis=1, keepdims=True)
    lse = np.log(np.exp(scores - row_max).sum(axis=1, keepdims=True)) + row_max
    loss = float((lse[:, 0] - (p * scores).sum(axis=1)).mean())
    softmax = np.exp(scores - lse)

    def vjp(dy):
        return float(dy) * (softmax - p) / scores.shape[0]

    return loss, vjp


def _require_rows(*xs: Tensor) -> None:
    shapes = {x.shape for x in xs}
    if len(shapes) != 1:
        raise DimensionError(f"embedding shapes disagree: {sorted(shapes)}")
    if xs[0].ndim != 2:
        raise DimensionError(f"embeddings must be 2-D, got shape {xs[0].shape}")


def _check_temperature(*taus: float) -> None:
    for tau in taus:
        if not (math.isfinite(tau) and tau > 0):
            raise ContractError(f"temperature must be finite and positive, got {tau}")


def cosine_similarity_matrix(queries: Tensor, candidates: Tensor) -> Tensor:
    """Row-normalize both sides, then all-pairs inner products."""
    _require_rows(queries, candidates)
    similarity, vjp = _cosine(queries.data, candidates.data)
    return T._result(similarity, (queries, candidates), vjp)


def modality_partition(tags: Sequence[str]) -> np.ndarray:
    """Boolean G x G matrix: entry (i, j) is True when tags match."""
    for t in tags:
        if t not in MODALITIES:
            raise ContractError(f"unknown modality tag {t!r}")
    codes = np.array([MODALITIES.index(t) for t in tags])
    return codes[None, :] == codes[:, None]


def _check_square(s: Tensor) -> int:
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError(f"similarity matrix must be square, got {s.shape}")
    return s.shape[0]


def _diag_target_loss(similarity: Tensor, temps: np.ndarray) -> Tensor:
    inv = 1.0 / temps
    loss, vjp = _cross_entropy(similarity.data * inv, np.eye(similarity.shape[0]))
    return T._result(np.asarray(loss), (similarity,), lambda dy: (vjp(dy) * inv,))


def infonce(similarity: Tensor, tau: float) -> Tensor:
    """Mean over rows of -log softmax(S/tau) at the diagonal. One direction
    only (query -> candidate); no symmetric term."""
    g = _check_square(similarity)
    _check_temperature(tau)
    return _diag_target_loss(similarity, np.full((g, g), float(tau)))


def mac_loss(
    similarity: Tensor,
    tags: Sequence[str],
    tau_hard: float,
    tau_norm: float,
    mode: str = "mac",
) -> Tensor:
    """Cross-entropy against the diagonal under a per-pair temperature matrix.

    mode "mac": intra-modality pairs (including the diagonal positive) are
    divided by tau_hard, inter-modality pairs by tau_norm. mode "reverse"
    swaps the two groups; mode "off" uses tau_norm everywhere.
    """
    g = _check_square(similarity)
    if len(tags) != g:
        raise DimensionError(f"{len(tags)} tags for a {g}x{g} similarity matrix")
    _check_temperature(tau_hard, tau_norm)
    if mode not in TEMPERATURE_MODES:
        raise ContractError(f"mode must be one of {TEMPERATURE_MODES}, got {mode!r}")
    if mode == "off":
        temps = np.full((g, g), float(tau_norm))
    else:
        hard, norm = (tau_hard, tau_norm) if mode == "mac" else (tau_norm, tau_hard)
        temps = np.where(modality_partition(tags), float(hard), float(norm))
    return _diag_target_loss(similarity, temps)


def _distill_side(t: np.ndarray, s: np.ndarray, variant: str):
    """One side's mean over rows of |t - s|^2 (mse) or of cos(t, s)
    (cosine), and its vjp, the gradient of s."""
    if variant == "mse":
        d = t - s
        rows, rows_vjp = d * d, lambda g: -(g * d + g * d)
    else:
        tn = _unit_rows(t)[0]
        sn, s_vjp = _unit_rows(s)
        rows, rows_vjp = tn * sn, lambda g: s_vjp(g * tn)

    def vjp(dy):
        # the mean's vjp, then the row sum's
        g = np.full(rows.shape[0], float(dy) / rows.shape[0])
        return rows_vjp(np.repeat(g[:, None], rows.shape[1], axis=1))

    return np.asarray(rows.sum(axis=1).mean()), vjp


def _distill(tq, sq, tc, sc, variant: str, tau: float):
    """A distill variant's value of arrays and its vjp, which returns the
    gradients of the student rows sq and sc."""
    if variant != "kl":
        (mq, q_vjp), (mc, c_vjp) = _distill_side(tq, sq, variant), _distill_side(tc, sc, variant)
        if variant == "mse":
            return mq + mc, lambda dy: (q_vjp(dy), c_vjp(dy))
        return (mq + mc) * -1.0 + 2.0, lambda dy: (q_vjp(dy * -1.0), c_vjp(dy * -1.0))
    inv = float(1.0 / tau)
    teacher_probs = T.softmax_rows(_cosine(tq, tc)[0] * inv)
    similarity, sim_vjp = _cosine(sq, sc)
    cross, ce_vjp = _cross_entropy(similarity * inv, teacher_probs)
    # a probability that underflowed to 0 adds 0 * log 0 = 0, not 0 * -inf
    logs = np.log(teacher_probs, out=np.zeros_like(teacher_probs), where=teacher_probs > 0)
    entropy = float(-(teacher_probs * logs).sum(axis=1).mean())
    return np.asarray(cross) + -entropy, lambda dy: sim_vjp(ce_vjp(dy) * inv)


def self_distill(
    teacher_q: Tensor,
    student_q: Tensor,
    teacher_c: Tensor,
    student_c: Tensor,
    variant: str = "mse",
    tau: float = 1.0,
) -> Tensor:
    """Feature distillation between teacher and student retrieval states.

    mse: batch mean of squared L2 distances, summed over dimensions, for the
    query and candidate sides. cosine: batch mean of (1 - cos) per side.
    kl: KL(teacher || student) between row-softmaxed similarity matrices at
    temperature tau, mean over rows. The teacher rows are constants: no
    gradient ever reaches them.
    """
    if variant not in DISTILL_VARIANTS:
        raise ContractError(f"variant must be one of {DISTILL_VARIANTS}, got {variant!r}")
    _require_rows(teacher_q, student_q, teacher_c, student_c)
    if variant == "kl":
        _check_temperature(tau)
    value, vjp = _distill(teacher_q.data, student_q.data, teacher_c.data, student_c.data, variant, tau)
    return T._result(np.asarray(value), (student_q, student_c), vjp)


def pretraining_loss(contrastive: Tensor, distill: Tensor, alphas: tuple[float, float]) -> Tensor:
    """alpha1 * contrastive + alpha2 * distill."""
    a1, a2 = (float(a) for a in alphas)
    if not all(math.isfinite(a) and a >= 0 for a in (a1, a2)):
        raise ContractError(f"alpha weights must be finite and non-negative, got {alphas}")
    if contrastive.shape != distill.shape:
        raise DimensionError(f"loss shapes disagree: {contrastive.shape} vs {distill.shape}")
    value = contrastive.data * a1 + distill.data * a2
    return T._result(value, (contrastive, distill), lambda dy: (dy * a1, dy * a2))
