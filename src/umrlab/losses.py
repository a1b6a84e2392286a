"""Training objectives and their schedules.

The contrastive losses act on a G x G cosine similarity matrix whose
diagonal holds the positives (query i's target is candidate i). The
modality-adaptive variant divides each score by a per-pair temperature:
pairs whose target-candidate modalities match (the harder, intra-modality
negatives) get a decaying hard temperature, all other pairs keep the base
temperature. With both temperatures equal every variant collapses to plain
InfoNCE, bitwise.
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
from .tensor import Tensor

TEMPERATURE_MODES = ("mac", "reverse", "off")
ALPHA_MODES = ("fixed", "dynamic", "reverse")
DISTILL_VARIANTS = ("mse", "cosine", "kl")

@dataclass(frozen=True)
class TemperatureSchedule:
    """Base temperature, decay sparsity for the hard group, and mode."""

    tau0: float = 0.05
    lam: float = 0.2
    mode: str = "mac"

    def __post_init__(self):
        if self.tau0 <= 0:
            raise ContractError(f"tau0 must be positive, got {self.tau0}")
        if self.lam < 0:
            raise ContractError(f"decay sparsity must be >= 0, got {self.lam}")
        if self.mode not in TEMPERATURE_MODES:
            raise ContractError(f"mode must be one of {TEMPERATURE_MODES}, got {self.mode!r}")


def tau_hard_at(schedule: TemperatureSchedule, progress: float) -> float:
    """Hard-group temperature tau0 * exp(-lam * progress), rounded to three
    decimals half-away-from-zero. Progress is epoch-granular in [0, 1]."""
    if not 0.0 <= progress <= 1.0:
        raise ContractError(f"progress {progress} outside [0, 1]")
    raw = schedule.tau0 * math.exp(-schedule.lam * progress)
    return float(Decimal(raw).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class AlphaSchedule:
    """Weights (contrastive, distill) at progress 0 and 1; both sum to 1."""

    mode: str = "fixed"
    start: tuple[float, float] = (0.9, 0.1)
    end: tuple[float, float] = (0.9, 0.1)

    def __post_init__(self):
        if self.mode not in ALPHA_MODES:
            raise ContractError(f"mode must be one of {ALPHA_MODES}, got {self.mode!r}")
        for pair in (self.start, self.end):
            if min(pair) < 0 or abs(sum(pair) - 1.0) > 1e-12:
                raise ContractError(f"alpha pair {pair} must be non-negative and sum to 1")

    @classmethod
    def of(cls, mode: str) -> "AlphaSchedule":
        if mode == "fixed":
            return cls("fixed", (0.9, 0.1), (0.9, 0.1))
        if mode == "dynamic":
            return cls("dynamic", (0.5, 0.5), (0.9, 0.1))
        if mode == "reverse":
            return cls("reverse", (0.5, 0.5), (0.1, 0.9))
        raise ContractError(f"mode must be one of {ALPHA_MODES}, got {mode!r}")


def alpha_at(schedule: AlphaSchedule, progress: float) -> tuple[float, float]:
    if not 0.0 <= progress <= 1.0:
        raise ContractError(f"progress {progress} outside [0, 1]")
    if schedule.mode == "fixed":
        a1 = schedule.start[0]
    else:
        a1 = schedule.start[0] + progress * (schedule.end[0] - schedule.start[0])
    # the pair must sum to 1 exactly at every progress
    return a1, 1.0 - a1


def cosine_similarity_matrix(queries: Tensor, candidates: Tensor) -> Tensor:
    """Row-normalize both sides, then all-pairs inner products."""
    if queries.shape != candidates.shape:
        raise DimensionError(
            f"query/candidate shapes disagree: {queries.shape} vs {candidates.shape}"
        )
    qn = T.l2_normalize_rows(queries)
    cn = T.l2_normalize_rows(candidates)
    return T.matmul(qn, T.transpose(cn))


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
    scores = T.mul(similarity, T.constant(1.0 / temps))
    return T.cross_entropy_rows(scores, np.eye(similarity.shape[0]))


def infonce(similarity: Tensor, tau: float) -> Tensor:
    """Mean over rows of -log softmax(S/tau) at the diagonal. One direction
    only (query -> candidate); no symmetric term."""
    g = _check_square(similarity)
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
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
    if tau_hard <= 0 or tau_norm <= 0:
        raise ContractError(f"temperatures must be positive, got {tau_hard}, {tau_norm}")
    if mode not in TEMPERATURE_MODES:
        raise ContractError(f"mode must be one of {TEMPERATURE_MODES}, got {mode!r}")
    if mode == "off":
        temps = np.full((g, g), float(tau_norm))
    else:
        hard, norm = (tau_hard, tau_norm) if mode == "mac" else (tau_norm, tau_hard)
        temps = np.where(modality_partition(tags), float(hard), float(norm))
    return _diag_target_loss(similarity, temps)


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
    temperature tau, mean over rows. Teacher inputs are detached; no
    gradient ever reaches them.
    """
    if variant not in DISTILL_VARIANTS:
        raise ContractError(f"variant must be one of {DISTILL_VARIANTS}, got {variant!r}")
    shapes = {teacher_q.shape, student_q.shape, teacher_c.shape, student_c.shape}
    if len(shapes) != 1:
        raise DimensionError(f"embedding shapes disagree: {sorted(shapes)}")
    tq, tc = teacher_q.detach(), teacher_c.detach()
    if variant == "mse":
        dq = T.sub(tq, student_q)
        dc = T.sub(tc, student_c)
        return T.add(
            T.mean_vec(T.sum_rows(T.mul(dq, dq))),
            T.mean_vec(T.sum_rows(T.mul(dc, dc))),
        )
    if variant == "cosine":
        cos_q = T.sum_rows(T.mul(T.l2_normalize_rows(tq), T.l2_normalize_rows(student_q)))
        cos_c = T.sum_rows(T.mul(T.l2_normalize_rows(tc), T.l2_normalize_rows(student_c)))
        got = T.add(T.mean_vec(cos_q), T.mean_vec(cos_c))
        return T.add_scalar(T.scale(got, -1.0), 2.0)
    # kl: distill similarity scores
    if tau <= 0:
        raise ContractError(f"kl temperature must be positive, got {tau}")
    with T.no_grad():
        teacher_sim = cosine_similarity_matrix(tq, tc)
        teacher_probs = T.softmax_rows(T.scale(teacher_sim, 1.0 / tau)).data
    student_scores = T.scale(cosine_similarity_matrix(student_q, student_c), 1.0 / tau)
    cross = T.cross_entropy_rows(student_scores, teacher_probs)
    entropy = float(-(teacher_probs * np.log(teacher_probs)).sum(axis=1).mean())
    return T.add_scalar(cross, -entropy)


def pretraining_loss(contrastive: Tensor, distill: Tensor, alphas: tuple[float, float]) -> Tensor:
    """alpha1 * contrastive + alpha2 * distill."""
    a1, a2 = alphas
    if a1 < 0 or a2 < 0:
        raise ContractError(f"alpha weights must be non-negative, got {alphas}")
    return T.add(T.scale(contrastive, a1), T.scale(distill, a2))
