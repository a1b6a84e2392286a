"""Two-stage training pipeline with simulated data-parallel shards.

Stage 0 bootstraps a full-depth teacher with plain InfoNCE on text->text
pairs. Stage 1 prunes the teacher to its first k layers and trains the
student with InfoNCE plus self-distillation against the frozen teacher's
last-layer retrieval states, weighted by the alpha schedule that
``TrainConfig.alpha_mode`` names (:data:`~umrlab.losses.ALPHA_PRESETS`).
The distill term reads the [RET] rows as they come: ``cosine`` and ``kl``
normalize each row themselves, and ``mse`` of unit rows would be twice the
``cosine`` term, so no setting normalizes them first.
Stage 2 instruction-tunes on the mixed-task corpus under the
modality-adaptive loss.

Sharding is simulated in-process but honest about the math: negatives
span the global batch, and each shard owns its slice of it. A step decides
its objective once: the temperature and alpha weights (:func:`_schedule`,
which the loss curve also reads) and, at stage 1, the teacher rows. It
embeds the whole global batch as one batch, every query and then every
positive, in batch order, which is shard order, with one taped block-stack
forward per prompt length (:func:`~umrlab.encoder.embed_taped`), and
gathers each shard's rows of it. Each shard then evaluates that one loss of
the gathered rows, backpropagates it to them, and keeps its own rows of
that gradient. The shards' rows are gathered in shard order, queries then
positives, and one pullback through the block stack turns them into the
step's gradients. So the block stack's backward runs once per prompt
length whatever the shard count: as in GradCache (arXiv 2101.06983), the
representation gradients come first and one backward through the encoder
follows. The forward, the loss, its gradient and the pullback see the same
rows in the same order at every shard count, so a step's bytes do not
depend on it. A shard's tape holds its loss only: the gathered rows are its
two tracked leaves.
The embedding tables' gradients stay rows from the pullback to Adam, which
updates only the rows a gradient has held (:mod:`~umrlab.optim`); every
step has the bytes of the dense one. Adam owns a stage's weights in one
flat store that it updates in place, so the encoder each step returns is a
view of that store, which the stage's next step changes; the encoder a
stage starts from is never written.

Stage 1's frozen teacher embeds the batch's cache misses from both sides in
one tape-free call (:func:`~umrlab.encoder.embed_raw`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Sequence
from typing import ClassVar

import numpy as np

from . import tensor as T
from .datagen import Corpus, Sample, Candidate
# embed is unused here; the benchmark tracer wraps trainer.embed as a call site
from .encoder import Encoder, EncoderConfig, embed_raw, embed_raw as embed, embed_taped, prune
from .errors import AggregationError, ConfigurationError, ContractError, NumericDomainError
from .losses import (
    ALPHA_MODES,
    TemperatureSchedule,
    alpha_at,
    cosine_similarity_matrix,
    infonce,
    mac_loss,
    pretraining_loss,
    self_distill,
    tau_hard_at,
)
from .optim import OptimizerState, adam_update
from .prompts import assemble_prompt
from .tensor import RowGrad, Tensor

STAGES = (0, 1, 2)


@dataclass(frozen=True)
class TrainConfig:
    stage: int
    encoder: EncoderConfig
    shards: int = 1
    per_shard_batch: int = 8
    epochs: int = 1
    lr: float = 1e-3
    seed: int = 0
    temperature: TemperatureSchedule = field(default_factory=TemperatureSchedule)
    alpha_mode: str = "fixed"
    distill_variant: str = "mse"
    distill_tau: float = 1.0
    k: int = 3
    steps_per_epoch: int | None = None
    # Adam's moment decays and epsilon: constants, not settings
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ConfigurationError(f"stage must be one of {STAGES}, got {self.stage}")
        if self.shards < 1 or self.per_shard_batch < 1:
            raise ConfigurationError("shards and per-shard batch must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if self.steps_per_epoch is not None and self.steps_per_epoch < 1:
            raise ConfigurationError(f"steps per epoch must be >= 1, got {self.steps_per_epoch}")
        if not math.isfinite(self.lr) or self.lr < 0:
            raise ConfigurationError(f"lr must be finite and >= 0, got {self.lr}")
        if not 1 <= self.k <= self.encoder.n_layers:
            raise ConfigurationError(
                f"prune depth {self.k} outside 1..{self.encoder.n_layers}"
            )
        if not (math.isfinite(self.distill_tau) and self.distill_tau > 0):
            raise ConfigurationError(
                f"distill_tau must be finite and positive, got {self.distill_tau}"
            )
        if self.alpha_mode not in ALPHA_MODES:
            raise ConfigurationError(
                f"alpha mode must be one of {ALPHA_MODES}, got {self.alpha_mode!r}"
            )
        # the hard temperature only falls: the last epoch reads the least one
        last = self.epochs - 1
        if self.stage == 2 and last >= 0 and tau_hard_at(self.temperature, last / self.epochs) == 0.0:
            raise ConfigurationError(
                f"tau0 {self.temperature.tau0} and lambda {self.temperature.lam} round the "
                f"hard temperature of epoch {last} of {self.epochs} to 0.0"
            )

    @property
    def global_batch(self) -> int:
        return self.shards * self.per_shard_batch


@dataclass(frozen=True)
class GlobalBatch:
    """One contrastive step: aligned queries and their positive candidates."""

    samples: tuple[Sample, ...]
    positives: tuple[Candidate, ...]

    def __post_init__(self):
        if len(self.samples) != len(self.positives):
            raise ContractError("queries and positives must align one-to-one")

    @property
    def tags(self) -> list[str]:
        return [c.modality for c in self.positives]

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class CurveRow:
    stage: int
    epoch: int
    contrastive: float
    distill: float
    total: float
    tau_hard: float
    alpha1: float
    alpha2: float


@dataclass
class StageResult:
    encoder: Encoder
    optimizer: OptimizerState
    curve: list[CurveRow]


def batch_from(corpus: Corpus, samples: Sequence[Sample]) -> GlobalBatch:
    return GlobalBatch(
        samples=tuple(samples),
        positives=tuple(corpus.candidate_by_id(s.gold) for s in samples),
    )


def gather_shards(locals_: Sequence[np.ndarray | None]) -> np.ndarray:
    """Concatenate per-shard rows, of embeddings or their gradients, in
    ascending shard-id order."""
    if not locals_:
        raise AggregationError("no shard rows to gather")
    for i, block in enumerate(locals_):
        if block is None:
            raise AggregationError(f"shard {i} missing from gather")
    return np.concatenate(locals_, axis=0)


def all_reduce_grads(
    shard_grads: Sequence[dict[str, np.ndarray | RowGrad]],
) -> dict[str, np.ndarray | RowGrad]:
    """Elementwise sum over shards, in ascending shard-id order: one
    :func:`~umrlab.tensor.sum_grads` per parameter, after every shard's keys
    and shapes are checked against shard 0's. So a parameter whose every
    shard gradient is a :class:`~umrlab.tensor.RowGrad` is summed row by
    row, with the bytes of the dense sum, and any other densely. One
    shard's gradients are returned as they are; otherwise every gradient is
    a fresh one, and no shard's is written into.

    A step does not call it: its one pullback takes every shard's rows at
    once (:func:`compute_global_grads`).
    """
    if not shard_grads:
        raise AggregationError("no shard gradients to reduce")
    keys = list(shard_grads[0])
    for i, grads in enumerate(shard_grads):
        if list(grads) != keys:
            raise AggregationError(f"shard {i} gradient keys disagree with shard 0")
        for key in keys:
            if grads[key].shape != shard_grads[0][key].shape:
                raise AggregationError(f"shard {i} gradient shape mismatch for {key!r}")
    return {key: T.sum_grads([grads[key] for grads in shard_grads]) for key in keys}


def _teacher_rows(teacher: Encoder, batch: GlobalBatch, cache: dict) -> tuple[Tensor, Tensor]:
    """Full-depth [RET] states of the batch's queries and positives under the
    frozen ``teacher``, as untracked (len(batch), d) Tensors.

    Each (side, id) is looked up in ``cache`` once; the misses of both
    sides are embedded tape-free in one :func:`embed_raw` call and stored,
    each row as its own array so that no entry keeps the rest of the batch
    alive.
    """
    max_seq, depth = teacher.config.max_seq, teacher.config.n_layers
    items = [("query", s) for s in batch.samples] + [("candidate", c) for c in batch.positives]
    n = len(batch)
    keys = [(side, item.id) for side, item in items]
    rows = [cache.get(key) for key in keys]
    missing = {key: pair for key, pair, row in zip(keys, items, rows) if row is None}
    if missing:
        seqs = [assemble_prompt(item, side, max_seq) for side, item in missing.values()]
        fresh = embed_raw(teacher, seqs, depth)
        for i, key in enumerate(missing):
            cache[key] = fresh[i : i + 1].copy()
        rows = [cache[key] if row is None else row for key, row in zip(keys, rows)]
    queries, candidates = np.concatenate(rows[:n], axis=0), np.concatenate(rows[n:], axis=0)
    return Tensor._wrap(queries, False), Tensor._wrap(candidates, False)


def _schedule(config: TrainConfig, progress: float) -> tuple[float, tuple[float, float]]:
    """The hard-negative temperature and the (contrastive, distill) weights
    of the stage's loss at ``progress``.

    Stages 0 and 1 take InfoNCE at tau0; only the MAC loss decays tau_hard.
    Only stage 1 weighs in a distill term.
    """
    tau_hard = tau_hard_at(config.temperature, progress) if config.stage == 2 else config.temperature.tau0
    alphas = alpha_at(config.alpha_mode, progress) if config.stage == 1 else (1.0, 0.0)
    return tau_hard, alphas


def compute_global_grads(
    student: Encoder,
    teacher: Encoder | None,
    batch: GlobalBatch,
    config: TrainConfig,
    progress: float,
    teacher_cache: dict | None = None,
) -> tuple[dict[str, np.ndarray | RowGrad], dict[str, float]]:
    """One forward per prompt length for the global batch, then per shard
    the loss of the gathered rows and a backward to them, then one pullback
    of the shards' rows of that gradient.

    Returns the gradient map and the loss breakdown.
    """
    if config.stage == 1 and teacher is None:
        raise ConfigurationError("stage 1 requires a frozen teacher")
    if config.stage != 1 and teacher is not None:
        raise ConfigurationError(f"stage {config.stage} does not take a teacher")
    if len(batch) != config.global_batch:
        raise ConfigurationError(
            f"batch of {len(batch)} != shards*per_shard_batch = {config.global_batch}"
        )
    max_seq, depth = student.config.max_seq, student.config.n_layers
    prompts = [assemble_prompt(s, "query", max_seq) for s in batch.samples]
    prompts += [assemble_prompt(c, "candidate", max_seq) for c in batch.positives]
    rows, pullback = embed_taped(student, prompts, depth)
    n, g = config.per_shard_batch, len(batch)
    own = [slice(s * n, (s + 1) * n) for s in range(config.shards)]
    q = Tensor._wrap(gather_shards([rows[:g][o] for o in own]), True)
    c = Tensor._wrap(gather_shards([rows[g:][o] for o in own]), True)
    tau_hard, alphas = _schedule(config, progress)
    tau0, tags = config.temperature.tau0, batch.tags
    if config.stage == 1:
        cache = teacher_cache if teacher_cache is not None else {}
        teacher_q, teacher_c = _teacher_rows(teacher, batch, cache)

    def loss(q: Tensor, c: Tensor) -> tuple[Tensor, dict[str, float]]:
        similarity = cosine_similarity_matrix(q, c)
        if config.stage == 2:
            contrastive = mac_loss(similarity, tags, tau_hard, tau0, config.temperature.mode)
        else:
            contrastive = infonce(similarity, tau_hard)
        total, distill = contrastive, 0.0
        if config.stage == 1:
            term = self_distill(
                teacher_q, q, teacher_c, c, variant=config.distill_variant, tau=config.distill_tau
            )
            total, distill = pretraining_loss(contrastive, term, alphas), term.item()
        return total, {"contrastive": contrastive.item(), "distill": distill, "total": total.item()}

    def shard_rows_grad(mine: slice) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
        # the loss's tape dies with this call, before the next shard builds its own
        total, terms = loss(q, c)
        grad_map = T.backward(total)
        return grad_map[q][mine], grad_map[c][mine], terms

    results = [shard_rows_grad(mine) for mine in own]
    dy = gather_shards([dq for dq, _, _ in results] + [dc for _, dc, _ in results])
    return dict(zip(student.params, pullback(dy))), results[0][2]


def train_step(
    student: Encoder,
    teacher: Encoder | None,
    batch: GlobalBatch,
    config: TrainConfig,
    optimizer: OptimizerState,
    progress: float,
    teacher_cache: dict | None = None,
) -> tuple[Encoder, OptimizerState, dict[str, float]]:
    """One global step: gradients via compute_global_grads, then Adam.

    Returns an encoder of ``optimizer``'s parameter views, which its next
    step updates in place (:mod:`~umrlab.optim`). Raises NumericDomainError
    naming the first non-finite loss term, or, from Adam, the first
    non-finite updated parameter, so a diverged step never yields an
    encoder.
    """
    reduced, breakdown = compute_global_grads(
        student, teacher, batch, config, progress, teacher_cache
    )
    for term, value in breakdown.items():
        if not math.isfinite(value):
            raise NumericDomainError(f"{term} loss is {value}")
    new_params, new_state = adam_update(student.params, reduced, optimizer)
    return student.with_params(new_params), new_state, breakdown


def _stage_pool(corpus: Corpus, stage: int) -> list[Sample]:
    if stage in (0, 1):
        pool = [s for s in corpus.train if s.task == "t2t"]
        if not pool:
            raise ConfigurationError("stages 0 and 1 need text->text training pairs")
        return pool
    if not corpus.train:
        raise ConfigurationError("stage 2 needs a non-empty mixed-task training split")
    return list(corpus.train)


def run_stage(
    corpus: Corpus,
    config: TrainConfig,
    teacher: Encoder | None = None,
    encoder: Encoder | None = None,
) -> StageResult:
    """Run one full stage; deterministic in (seed, config, corpus)."""
    if config.stage == 0:
        if encoder is not None:
            raise ConfigurationError("stage 0 initializes its own encoder")
        model = Encoder.init(config.encoder, config.seed)
    elif config.stage == 1:
        if teacher is None:
            raise ConfigurationError("stage 1 requires the stage-0 teacher")
        model = prune(teacher, config.k)
    else:
        if encoder is None:
            raise ConfigurationError("stage 2 continues from an existing encoder")
        model = encoder

    pool = _stage_pool(corpus, config.stage)
    optimizer = OptimizerState.init(
        model.params, config.lr, config.beta1, config.beta2, config.adam_eps
    )
    teacher_cache: dict | None = {} if config.stage == 1 else None
    curve: list[CurveRow] = []
    g = config.global_batch
    for epoch in range(config.epochs):
        progress = epoch / config.epochs
        rng = np.random.default_rng([config.seed, config.stage, epoch])
        order = rng.permutation(len(pool))
        n_steps = len(pool) // g
        if config.steps_per_epoch is not None:
            n_steps = min(n_steps, config.steps_per_epoch)
        if n_steps == 0:
            raise ConfigurationError(
                f"training pool of {len(pool)} cannot fill one batch of {g}"
            )
        sums = {"contrastive": 0.0, "distill": 0.0, "total": 0.0}
        for step in range(n_steps):
            chosen = [pool[i] for i in order[step * g : (step + 1) * g]]
            batch = batch_from(corpus, chosen)
            try:
                model, optimizer, losses = train_step(
                    model, teacher, batch, config, optimizer, progress, teacher_cache
                )
            except NumericDomainError as err:
                raise NumericDomainError(
                    f"stage {config.stage}, epoch {epoch}, step {step}: {err}"
                ) from None
            for key in sums:
                sums[key] += losses[key]
        tau_hard, alphas = _schedule(config, progress)
        curve.append(
            CurveRow(
                stage=config.stage,
                epoch=epoch,
                contrastive=sums["contrastive"] / n_steps,
                distill=sums["distill"] / n_steps,
                total=sums["total"] / n_steps,
                tau_hard=tau_hard,
                alpha1=alphas[0],
                alpha2=alphas[1],
            )
        )
    return StageResult(encoder=model, optimizer=optimizer, curve=curve)


def write_curve(path: str | Path, rows: Sequence[CurveRow]) -> None:
    """Loss-curve CSV: stage, epoch, contrastive, distill, total, tau_hard, alpha1, alpha2."""
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["stage", "epoch", "contrastive", "distill", "total", "tau_hard", "alpha1", "alpha2"]
        )
        for r in rows:
            writer.writerow(
                [r.stage, r.epoch, f"{r.contrastive:.10g}", f"{r.distill:.10g}",
                 f"{r.total:.10g}", f"{r.tau_hard:.10g}", f"{r.alpha1:.10g}", f"{r.alpha2:.10g}"]
            )
