"""Two-stage training pipeline with simulated data-parallel shards.

Stage 0 bootstraps a full-depth teacher with plain InfoNCE on text->text
pairs. Stage 1 prunes the teacher to its first k layers and trains the
student with InfoNCE plus self-distillation against the frozen teacher's
last-layer retrieval states, weighted by the alpha schedule that
``TrainConfig.alpha_mode`` names (:data:`~umrlab.losses.ALPHA_PRESETS`).
Stage 2 instruction-tunes on the mixed-task corpus under the
modality-adaptive loss.

Sharding is simulated in-process but honest about the math: every shard
forwards only its slice of the global batch, embeddings are gathered across
shards so negatives span the global batch, and per-shard gradients are
summed in shard-id order. Each shard computes the full global loss with
only its own rows attached to the tape, so the shard-summed gradient equals
the single-process gradient of the same global batch.

A shard embeds the queries and positives of its slice together, with one
taped call per prompt length across both sides
(:func:`~umrlab.encoder.embed_batch`), so a step's forward cost grows with
the number of distinct prompt lengths, not the number of prompts or sides.
Stage 1's frozen teacher embeds the batch's cache misses from both sides in
one tape-free call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Sequence

import numpy as np

from . import tensor as T
from .datagen import Corpus, Sample, Candidate
# embed is unused here; the benchmark tracer wraps trainer.embed as a call site
from .encoder import Encoder, EncoderConfig, embed, embed_batch, prune
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
from .tensor import Tensor

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
    distill_normalize: bool = False
    k: int = 3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    steps_per_epoch: int | None = None

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ConfigurationError(f"stage must be one of {STAGES}, got {self.stage}")
        if self.shards < 1 or self.per_shard_batch < 1:
            raise ConfigurationError("shards and per-shard batch must be >= 1")
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
        if self.alpha_mode not in ALPHA_MODES:
            raise ConfigurationError(
                f"alpha mode must be one of {ALPHA_MODES}, got {self.alpha_mode!r}"
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


@dataclass(frozen=True)
class ShardContext:
    """A shard's contiguous slice of the global batch."""

    shard_id: int
    samples: tuple[Sample, ...]
    positives: tuple[Candidate, ...]


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


def split_shards(batch: GlobalBatch, shards: int) -> list[ShardContext]:
    """Contiguous slices; concatenation in shard-id order rebuilds the batch."""
    if len(batch) % shards != 0:
        raise ConfigurationError(f"batch of {len(batch)} not divisible by {shards} shards")
    n = len(batch) // shards
    return [
        ShardContext(
            shard_id=s,
            samples=batch.samples[s * n : (s + 1) * n],
            positives=batch.positives[s * n : (s + 1) * n],
        )
        for s in range(shards)
    ]


def gather_shards(locals_: Sequence[Tensor | None]) -> Tensor:
    """Concatenate per-shard embedding blocks in ascending shard-id order."""
    for i, block in enumerate(locals_):
        if block is None:
            raise AggregationError(f"shard {i} missing from gather")
    return T.concat_rows(list(locals_))


def all_reduce_grads(shard_grads: Sequence[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Elementwise sum over shards, in ascending shard-id order.

    One shard's arrays are returned as they are; otherwise every array is a
    fresh one, and no shard's array is written into.
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
    if len(shard_grads) == 1:
        return dict(shard_grads[0])
    total = {key: shard_grads[0][key] + shard_grads[1][key] for key in keys}
    for grads in shard_grads[2:]:
        for key in keys:
            total[key] += grads[key]
    return total


def _embed_block(
    encoder: Encoder,
    samples: Sequence[Sample],
    positives: Sequence[Candidate],
    upto: int,
    cache: dict | None = None,
) -> tuple[Tensor, Tensor]:
    """[RET] states of queries and their positives, as (len(samples), d) and
    (len(positives), d).

    Both sides go through one :func:`embed_batch` call, so prompts of equal
    length share one forward whichever side they come from. Without a cache
    the rows are taped. With one, each (side, id) is looked up once; the
    misses of both sides are embedded in one tape-free call and stored, each
    row as its own array so that no entry keeps the rest of the batch alive.
    """
    max_seq = encoder.config.max_seq
    items = [("query", s) for s in samples] + [("candidate", c) for c in positives]
    n = len(samples)
    if cache is None:
        seqs = [assemble_prompt(item, side, max_seq) for side, item in items]
        both = embed_batch(encoder, seqs, upto)
        return T.take_rows(both, range(n)), T.take_rows(both, range(n, len(items)))
    keys = [(side, item.id) for side, item in items]
    rows = [cache.get(key) for key in keys]
    missing = {key: pair for key, pair, row in zip(keys, items, rows) if row is None}
    if missing:
        seqs = [assemble_prompt(item, side, max_seq) for side, item in missing.values()]
        with T.no_grad():
            fresh = embed_batch(encoder, seqs, upto).data
        for i, key in enumerate(missing):
            cache[key] = fresh[i : i + 1].copy()
        rows = [cache[key] if row is None else row for key, row in zip(keys, rows)]
    return Tensor(np.concatenate(rows[:n], axis=0)), Tensor(np.concatenate(rows[n:], axis=0))


def _shard_loss(
    student: Encoder,
    config: TrainConfig,
    shard: ShardContext,
    q_blocks: list[np.ndarray],
    c_blocks: list[np.ndarray],
    q_local: Tensor,
    c_local: Tensor,
    tags: list[str],
    teacher_q: Tensor | None,
    teacher_c: Tensor | None,
    progress: float,
) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Global loss with only this shard's rows on the tape; returns grads."""
    s = shard.shard_id
    q_parts = [q_local if j == s else Tensor(q_blocks[j]) for j in range(config.shards)]
    c_parts = [c_local if j == s else Tensor(c_blocks[j]) for j in range(config.shards)]
    q_global = gather_shards(q_parts)
    c_global = gather_shards(c_parts)
    similarity = cosine_similarity_matrix(q_global, c_global)
    tau0 = config.temperature.tau0
    if config.stage == 2:
        tau_h = tau_hard_at(config.temperature, progress)
        contrastive = mac_loss(similarity, tags, tau_h, tau0, config.temperature.mode)
    else:
        contrastive = infonce(similarity, tau0)
    total, distill = contrastive, None
    if config.stage == 1:
        sq, sc, tq, tc = q_global, c_global, teacher_q, teacher_c
        if config.distill_normalize:
            sq, sc = T.l2_normalize_rows(sq), T.l2_normalize_rows(sc)
            tq, tc = T.l2_normalize_rows(tq), T.l2_normalize_rows(tc)
        distill = self_distill(
            tq, sq, tc, sc, variant=config.distill_variant, tau=config.distill_tau
        )
        total = pretraining_loss(contrastive, distill, alpha_at(config.alpha_mode, progress))
    breakdown = {
        "contrastive": contrastive.item(),
        "distill": 0.0 if distill is None else distill.item(),
        "total": total.item(),
    }

    grad_map = T.backward(total)
    named = {}
    for name, p in student.params.items():
        g = grad_map.get(p)
        named[name] = g if g is not None else np.zeros(p.shape)
    return named, breakdown


def compute_global_grads(
    student: Encoder,
    teacher: Encoder | None,
    batch: GlobalBatch,
    config: TrainConfig,
    progress: float,
    teacher_cache: dict | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Shard forwards, cross-shard gather, loss, backward, all-reduce.

    Returns the shard-summed gradient map and the loss breakdown.
    """
    if config.stage == 1 and teacher is None:
        raise ConfigurationError("stage 1 requires a frozen teacher")
    if config.stage != 1 and teacher is not None:
        raise ConfigurationError(f"stage {config.stage} does not take a teacher")
    if len(batch) != config.global_batch:
        raise ConfigurationError(
            f"batch of {len(batch)} != shards*per_shard_batch = {config.global_batch}"
        )
    shards = split_shards(batch, config.shards)
    depth = student.config.n_layers
    locals_ = [_embed_block(student, shard.samples, shard.positives, depth) for shard in shards]
    q_blocks = [q.data for q, _ in locals_]
    c_blocks = [c.data for _, c in locals_]

    teacher_q = teacher_c = None
    if config.stage == 1:
        cache = teacher_cache if teacher_cache is not None else {}
        teacher_q, teacher_c = _embed_block(
            teacher, batch.samples, batch.positives, teacher.config.n_layers, cache
        )

    tags = batch.tags
    results = [
        _shard_loss(
            student, config, shard, q_blocks, c_blocks, q_local, c_local,
            tags, teacher_q, teacher_c, progress,
        )
        for shard, (q_local, c_local) in zip(shards, locals_)
    ]

    reduced = all_reduce_grads([grads for grads, _ in results])
    return reduced, results[0][1]


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

    Raises NumericDomainError naming the first non-finite loss term or
    updated parameter, so a diverged step never yields an encoder.
    """
    reduced, breakdown = compute_global_grads(
        student, teacher, batch, config, progress, teacher_cache
    )
    for term, value in breakdown.items():
        if not math.isfinite(value):
            raise NumericDomainError(f"{term} loss is {value}")
    new_params, new_state = adam_update(student.params, reduced, optimizer)
    for name, p in new_params.items():
        if not np.isfinite(p.data).all():
            raise NumericDomainError(f"parameter {name!r} is non-finite after the update")
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
        alphas = alpha_at(config.alpha_mode, progress) if config.stage == 1 else (1.0, 0.0)
        # stages 0 and 1 take InfoNCE at tau0; only the MAC loss decays tau_hard
        tau_hard = tau_hard_at(config.temperature, progress) if config.stage == 2 else config.temperature.tau0
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
