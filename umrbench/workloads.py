"""The benchmark's three workloads: distill, instruct-sharded and retrieve.

Each workload builds its corpus and model from the seed and sets up
``Scale.setup_reps`` times; ``setup_s`` is the median. It then runs whole
units of work in one closed loop -- the next step or query starts when the
previous one returns -- until the time is up and the tail percentile has at
least ten samples beyond it. A unit is one training rep on the training
workloads and one round on retrieve. Every unit starts from the same state
and does the same work, so per-unit counts repeat exactly from run to run,
and every unit's outputs must reproduce the first unit's bit for bit.

The harness calls umrlab only through module attributes (``trainer.train_step``,
``retrieval.build_index``, ...), so the traced run can wrap them in place.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import statistics
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from umrlab import checkpoint, datagen, encoder, prompts, retrieval, trainer
from umrlab.datagen import CorpusSpec
from umrlab.encoder import EncoderConfig
from umrlab.optim import OptimizerState

from hostclock import HostClock, ticking
from tracer import PER_LAYER, NullTracer, Tracer, installed, layer_metrics

# Name, unit and better direction of every end-to-end metric. Each workload
# reports every one; what the generic ones measure on each workload is in
# README.md.
E2E = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

N_LAYERS = 8
K = 3


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is the benchmark; tests use a toy scale."""

    distill_concepts: int = 100  # 80 text->text training pairs: 10 steps per epoch
    instruct_concepts: int = 60  # 288 mixed training pairs: 9 steps per epoch at G=32
    retrieve_concepts: int = 100  # 1,800 candidates, 600 queries
    per_shard_batch: int = 4
    teacher_steps: int = 4
    setup_reps: int = 5
    min_steps: int = 100
    min_queries: int = 1000
    queries_per_round: int = 400
    depth_subset: int = 120


FULL = Scale()


@dataclass
class Unit:
    """What one unit of work measured and checked."""

    seconds: float
    latencies: list[float]
    attempted: int
    failed: int
    digest: str
    values: dict = field(default_factory=dict)


class CountingCache(dict):
    """A teacher cache that counts the trainer's lookups from outside."""

    def __init__(self):
        super().__init__()
        self.hits = 0
        self.lookups = 0

    def get(self, key, default=None):
        value = super().get(key, default)
        self.lookups += 1
        self.hits += value is not None
        return value


def encoder_config(spec: CorpusSpec) -> EncoderConfig:
    return EncoderConfig(
        vocab_size=datagen.vocab_size_for(spec),
        d_model=32,
        n_heads=4,
        n_layers=N_LAYERS,
        max_seq=48,
        k=K,
    )


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _finite(model) -> bool:
    return all(np.isfinite(p.data).all() for p in model.params.values())


def _percentile(values: list[float], q: float) -> tuple[float, int]:
    """Value at percentile q and the number of samples strictly beyond it."""
    v = float(np.percentile(values, q))
    return v, sum(1 for x in values if x > v)


def _train_teacher(corpus, cfg: EncoderConfig, seed: int, steps: int):
    config = trainer.TrainConfig(stage=0, encoder=cfg, seed=seed, steps_per_epoch=steps)
    return trainer.run_stage(corpus, config)


class _Workload:
    """Seed, sizes and the corpus spec and encoder config they imply."""

    teacher = None
    round_trip_ok = True
    concepts = ""  # the Scale field that sizes this workload's corpus

    def __init__(self, seed: int, scale: Scale, workdir: Path):
        self.seed, self.scale, self.workdir = seed, scale, workdir
        self.spec = CorpusSpec(n_concepts=getattr(scale, self.concepts))
        self.cfg = encoder_config(self.spec)
        self.setup_extras = {}
        self.clock = HostClock()


class _Training(_Workload):
    """Shared measured phase of the training workloads: one unit is a fresh
    run of ``config.epochs`` epochs from the same starting encoder, batched
    exactly as ``trainer.run_stage`` batches."""

    def _check_pool(self, pool, g):
        if not pool or len(pool) % g:
            raise ValueError(f"{self.name}: pool of {len(pool)} is not a multiple of batch {g}")

    def unit(self, tr) -> Unit:
        config, pool = self.config, self.pool
        g = config.global_batch
        model = self.start
        opt = OptimizerState.init(model.params, config.lr, config.beta1, config.beta2, config.adam_eps)
        cache = None
        if config.stage == 1:
            cache = CountingCache() if isinstance(tr, Tracer) else {}
        latencies, trajectory, last_epoch = [], [], []
        failed = 0
        k_unit, t_unit = self.clock.sampled_s, perf_counter()
        for epoch in range(config.epochs):
            progress = epoch / config.epochs
            order = np.random.default_rng([config.seed, config.stage, epoch]).permutation(len(pool))
            last_epoch = []
            for step in range(len(pool) // g):
                batch = trainer.batch_from(self.corpus, [pool[i] for i in order[step * g : (step + 1) * g]])
                t0 = perf_counter()
                model, opt, losses = trainer.train_step(
                    model, self.teacher, batch, config, opt, progress, cache
                )
                latencies.append(perf_counter() - t0)
                self.clock.after(latencies[-1])
                row = [losses["contrastive"], losses["distill"], losses["total"]]
                # a non-finite gradient makes Adam's update non-finite, so
                # finite weights after the step mean the gradients were finite
                failed += not (np.isfinite(row).all() and _finite(model))
                trajectory.extend(row)
                last_epoch.append(losses["total"])
        seconds = perf_counter() - t_unit - (self.clock.sampled_s - k_unit)
        values = {"loss_final": sum(last_epoch) / len(last_epoch)}
        if isinstance(cache, CountingCache):
            values["cache_hits"], values["cache_lookups"] = cache.hits, cache.lookups
        digest = _sha(np.asarray(trajectory, dtype="<f8").tobytes())
        return Unit(seconds, latencies, len(latencies), failed, digest, values)

    def enough(self, units: list[Unit]) -> bool:
        return sum(len(u.latencies) for u in units) >= self.scale.min_steps

    def summarize(self, units: list[Unit]) -> tuple[dict, list]:
        # times are divided by the host's slowdown; raw values in the notes
        slowdown = self.clock.slowdown()
        steps = [x for u in units for x in u.latencies]
        p50, _ = _percentile(steps, 50)
        p90, beyond = _percentile(steps, 90)
        g = self.config.global_batch
        samples_per_s = statistics.median(g * len(u.latencies) / sum(u.latencies) for u in units)
        e2e = {
            "throughput_per_s": samples_per_s * slowdown,
            "latency_p50_ms": 1000 * p50 / slowdown,
            "latency_tail_ms": 1000 * p90 / slowdown,
        }
        report = [
            ("host_slowdown", slowdown, "ratio", f"{len(self.clock.samples)} host-clock samples"),
            ("train_samples_per_s", e2e["throughput_per_s"], "1/s",
             f"median of {len(units)} reps, {len(steps)} steps; raw {samples_per_s:.4g}"),
            ("train_step_p50_ms", e2e["latency_p50_ms"], "ms", f"n={len(steps)}; raw {1000 * p50:.4g}"),
            ("train_step_p90_ms", e2e["latency_tail_ms"], "ms",
             f"n={len(steps)}, {beyond} beyond; raw {1000 * p90:.4g}"),
            ("train_loss_final", units[0].values["loss_final"], "nats", "mean total loss over the last epoch"),
        ]
        return e2e, report

    def layer_extras(self, traced: list[Unit]) -> dict:
        extras = {
            "units": sum(len(u.latencies) for u in traced),
            "cache_hits": sum(u.values.get("cache_hits", 0) for u in traced),
            "cache_lookups": sum(u.values.get("cache_lookups", 0) for u in traced),
        }
        extras.update(self.setup_extras)
        return extras


class Distill(_Training):
    """Stage 1: a k=3 student self-distilled from its L=8 teacher, one shard,
    global batch 8, text->text pool, three epochs with one teacher cache."""

    name = "distill"
    concepts = "distill_concepts"

    def setup(self, tr) -> str:
        with tr.span("datagen.generate_corpus"):
            corpus = datagen.generate_corpus(self.spec, self.seed)
        stage0 = _train_teacher(corpus, self.cfg, self.seed, self.scale.teacher_steps)
        path = self.workdir / "teacher.ckpt"
        with tr.span("checkpoint.save"):
            checkpoint.save_checkpoint(path, stage0.encoder, stage0.optimizer)
        with tr.span("checkpoint.load"):
            teacher, _ = checkpoint.load_checkpoint(path)
        self.setup_extras["checkpoint_bytes"] = path.stat().st_size
        self.round_trip_ok = teacher.param_bytes() == stage0.encoder.param_bytes()
        self.corpus, self.teacher = corpus, teacher
        self.start = encoder.prune(teacher, K)
        self.config = trainer.TrainConfig(
            stage=1, encoder=self.cfg, k=K, shards=1, per_shard_batch=8, epochs=3, seed=self.seed
        )
        self.pool = [s for s in corpus.train if s.task == "t2t"]
        self._check_pool(self.pool, self.config.global_batch)
        return _sha(teacher.param_bytes(), bytes([self.round_trip_ok]))


class InstructSharded(_Training):
    """Stage 2 under the MAC loss over the mixed-task pool: a k=3 encoder,
    8 shards x 4 (G=32), run sequentially, two epochs so the hard-negative
    temperature departs from tau0."""

    name = "instruct-sharded"
    concepts = "instruct_concepts"

    def setup(self, tr) -> str:
        with tr.span("datagen.generate_corpus"):
            corpus = datagen.generate_corpus(self.spec, self.seed)
        self.corpus = corpus
        self.start = encoder.prune(encoder.Encoder.init(self.cfg, self.seed), K)
        self.config = trainer.TrainConfig(
            stage=2,
            encoder=self.start.config,
            k=K,
            shards=8,
            per_shard_batch=self.scale.per_shard_batch,
            epochs=2,
            seed=self.seed,
        )
        self.pool = list(corpus.train)
        self._check_pool(self.pool, self.config.global_batch)
        return _sha(self.start.param_bytes())


def _same_index(a, b) -> bool:
    return (
        a.ids.tobytes() == b.ids.tobytes()
        and a.modality_codes.tobytes() == b.modality_codes.tobytes()
        and a.dataset_codes.tobytes() == b.dataset_codes.tobytes()
        and a.vectors.tobytes() == b.vectors.tobytes()
    )


def reference_topk(index, query: np.ndarray, k: int, dataset: str | None) -> list[tuple[int, float]]:
    """Brute-force top-k: score every kept row, order by (-score, id)."""
    keep = np.ones(len(index), dtype=bool)
    if dataset is not None:
        keep = index.dataset_codes == index.dataset_code(dataset)
    ids = index.ids[keep]
    scores = index.vectors[keep].astype(np.float64) @ np.asarray(query, dtype=np.float64)
    by_id = np.argsort(ids, kind="stable")
    order = by_id[np.argsort(-scores[by_id], kind="stable")][:k]
    return [(int(ids[i]), float(scores[i])) for i in order]


class Retrieve(_Workload):
    """Index, evaluate and serve with a pruned k=3 encoder. A round is:
    (a) build, save and load the index over every candidate; (b) evaluate
    local+global at k=5, then modality separation on the index; (c) serve
    single queries, scope drawn 50/50 by the seeded generator; (d) embed a
    fixed candidate subset at depth k and depth L."""

    name = "retrieve"
    concepts = "retrieve_concepts"

    def setup(self, tr) -> str:
        with tr.span("datagen.generate_corpus"):
            generated = datagen.generate_corpus(self.spec, self.seed)
        folder = self.workdir / "corpus"
        with tr.span("datagen.corpus_save"):
            generated.save(folder)
        with tr.span("datagen.corpus_load"):
            corpus = datagen.Corpus.load(folder)
        self.round_trip_ok = (
            corpus.all_queries() == generated.all_queries()
            and corpus.all_candidates() == generated.all_candidates()
            and [s.id for s in corpus.test] == [s.id for s in generated.test]
        )
        stage0 = _train_teacher(corpus, self.cfg, self.seed, self.scale.teacher_steps)
        self.corpus, self.teacher = corpus, stage0.encoder
        self.student = encoder.prune(stage0.encoder, K)
        self.teacher_loss = stage0.curve[-1].total
        self.candidates = corpus.all_candidates()
        rng = np.random.default_rng([self.seed, 7])
        queries = corpus.all_queries()
        picks = rng.integers(len(queries), size=self.scale.queries_per_round)
        local = rng.random(self.scale.queries_per_round) < 0.5
        self.served = [
            (queries[int(i)], queries[int(i)].dataset if is_local else None)
            for i, is_local in zip(picks, local)
        ]
        chosen = np.sort(rng.choice(len(self.candidates), size=self.scale.depth_subset, replace=False))
        self.subset = [self.candidates[int(i)] for i in chosen]
        seq_len = len(prompts.assemble_prompt(self.subset[0], "candidate"))
        self.setup_extras["depth_flops_ratio"] = encoder.layer_stack_ratio(self.cfg, K, seq_len)
        return _sha(self.teacher.param_bytes(), bytes([self.round_trip_ok]))

    def unit(self, tr) -> Unit:
        traced = isinstance(tr, Tracer)
        student, teacher, clock = self.student, self.teacher, self.clock
        path = self.workdir / "index.bin"
        failed = 0
        k_unit, t_unit = clock.sampled_s, perf_counter()

        # an index build is one long call, so the host clock ticks from
        # inside its per-candidate embedding calls (untraced units only);
        # the kernels' own time is taken out of the build time
        k0, t0 = clock.sampled_s, perf_counter()
        with nullcontext() if traced else ticking(clock, retrieval, "embed_raw"):
            index = retrieval.build_index(student, self.candidates)
        retrieval.save_index(index, path)
        loaded = retrieval.load_index(path)
        build_s = perf_counter() - t0 - (clock.sampled_s - k0)
        failed += not _same_index(index, loaded)

        t0 = perf_counter()
        report = retrieval.evaluate(student, self.corpus, scopes=("local", "global"), ks=(5,))
        eval_s = perf_counter() - t0
        if traced:
            tracemalloc.start()
        try:
            sep = retrieval.modality_separation(index)
        finally:
            if traced:
                separation_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        latencies, answers = [], []
        for query, dataset in self.served:
            filt = None if dataset is None else [dataset]
            t0 = perf_counter()
            vector = retrieval.embed_query(student, query)
            hits = retrieval.search_topk(index, vector, 5, filt)
            latencies.append(perf_counter() - t0)
            answers.append((vector, hits))
        for (query, dataset), (vector, hits) in zip(self.served, answers):
            failed += hits != reference_topk(index, vector, 5, dataset)

        with tr.span("depth.k"):
            at_k = retrieval.build_index(teacher, self.subset, k_layers=K)
        with tr.span("depth.L"):
            retrieval.build_index(teacher, self.subset)
        failed += not _same_index(at_k, retrieval.build_index(student, self.subset))
        seconds = perf_counter() - t_unit - (clock.sampled_s - k_unit)

        recalls = (report.mean_recall("local", 5), report.mean_recall("global", 5))
        digest = _sha(
            index.vectors.tobytes(),
            np.asarray([*recalls, sep.intra, sep.inter], dtype="<f8").tobytes(),
            repr([hits for _, hits in answers]).encode(),
        )
        values = {
            "build_s": build_s,
            "eval_s": eval_s,
            "recall_local": recalls[0],
            "recall_global": recalls[1],
            "index_bytes": path.stat().st_size,
        }
        if traced:
            values["separation_peak_b"] = separation_peak
        attempted = 3 + len(latencies)  # index build, evaluate, depth build, queries
        return Unit(seconds, latencies, attempted, failed, digest, values)

    def enough(self, units: list[Unit]) -> bool:
        return sum(len(u.latencies) for u in units) >= self.scale.min_queries

    def summarize(self, units: list[Unit]) -> tuple[dict, list]:
        n_cands, n_test = len(self.candidates), len(self.corpus.test)
        build_rate = statistics.median(n_cands / u.values["build_s"] for u in units)
        eval_rate = statistics.median(n_test / u.values["eval_s"] for u in units)
        queries = [x for u in units for x in u.latencies]
        p50, _ = _percentile(queries, 50)
        p99, beyond = _percentile(queries, 99)
        first = units[0].values
        # the build rate is multiplied by the host's slowdown during the
        # builds; query latencies did not follow the kernel, so stay raw
        slowdown = self.clock.slowdown()
        e2e = {
            "throughput_per_s": build_rate * slowdown,
            "latency_p50_ms": 1000 * p50,
            "latency_tail_ms": 1000 * p99,
        }
        report = [
            ("host_slowdown", slowdown, "ratio", f"{len(self.clock.samples)} host-clock samples"),
            ("index_build_cands_per_s", e2e["throughput_per_s"], "1/s",
             f"median of {len(units)} rounds, {n_cands} candidates; raw {build_rate:.4g}"),
            ("eval_queries_per_s", eval_rate, "1/s", f"median of {len(units)} rounds, {n_test} test queries"),
            ("query_p50_ms", 1000 * p50, "ms", f"n={len(queries)}"),
            ("query_p99_ms", 1000 * p99, "ms", f"n={len(queries)}, {beyond} beyond"),
            ("recall_at_5_local", first["recall_local"], "fraction", "EvalReport mean over datasets"),
            ("recall_at_5_global", first["recall_global"], "fraction", "EvalReport mean over datasets"),
            ("train_loss_final", self.teacher_loss, "nats", "stage-0 teacher, last epoch"),
        ]
        return e2e, report

    def layer_extras(self, traced: list[Unit]) -> dict:
        extras = {
            "units": len(traced),
            "test_queries": len(self.corpus.test),
            "index_bytes": traced[0].values["index_bytes"] if traced else 0,
            "separation_peak_b": max((u.values["separation_peak_b"] for u in traced), default=0),
        }
        extras.update(self.setup_extras)
        return extras


WORKLOADS = {w.name: w for w in (Distill, InstructSharded, Retrieve)}


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, scale: Scale = FULL) -> dict:
    """Set up, measure and check one workload. Returns the result record:
    ``correct``, ``attempted``, ``failed``, ``metrics`` (end-to-end, or
    per-layer when traced), the ``report`` lines, the loss or output
    ``digest`` and the workload's spec and config."""
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    tr = tracer if trace else NullTracer()
    w = WORKLOADS[name](seed, scale, workdir)
    try:
        setup_times, fingerprints = [], []
        for _ in range(scale.setup_reps):
            with tr.span("setup"):
                t0 = perf_counter()
                fingerprints.append(w.setup(tr))
                setup_times.append(perf_counter() - t0)
        if trace:
            tracer.teacher = w.teacher

        untraced, traced = [], []
        start = perf_counter()
        while True:
            untraced.append(w.unit(NullTracer()))
            if trace:
                with installed(tracer), tracer.span("unit"):
                    traced.append(w.unit(tracer))
            elapsed = perf_counter() - start
            if elapsed >= seconds and (trace or w.enough(untraced)):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = untraced + traced
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    # determinism: every set-up and every unit reproduces the first one
    failed += sum(f != fingerprints[0] for f in fingerprints) + (not w.round_trip_ok)
    failed += sum(u.digest != units[0].digest for u in units)

    e2e, report = w.summarize(untraced)
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report[:0] = [("setup_s", e2e["setup_s"], "s", f"median of {len(setup_times)} set-ups")]
    report.append(("peak_rss_mb", e2e["peak_rss_mb"], "MB", "ru_maxrss of this process"))
    report.append(("error_rate", failed / attempted, "fraction", f"{failed} failed of {attempted} attempted"))

    if trace:
        extras = w.layer_extras(traced)
        extras["untraced_unit_s"] = [u.seconds for u in untraced]
        extras["traced_unit_s"] = [u.seconds for u in traced]
        values = layer_metrics(tracer, extras)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": E2E[k][0]} for k in E2E}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "digest": units[0].digest,
        "corpus_spec": w.spec,
        "encoder_config": w.cfg,
        "tracer": tracer,
    }
