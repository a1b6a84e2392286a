"""Command-line surface.

Subcommands: gen-data, train, prune, embed, index, search, eval, flops,
grad-check, sweep. Settings resolve as flag > config file > default; the
config file holds ``key = value`` lines with ``#`` comments, and unknown
keys are rejected.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .datagen import Corpus, CorpusSpec, generate_corpus, vocab_size_for
from .encoder import Encoder, EncoderConfig, estimate_flops, layer_stack_ratio, prune
from .errors import ConfigurationError, UmrlabError
from .gradcheck import check_gradients
from .losses import (
    ALPHA_MODES,
    DISTILL_VARIANTS,
    TEMPERATURE_MODES,
    TemperatureSchedule,
    cosine_similarity_matrix,
    infonce,
    mac_loss,
    pretraining_loss,
    self_distill,
)
from .prompts import assemble_prompt
from .retrieval import (
    build_index,
    embed_prompts,
    embed_query,
    evaluate,
    load_index,
    modality_separation,
    save_index,
    search_topk,
    write_pca_csv,
)
from .trainer import TrainConfig, run_stage, write_curve

# end-to-end FLOPs ratio measured on a full-scale 28-layer retriever with
# k=12; includes non-layer overhead the analytic layer-stack ratio excludes
FULL_PIPELINE_REFERENCE_RATIO = 0.473

_CONFIG_KEYS = {
    "seed", "concepts", "tasks", "noise", "distractors", "test_fraction",
    "text_vocab", "image_vocab", "n_t", "n_i",
    "d_model", "n_heads", "layers", "max_seq",
    "epochs", "lr", "shards", "batch", "k",
    "tau0", "lam", "temp_mode", "alpha_mode",
    "distill_variant", "distill_tau", "distill_normalize",
    "steps_per_epoch",
}


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


class Settings:
    """flag > config file > default, with strict casting for config-file strings."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file = parse_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default, cast=None):
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key not in self.file:
            return default
        raw = self.file[key]
        if cast is None:
            return raw
        try:
            return _BOOL_WORDS[raw.lower()] if cast is bool else cast(raw)
        except (KeyError, ValueError):
            raise ConfigurationError(
                f"{self.args.config}: {key} = {raw!r} is not a valid {cast.__name__}"
            ) from None


def _corpus_spec(s: Settings) -> CorpusSpec:
    tasks = s.get("tasks", "t2i,t2t,i2t,i2i,t2it,it2i")
    return CorpusSpec(
        n_concepts=s.get("concepts", 2000, int),
        tasks=tuple(t.strip() for t in tasks.split(",") if t.strip()),
        text_vocab_size=s.get("text_vocab", 400, int),
        image_vocab_size=s.get("image_vocab", 400, int),
        n_t=s.get("n_t", 8, int),
        n_i=s.get("n_i", 16, int),
        noise=s.get("noise", 0.1, float),
        distractors=s.get("distractors", 2, int),
        test_fraction=s.get("test_fraction", 0.2, float),
    )


def _encoder_config(s: Settings, vocab_size: int) -> EncoderConfig:
    return EncoderConfig(
        vocab_size=vocab_size,
        d_model=s.get("d_model", 32, int),
        n_heads=s.get("n_heads", 4, int),
        n_layers=s.get("layers", 8, int),
        max_seq=s.get("max_seq", 48, int),
        k=s.get("k", 3, int),
    )


def _check_shape(s: Settings, source: str, cfg: EncoderConfig) -> None:
    """Stages 1 and 2 take the encoder shape from a checkpoint; a shape
    setting that disagrees with it is an error, not silently dropped."""
    for key, have in (
        ("d_model", cfg.d_model), ("n_heads", cfg.n_heads),
        ("layers", cfg.n_layers), ("max_seq", cfg.max_seq),
    ):
        want = s.get(key, have, int)
        if want != have:
            if getattr(s.args, key, None) is not None:
                given = f"--{key.replace('_', '-')} {want}"
            else:
                given = f"config key {key} = {want}"
            raise ConfigurationError(f"{given} disagrees with {key} = {have} in the {source} checkpoint")


def _train_config(
    s: Settings, stage: int, encoder_cfg: EncoderConfig, default_k: int | None = None
) -> TrainConfig:
    return TrainConfig(
        stage=stage,
        encoder=encoder_cfg,
        shards=s.get("shards", 1, int),
        per_shard_batch=s.get("batch", 8, int),
        epochs=s.get("epochs", 3, int),
        lr=s.get("lr", 1e-3, float),
        seed=s.get("seed", 0, int),
        temperature=TemperatureSchedule(
            tau0=s.get("tau0", 0.05, float),
            lam=s.get("lam", 0.2, float),
            mode=s.get("temp_mode", "mac"),
        ),
        alpha_mode=s.get("alpha_mode", "fixed"),
        distill_variant=s.get("distill_variant", "mse"),
        distill_tau=s.get("distill_tau", 1.0, float),
        distill_normalize=s.get("distill_normalize", False, bool),
        k=s.get("k", default_k if default_k is not None else encoder_cfg.k, int),
        steps_per_epoch=s.get("steps_per_epoch", None, int),
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    s = Settings(args)
    spec = _corpus_spec(s)
    seed = s.get("seed", 0, int)
    corpus = generate_corpus(spec, seed)
    corpus.save(args.out)
    print(
        f"wrote corpus to {args.out}: {len(corpus.train)} train queries, "
        f"{len(corpus.test)} test queries, "
        f"{sum(len(p) for p in corpus.pools.values())} candidates, "
        f"{len(corpus.pools)} datasets"
    )
    return 0


def cmd_train(args) -> int:
    s = Settings(args)
    corpus = Corpus.load(args.corpus)
    teacher = None
    init = None
    if args.stage == 0:
        encoder_cfg = _encoder_config(s, vocab_size_for(corpus.spec))
        default_k = encoder_cfg.k
    elif args.stage == 1:
        if not args.teacher:
            raise ConfigurationError("stage 1 requires --teacher")
        teacher, _ = load_checkpoint(args.teacher)
        encoder_cfg = teacher.config
        _check_shape(s, "--teacher", encoder_cfg)
        default_k = encoder_cfg.k
    else:
        if not args.init:
            raise ConfigurationError("stage 2 requires --init")
        init, _ = load_checkpoint(args.init)
        encoder_cfg = init.config
        _check_shape(s, "--init", encoder_cfg)
        default_k = encoder_cfg.n_layers
    config = _train_config(s, args.stage, encoder_cfg, default_k)
    result = run_stage(corpus, config, teacher=teacher, encoder=init)
    save_checkpoint(args.out, result.encoder, result.optimizer)
    if args.curve:
        write_curve(args.curve, result.curve)
    last = result.curve[-1] if result.curve else None
    summary = f"total={last.total:.4f}" if last else "no steps"
    print(f"stage {args.stage} done ({config.epochs} epochs, {summary}); saved {args.out}")
    return 0


def cmd_prune(args) -> int:
    encoder, _ = load_checkpoint(getattr(args, "in"))
    student = prune(encoder, args.k)
    save_checkpoint(args.out, student)
    print(f"kept first {args.k} of {encoder.config.n_layers} layers; saved {args.out}")
    return 0


def cmd_embed(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ConfigurationError(f"--limit must be >= 0, got {args.limit}")
    encoder, _ = load_checkpoint(args.checkpoint)
    corpus = Corpus.load(args.corpus)
    items = corpus.all_candidates() if args.side == "candidate" else corpus.all_queries()
    limit = len(items) if args.limit is None else min(args.limit, len(items))
    items = items[:limit]
    seqs = [assemble_prompt(item, args.side, encoder.config.max_seq) for item in items]
    vectors = embed_prompts(encoder, seqs)
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["id", "modality", "dataset"] + [f"v{i}" for i in range(encoder.config.d_model)]
        )
        for item, vec in zip(items, vectors):
            writer.writerow([item.id, item.modality, item.dataset] + [f"{x:.8g}" for x in vec])
    print(f"wrote {limit} normalized {args.side} embeddings to {args.out}")
    return 0


def cmd_index(args) -> int:
    encoder, _ = load_checkpoint(args.checkpoint)
    corpus = Corpus.load(args.corpus)
    index = build_index(encoder, corpus.all_candidates())
    save_index(index, args.out)
    print(f"indexed {len(index)} candidates at dim {index.dim}; saved {args.out}")
    return 0


def cmd_search(args) -> int:
    encoder, _ = load_checkpoint(args.checkpoint)
    corpus = Corpus.load(args.corpus)
    if args.index:
        index = load_index(args.index)
        # codes were assigned over sorted dataset tags at build time
        index.dataset_names = tuple(sorted(corpus.pools))
    else:
        index = build_index(encoder, corpus.all_candidates())
    queries = {q.id: q for q in corpus.all_queries()}
    if args.query_id not in queries:
        raise ConfigurationError(f"query id {args.query_id} not in corpus")
    query = queries[args.query_id]
    datasets = [query.dataset] if args.scope == "local" else None
    hits = search_topk(index, embed_query(encoder, query), args.k, datasets)
    print(f"query {query.id} task={query.task} gold={query.gold} scope={args.scope}")
    for rank, (cid, score) in enumerate(hits, start=1):
        marker = " *" if cid == query.gold else ""
        print(f"{rank:3d}. candidate {cid} score {score:.6f}{marker}")
    return 0


def cmd_eval(args) -> int:
    s = Settings(args)
    encoder, _ = load_checkpoint(args.checkpoint)
    corpus = Corpus.load(args.corpus)
    scopes = tuple(args.scope) if args.scope else ("local",)
    ks = tuple(args.k) if args.k else (5,)
    overrides = {}
    for item in args.k_override or []:
        dataset, _, value = item.partition("=")
        if not value:
            raise ConfigurationError(f"--k-override wants dataset=k, got {item!r}")
        try:
            overrides[dataset] = int(value)
        except ValueError:
            raise ConfigurationError(
                f"--k-override wants an integer k, got {item!r}"
            ) from None
    settings_dict = {
        "checkpoint": args.checkpoint,
        "scopes": scopes,
        "ks": ks,
        "overrides": tuple(sorted(overrides.items())),
        "tau0": s.get("tau0", 0.05, float),
        "lam": s.get("lam", 0.2, float),
        "temp_mode": s.get("temp_mode", "mac"),
    }
    index = build_index(encoder, corpus.all_candidates())
    report = evaluate(
        encoder, corpus, scopes=scopes, ks=ks, k_overrides=overrides,
        checkpoint=str(args.checkpoint), settings=settings_dict, index=index,
    )
    for scope in scopes:
        print(f"mean recall ({scope}): {report.mean_recall(scope):.4f}")
    if args.out:
        report.to_csv(args.out)
        print(f"wrote report to {args.out}")
    if args.separation:
        stats = modality_separation(index)
        print(
            f"modality separation: intra={stats.intra:.4f} "
            f"inter={stats.inter:.4f} gap={stats.gap:.4f}"
        )
    if args.pca_out:
        write_pca_csv(index, args.pca_out)
        print(f"wrote PCA coordinates to {args.pca_out}")
    return 0


def cmd_flops(args) -> int:
    d_model = args.d_model or 64
    cfg = EncoderConfig(
        vocab_size=1000, d_model=d_model, n_heads=1, n_layers=args.layers,
        max_seq=max(args.seq, 1), k=min(args.k, args.layers) or 1,
    )
    pruned = estimate_flops(cfg, args.k, args.seq)
    full = estimate_flops(cfg, args.layers, args.seq)
    ratio = layer_stack_ratio(cfg, args.k, args.seq)
    print(f"flops(k={args.k}, seq={args.seq}, d={d_model}): {pruned}")
    print(f"flops(L={args.layers}, seq={args.seq}, d={d_model}): {full}")
    print(f"layer-stack ratio k/L: {ratio:.4f}")
    print(
        f"reference end-to-end ratio at L=28, k=12: {FULL_PIPELINE_REFERENCE_RATIO} "
        "(measured on a full-scale retriever; includes non-layer overhead)"
    )
    return 0


def _grad_suite(seeds: int = 3) -> list[tuple[str, float]]:
    from .encoder import embed as embed_graph
    from .encoder import parameter_names
    from .prompts import TokenSequence

    results: list[tuple[str, float]] = []

    def rand(shape, seed):
        return T.Tensor(np.random.default_rng(seed).normal(size=shape))

    for seed in range(seeds):
        f = lambda q, c: infonce(cosine_similarity_matrix(q, c), 0.2)
        results.append((f"infonce[{seed}]", check_gradients(f, [rand((4, 5), seed), rand((4, 5), seed + 10)])))
        for mode in TEMPERATURE_MODES:
            tags = ["text", "image", "image_text", "text"]
            g = lambda q, c: mac_loss(cosine_similarity_matrix(q, c), tags, 0.11, 0.3, mode)
            results.append((f"mac-{mode}[{seed}]", check_gradients(g, [rand((4, 5), seed), rand((4, 5), seed + 20)])))
        for variant in DISTILL_VARIANTS:
            tq, tc = rand((3, 4), seed + 30), rand((3, 4), seed + 40)
            h = lambda sq, sc: self_distill(tq, sq, tc, sc, variant, tau=0.8)
            results.append((f"distill-{variant}[{seed}]", check_gradients(h, [rand((3, 4), seed + 50), rand((3, 4), seed + 60)])))
        tq, tc = rand((4, 5), seed + 70), rand((4, 5), seed + 80)

        def combined(q, c):
            contrastive = infonce(cosine_similarity_matrix(q, c), 0.3)
            distill = self_distill(tq, q, tc, c, "mse")
            return pretraining_loss(contrastive, distill, (0.9, 0.1))

        results.append((f"pretraining[{seed}]", check_gradients(combined, [rand((4, 5), seed), rand((4, 5), seed + 5)])))

        cfg = EncoderConfig(vocab_size=48, d_model=4, n_heads=2, n_layers=2, max_seq=8, k=2)
        enc = Encoder.init(cfg, seed=seed)
        ids = tuple(int(t) for t in np.random.default_rng(seed).integers(36, 46, size=3))
        seq = TokenSequence(ids + (1,))
        names = parameter_names(cfg)

        def enc_loss(*tensors):
            model = Encoder(cfg, dict(zip(names, tensors)))
            emb = embed_graph(model, seq, 2)
            return T.mean(T.mul(emb, emb))

        results.append(
            (f"encoder[{seed}]", check_gradients(enc_loss, [enc.params[n] for n in names]))
        )
    return results


def cmd_grad_check(args) -> int:
    results = _grad_suite(args.seeds)
    worst = 0.0
    for name, err in results:
        status = "ok" if err < 1e-4 else "FAIL"
        print(f"{status:4s} {name:24s} max relative error {err:.3e}")
        worst = max(worst, err)
    print(f"{len(results)} checks, worst {worst:.3e}")
    return 0 if worst < 1e-4 else 1


def cmd_sweep(args) -> int:
    s = Settings(args)
    try:
        lambdas = [float(v) for v in args.lambdas.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"--lambdas wants comma-separated numbers, got {args.lambdas!r}"
        ) from None
    tau0, mode = s.get("tau0", 0.05, float), s.get("temp_mode", "mac")
    schedules = [TemperatureSchedule(tau0=tau0, lam=lam, mode=mode) for lam in lambdas]
    corpus = Corpus.load(args.corpus)
    init, _ = load_checkpoint(args.init)
    _check_shape(s, "--init", init.config)
    base = _train_config(s, 2, init.config, init.config.n_layers)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for lam, schedule in zip(lambdas, schedules):
        config = dataclasses.replace(base, temperature=schedule)
        result = run_stage(corpus, config, encoder=init)
        settings_dict = {"lam": lam, "tau0": schedule.tau0, "mode": schedule.mode,
                         "seed": config.seed, "epochs": config.epochs}
        report = evaluate(
            result.encoder, corpus, scopes=("local", "global"), ks=(5,),
            checkpoint=f"sweep-lam-{lam}", settings=settings_dict,
        )
        path = out_dir / f"report-lam-{lam}.csv"
        report.to_csv(path)
        summary.append((lam, report.config_hash, report.mean_recall("local")))
        print(f"lam={lam}: mean local recall {report.mean_recall('local'):.4f} -> {path}")
    hashes = {h for _, h, _ in summary}
    if len(hashes) != len(summary):
        raise ConfigurationError("sweep settings collided to identical config hashes")
    with open(out_dir / "summary.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["lam", "config_hash", "mean_local_recall"])
        for lam, config_hash, recall in summary:
            writer.writerow([lam, config_hash, f"{recall:.6f}"])
    print(f"wrote {out_dir / 'summary.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="umrlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--seed", type=int, default=None)
        return p

    p = common(sub.add_parser("gen-data", help="generate a synthetic corpus"))
    p.add_argument("--out", required=True)
    p.add_argument("--concepts", type=int, default=None)
    p.add_argument("--tasks", default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--distractors", type=int, default=None)
    p.add_argument("--test-fraction", dest="test_fraction", type=float, default=None)
    p.add_argument("--text-vocab", dest="text_vocab", type=int, default=None)
    p.add_argument("--image-vocab", dest="image_vocab", type=int, default=None)
    p.add_argument("--n-t", dest="n_t", type=int, default=None)
    p.add_argument("--n-i", dest="n_i", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = common(sub.add_parser("train", help="run one training stage"))
    p.add_argument("--stage", type=int, required=True, choices=(0, 1, 2))
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--teacher", help="stage-0 checkpoint (stage 1)")
    p.add_argument("--init", help="checkpoint to continue from (stage 2)")
    p.add_argument("--curve", help="loss-curve CSV path")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--shards", type=int, default=None)
    p.add_argument("--batch", type=int, default=None, help="per-shard batch size")
    p.add_argument("--k", type=int, default=None, help="prune depth")
    p.add_argument("--tau0", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--temp-mode", dest="temp_mode", choices=TEMPERATURE_MODES, default=None)
    p.add_argument("--alpha-mode", dest="alpha_mode", choices=ALPHA_MODES, default=None)
    p.add_argument("--distill-variant", dest="distill_variant", choices=DISTILL_VARIANTS, default=None)
    p.add_argument("--distill-tau", dest="distill_tau", type=float, default=None)
    p.add_argument("--distill-normalize", dest="distill_normalize", action="store_const", const=True, default=None)
    p.add_argument("--steps-per-epoch", dest="steps_per_epoch", type=int, default=None)
    p.add_argument("--d-model", dest="d_model", type=int, default=None)
    p.add_argument("--n-heads", dest="n_heads", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--max-seq", dest="max_seq", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="keep the first k layers of a checkpoint")
    p.add_argument("--in", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("embed", help="dump embeddings to CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--side", choices=("query", "candidate"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("index", help="build and persist a candidate index")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="top-k search for one query")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--index", help="saved index file; rebuilt from the checkpoint if omitted")
    p.add_argument("--query-id", dest="query_id", type=int, required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--scope", choices=("local", "global"), default="local")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="Recall@k evaluation")
    p.add_argument("--config", help="key = value settings file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--scope", action="append", choices=("local", "global"))
    p.add_argument("--k", action="append", type=int)
    p.add_argument("--k-override", dest="k_override", action="append", metavar="DATASET=K")
    p.add_argument("--out")
    p.add_argument("--separation", action="store_true")
    p.add_argument("--pca-out", dest="pca_out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("flops", help="analytic forward-pass cost")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seq", type=int, required=True)
    p.add_argument("--d-model", dest="d_model", type=int)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("grad-check", help="verify gradients against finite differences")
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=cmd_grad_check)

    p = common(sub.add_parser("sweep", help="decay-sparsity sweep over stage-2 runs"))
    p.add_argument("--corpus", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--lambdas", default="0.2,0.5,0.7")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--shards", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--tau0", type=float, default=None)
    p.add_argument("--temp-mode", dest="temp_mode", choices=TEMPERATURE_MODES, default=None)
    p.add_argument("--steps-per-epoch", dest="steps_per_epoch", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UmrlabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
