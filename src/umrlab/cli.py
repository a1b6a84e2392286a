"""Command-line surface.

Subcommands: gen-data, train, prune, embed, index, search, eval, flops,
grad-check, sweep. ``train`` takes the stage as its own subcommand
(``train 0|1|2``), and each stage declares only the settings it reads:
stage 0 the encoder shape, stage 1 (which needs ``--teacher``) the prune
depth, α schedule and distillation settings, stage 2 (which needs
``--init``) the temperature decay and mode. gen-data, each train stage and
sweep also read their settings from a ``--config`` file of ``key = value``
lines with ``#`` comments. A key is the dest of one of the running parser's
own setting flags (``--test-fraction`` is ``test_fraction``, ``--lambda`` is
``lam``); a key that parser does not read is rejected, as is a flag. A flag
on the command line wins over the file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
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

_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def read_config(path: str, settings: dict[str, argparse.Action]) -> dict[str, object]:
    """The ``key = value`` lines of ``path``, each cast by the type of the
    setting flag whose dest is ``key``."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in settings:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        flag = settings[key]
        is_switch = flag.const is True  # a store_true flag, set by a bool word
        try:
            value = _BOOL_WORDS[raw.lower()] if is_switch else (flag.type or str)(raw)
        except (KeyError, ValueError):
            kind = "bool" if is_switch else flag.type.__name__
            raise ConfigurationError(f"{path}:{lineno}: {key} = {raw!r} is not a valid {kind}") from None
        if flag.choices and value not in flag.choices:
            raise ConfigurationError(
                f"{path}:{lineno}: {key} = {raw!r} is not one of {', '.join(flag.choices)}"
            )
        values[key] = value
    return values


def _task_list(text: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in text.split(",") if t.strip())


def _train_config(args, stage: int, encoder_cfg: EncoderConfig, k: int, **only_stage) -> TrainConfig:
    """A TrainConfig from the settings every training run shares; settings
    that one stage reads come as keywords and default to TrainConfig's own."""
    return TrainConfig(
        stage=stage, encoder=encoder_cfg, k=k, seed=args.seed, epochs=args.epochs,
        lr=args.lr, shards=args.shards, per_shard_batch=args.batch,
        steps_per_epoch=args.steps_per_epoch, **only_stage,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    spec = CorpusSpec(
        n_concepts=args.concepts, tasks=args.tasks, text_vocab_size=args.text_vocab,
        image_vocab_size=args.image_vocab, n_t=args.n_t, n_i=args.n_i, noise=args.noise,
        distractors=args.distractors, test_fraction=args.test_fraction,
    )
    corpus = generate_corpus(spec, args.seed)
    corpus.save(args.out)
    print(
        f"wrote corpus to {args.out}: {len(corpus.train)} train queries, "
        f"{len(corpus.test)} test queries, "
        f"{sum(len(p) for p in corpus.pools.values())} candidates, "
        f"{len(corpus.pools)} datasets"
    )
    return 0


def cmd_train(args) -> int:
    corpus = Corpus.load(args.corpus)
    teacher = init = None
    if args.stage == 0:
        encoder_cfg = EncoderConfig(
            vocab_size_for(corpus.spec), args.d_model, args.n_heads, args.layers, args.max_seq, args.k
        )
        config = _train_config(args, 0, encoder_cfg, args.k, temperature=TemperatureSchedule(tau0=args.tau0))
    elif args.stage == 1:
        teacher, _ = load_checkpoint(args.teacher)
        encoder_cfg = teacher.config
        config = _train_config(
            args, 1, encoder_cfg, encoder_cfg.k if args.k is None else args.k,
            temperature=TemperatureSchedule(tau0=args.tau0), alpha_mode=args.alpha_mode,
            distill_variant=args.distill_variant, distill_tau=args.distill_tau,
            distill_normalize=args.distill_normalize,
        )
    else:
        init, _ = load_checkpoint(args.init)
        encoder_cfg = init.config
        config = _train_config(
            args, 2, encoder_cfg, encoder_cfg.n_layers,
            temperature=TemperatureSchedule(tau0=args.tau0, lam=args.lam, mode=args.temp_mode),
        )
    result = run_stage(corpus, config, teacher=teacher, encoder=init)
    # run_stage checks each update, but only the next forward overflows on the
    # weights the last update left; run one before anything is saved
    embed_prompts(result.encoder, [assemble_prompt(corpus.train[0], "query", encoder_cfg.max_seq)])
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
        stray = index.dataset_codes >= len(index.dataset_names)
        if stray.any():
            i = int(stray.argmax())
            raise ConfigurationError(
                f"index record {i} has dataset code {index.dataset_codes[i]}, "
                f"but the corpus has {len(index.dataset_names)} datasets"
            )
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
    unknown = sorted(set(overrides) - set(corpus.pools))
    if unknown:
        raise ConfigurationError(f"--k-override names no dataset of the corpus: {', '.join(unknown)}")
    settings_dict = {
        "checkpoint_sha256": hashlib.sha256(Path(args.checkpoint).read_bytes()).hexdigest(),
        "corpus_seed": corpus.seed,
        "corpus_spec": corpus.spec,
        "scopes": scopes,
        "ks": ks,
        "overrides": tuple(sorted(overrides.items())),
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
    cfg = EncoderConfig(
        vocab_size=1000, d_model=args.d_model, n_heads=1, n_layers=args.layers,
        max_seq=max(args.seq, 1), k=min(args.k, args.layers) or 1,
    )
    pruned = estimate_flops(cfg, args.k, args.seq)
    full = estimate_flops(cfg, args.layers, args.seq)
    ratio = layer_stack_ratio(cfg, args.k, args.seq)
    print(f"flops(k={args.k}, seq={args.seq}, d={args.d_model}): {pruned}")
    print(f"flops(L={args.layers}, seq={args.seq}, d={args.d_model}): {full}")
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
    try:
        lambdas = [float(v) for v in args.lambdas.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"--lambdas wants comma-separated numbers, got {args.lambdas!r}"
        ) from None
    if len(set(lambdas)) != len(lambdas):
        raise ConfigurationError(f"--lambdas repeats a value: {args.lambdas!r}")
    schedules = [TemperatureSchedule(tau0=args.tau0, lam=lam, mode=args.temp_mode) for lam in lambdas]
    corpus = Corpus.load(args.corpus)
    init, _ = load_checkpoint(args.init)
    configs = [
        _train_config(args, 2, init.config, init.config.n_layers, temperature=schedule)
        for schedule in schedules
    ]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for lam, config in zip(lambdas, configs):
        result = run_stage(corpus, config, encoder=init)
        settings_dict = {"lam": lam, "tau0": args.tau0, "mode": args.temp_mode,
                         "seed": args.seed, "epochs": args.epochs}
        report = evaluate(
            result.encoder, corpus, scopes=("local", "global"), ks=(5,),
            checkpoint=f"sweep-lam-{lam}", settings=settings_dict,
        )
        path = out_dir / f"report-lam-{lam}.csv"
        report.to_csv(path)
        summary.append((lam, report.config_hash, report.mean_recall("local")))
        print(f"lam={lam}: mean local recall {report.mean_recall('local'):.4f} -> {path}")
    with open(out_dir / "summary.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["lam", "config_hash", "mean_local_recall"])
        for lam, config_hash, recall in summary:
            writer.writerow([lam, config_hash, f"{recall:.6f}"])
    print(f"wrote {out_dir / 'summary.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _settings(p: argparse.ArgumentParser):
    """Give ``p`` a --config flag and --seed; return the function that
    declares its other settings. The dest of each setting flag is a config key."""
    p.add_argument("--config", help="file of 'key = value' lines, one key per setting flag")
    group = p.add_argument_group("settings", "each is also a --config key, named as its dest")
    flags: dict[str, argparse.Action] = {}
    p.set_defaults(settings=flags)

    def setting(*names, **kwargs) -> None:
        action = group.add_argument(*names, **kwargs)
        flags[action.dest] = action

    setting("--seed", type=int, default=0)
    return setting


def _training_settings(p: argparse.ArgumentParser):
    """The settings every training run reads: each stage of train, and sweep."""
    setting = _settings(p)
    setting("--epochs", type=int, default=3)
    setting("--lr", type=float, default=TrainConfig.lr)
    setting("--shards", type=int, default=TrainConfig.shards)
    setting("--batch", type=int, default=TrainConfig.per_shard_batch, help="per-shard batch size")
    setting("--tau0", type=float, default=TemperatureSchedule.tau0)
    setting("--steps-per-epoch", type=int, help="cap on steps per epoch")
    return setting


def _stage_parser(stages, stage: int, summary: str) -> argparse.ArgumentParser:
    p = stages.add_parser(str(stage), help=summary)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--curve", help="loss-curve CSV path")
    p.set_defaults(func=cmd_train, stage=stage)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="umrlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    setting = _settings(p)
    setting("--concepts", type=int, default=CorpusSpec.n_concepts)
    setting("--tasks", type=_task_list, default=CorpusSpec.tasks, help="comma-separated task types")
    setting("--noise", type=float, default=CorpusSpec.noise)
    setting("--distractors", type=int, default=CorpusSpec.distractors)
    setting("--test-fraction", type=float, default=CorpusSpec.test_fraction)
    setting("--text-vocab", type=int, default=CorpusSpec.text_vocab_size)
    setting("--image-vocab", type=int, default=CorpusSpec.image_vocab_size)
    setting("--n-t", type=int, default=CorpusSpec.n_t)
    setting("--n-i", type=int, default=CorpusSpec.n_i)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run one training stage")
    stages = p.add_subparsers(metavar="stage", required=True)

    p = _stage_parser(stages, 0, "bootstrap a full-depth teacher with InfoNCE")
    setting = _training_settings(p)
    setting("--k", type=int, default=3, help="prune depth the checkpoint records for stage 1")
    setting("--d-model", type=int, default=32)
    setting("--n-heads", type=int, default=4)
    setting("--layers", type=int, default=8)
    setting("--max-seq", type=int, default=48)

    p = _stage_parser(stages, 1, "prune the teacher to k layers and self-distill from it")
    p.add_argument("--teacher", required=True, help="stage-0 checkpoint")
    setting = _training_settings(p)
    setting("--k", type=int, help="prune depth (default: the teacher's)")
    setting("--alpha-mode", choices=ALPHA_MODES, default=TrainConfig.alpha_mode)
    setting("--distill-variant", choices=DISTILL_VARIANTS, default=TrainConfig.distill_variant)
    setting("--distill-tau", type=float, default=TrainConfig.distill_tau)
    setting("--distill-normalize", action="store_true")

    p = _stage_parser(stages, 2, "instruction-tune all layers under the MAC loss")
    p.add_argument("--init", required=True, help="checkpoint to continue from")
    setting = _training_settings(p)
    setting("--lambda", dest="lam", type=float, default=TemperatureSchedule.lam)
    setting("--temp-mode", choices=TEMPERATURE_MODES, default=TemperatureSchedule.mode)

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
    p.add_argument("--d-model", dest="d_model", type=int, default=64)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("grad-check", help="verify gradients against finite differences")
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("sweep", help="decay-sparsity sweep over stage-2 runs")
    p.add_argument("--corpus", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--lambdas", default="0.2,0.5,0.7")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    setting = _training_settings(p)
    setting("--temp-mode", choices=TEMPERATURE_MODES, default=TemperatureSchedule.mode)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # a file value becomes its flag's default, so a given flag still wins
            for key, value in read_config(args.config, args.settings).items():
                args.settings[key].default = value
            args = parser.parse_args(argv)
        return args.func(args)
    except (UmrlabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
