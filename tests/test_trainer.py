import math
import struct
from collections import Counter

import numpy as np
import pytest

from umrlab import checkpoint as checkpoint_module
from umrlab import encoder as encoder_module
from umrlab import tensor as T
from umrlab import trainer
from umrlab.checkpoint import load_checkpoint, save_checkpoint
from umrlab.datagen import CorpusSpec, generate_corpus, vocab_size_for
from umrlab.encoder import Encoder, EncoderConfig, forward, prune
from umrlab.errors import (
    AggregationError,
    ConfigurationError,
    DimensionError,
    FormatError,
    NumericDomainError,
    VersionError,
)
from umrlab.losses import TemperatureSchedule, self_distill, tau_hard_at
from umrlab.optim import OptimizerState, adam_update
from umrlab.prompts import assemble_prompt
from umrlab.tensor import Tensor
from umrlab.trainer import (
    GlobalBatch,
    TrainConfig,
    all_reduce_grads,
    batch_from,
    compute_global_grads,
    gather_shards,
    run_stage,
    split_shards,
    train_step,
    write_curve,
)

SPEC = CorpusSpec(
    n_concepts=24,
    tasks=("t2t", "t2i", "i2t"),
    text_vocab_size=60,
    image_vocab_size=60,
    n_t=4,
    n_i=6,
    noise=0.05,
    distractors=1,
    test_fraction=0.25,
)
ENC = EncoderConfig(
    vocab_size=vocab_size_for(SPEC), d_model=8, n_heads=2, n_layers=4, max_seq=24, k=2
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SPEC, seed=11)


def config(stage, **kw):
    base = dict(
        stage=stage, encoder=ENC, shards=1, per_shard_batch=4, epochs=1,
        lr=1e-3, seed=5, k=2,
        temperature=TemperatureSchedule(tau0=0.1, lam=0.2, mode="mac"),
    )
    base.update(kw)
    return TrainConfig(**base)


class TestGather:
    def test_single_shard_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal(gather_shards([x]).data, x.data)

    def test_shard_order(self):
        a = Tensor([[0.0, 1.0]])
        b = Tensor([[2.0, 3.0]])
        out = gather_shards([a, b]).data
        assert np.array_equal(out, [[0.0, 1.0], [2.0, 3.0]])

    def test_split_gather_round_trip(self, corpus):
        batch = batch_from(corpus, corpus.train[:8])
        shards = split_shards(batch, 4)
        rebuilt = [s for ctx in shards for s in ctx.samples]
        assert [s.id for s in rebuilt] == [s.id for s in batch.samples]

    def test_missing_shard_named(self):
        with pytest.raises(AggregationError, match="shard 1"):
            gather_shards([Tensor([[1.0]]), None])


class TestAllReduce:
    def test_single_shard_identity(self):
        g = {"w": np.array([1.0, 2.0])}
        out = all_reduce_grads([g])
        assert np.array_equal(out["w"], g["w"])

    def test_sums_in_shard_order_without_writing_a_shard(self):
        rng = np.random.default_rng(0)
        gs = [{"w": rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-8, 9, size=(3, 4))} for _ in range(4)]
        before = [g["w"].copy() for g in gs]
        for s in (2, 3, 4):
            want = before[0] + before[1]
            for b in before[2:s]:
                want = want + b
            assert all_reduce_grads(gs[:s])["w"].tobytes() == want.tobytes()
        assert all(g["w"].tobytes() == b.tobytes() for g, b in zip(gs, before))

    def test_zero_shards_sum_to_zero(self):
        gs = [{"w": np.zeros(3)} for _ in range(4)]
        assert np.array_equal(all_reduce_grads(gs)["w"], np.zeros(3))

    def test_key_mismatch(self):
        with pytest.raises(AggregationError):
            all_reduce_grads([{"a": np.zeros(2)}, {"b": np.zeros(2)}])

    def test_shape_mismatch(self):
        with pytest.raises(AggregationError):
            all_reduce_grads([{"a": np.zeros(2)}, {"a": np.zeros(3)}])


class TestAdam:
    def test_zero_grad_leaves_params_bitwise(self):
        params = {"w": Tensor(np.linspace(0, 1, 4), grad_tracked=True)}
        state = OptimizerState.init(params, lr=0.1)
        new, _ = adam_update(params, {"w": np.zeros(4)}, state)
        assert new["w"].data.tobytes() == params["w"].data.tobytes()

    def test_moment_free_limit(self):
        g = np.array([0.5, -2.0, 0.0])
        params = {"w": Tensor(np.zeros(3), grad_tracked=True)}
        state = OptimizerState.init(params, lr=0.1, beta1=0.0, beta2=0.0)
        new, _ = adam_update(params, {"w": g}, state)
        want = -0.1 * g / (np.abs(g) + 1e-8)
        assert np.abs(new["w"].data - want).max() < 1e-15

    def test_ten_steps_match_scalar_oracle(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=3) for _ in range(10)]

        params = {"w": Tensor(np.ones(3), grad_tracked=True)}
        state = OptimizerState.init(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        old_w, old_m, old_v = np.ones(3), np.zeros(3), np.zeros(3)
        for t, g in enumerate(grads, start=1):
            params, state = adam_update(params, {"w": g}, state)
            # the update as a vectorized expression, wrapped by the copying constructor
            old_m = b1 * old_m + (1.0 - b1) * g
            old_v = b2 * old_v + (1.0 - b2) * (g * g)
            update = lr * (old_m / (1.0 - b1**t)) / (np.sqrt(old_v / (1.0 - b2**t)) + eps)
            old_w = Tensor(old_w - update, grad_tracked=True).data
            assert params["w"].data.tobytes() == old_w.tobytes()
            assert params["w"].grad_tracked and not params["w"].data.flags.writeable

        w = [1.0, 1.0, 1.0]
        m = [0.0] * 3
        v = [0.0] * 3
        for t, g in enumerate(grads, start=1):
            for i in range(3):
                m[i] = b1 * m[i] + (1 - b1) * g[i]
                v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
                mhat = m[i] / (1 - b1**t)
                vhat = v[i] / (1 - b2**t)
                w[i] -= lr * mhat / (math.sqrt(vhat) + eps)
        assert np.abs(params["w"].data - np.array(w)).max() < 1e-12

    def test_shape_mismatch(self):
        params = {"w": Tensor(np.zeros(3), grad_tracked=True)}
        state = OptimizerState.init(params, lr=0.1)
        with pytest.raises(DimensionError):
            adam_update(params, {"w": np.zeros(4)}, state)


SHARD_CASES = {
    "stage0": dict(stage=0),
    "stage1-mse": dict(stage=1, alpha_mode="dynamic"),
    "stage1-kl-normalized": dict(
        stage=1, alpha_mode="dynamic", distill_variant="kl", distill_normalize=True
    ),
    "stage2-mixed": dict(stage=2),
}


class TestTrainStep:
    def test_zero_lr_leaves_weights(self, corpus):
        cfg = config(0, lr=0.0)
        enc = Encoder.init(ENC, seed=1)
        opt = OptimizerState.init(enc.params, 0.0)
        batch = batch_from(corpus, [s for s in corpus.train if s.task == "t2t"][:4])
        new, _, _ = train_step(enc, None, batch, cfg, opt, 0.0)
        assert new.param_bytes() == enc.param_bytes()

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -1e-3])
    def test_bad_lr_rejected(self, lr):
        with pytest.raises(ConfigurationError, match="lr"):
            config(0, lr=lr)

    def test_unknown_alpha_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="alpha mode must be one of"):
            config(1, alpha_mode="linear")

    @pytest.mark.parametrize("case", list(SHARD_CASES))
    def test_shard_equivalence_gradients_and_weights(self, corpus, case):
        overrides = dict(SHARD_CASES[case])
        stage = overrides.pop("stage")
        full = Encoder.init(ENC, seed=2)
        t2t = [s for s in corpus.train if s.task == "t2t"][:8]
        if stage == 0:
            enc, teacher, samples, progress = full, None, t2t, 0.0
        elif stage == 1:
            enc, teacher, samples, progress = prune(full, 2), full, t2t, 0.5
        else:
            # interleaved so every shard holds both target modalities
            images = [s for s in corpus.train if s.task == "t2i"][:4]
            texts = [s for s in corpus.train if s.task != "t2i"][:4]
            samples = [s for pair in zip(images, texts) for s in pair]
            enc, teacher, progress = prune(full, 2), None, 0.5
        batch = batch_from(corpus, samples)
        if stage == 2:
            assert set(batch.tags) == {"text", "image"}
        results = {}
        for shards in (1, 2, 4):
            cfg = config(stage, shards=shards, per_shard_batch=8 // shards, **overrides)
            grads, breakdown = compute_global_grads(enc, teacher, batch, cfg, progress)
            assert (breakdown["distill"] > 0.0) == (stage == 1)
            opt = OptimizerState.init(enc.params, cfg.lr)
            stepped, _, _ = train_step(enc, teacher, batch, cfg, opt, progress)
            results[shards] = (grads, stepped)
        ref_grads, ref_model = results[1]
        for shards in (2, 4):
            grads, model = results[shards]
            worst = max(np.abs(grads[n] - ref_grads[n]).max() for n in ref_grads)
            assert worst < 1e-10
            diff = max(
                np.abs(model.params[n].data - ref_model.params[n].data).max()
                for n in ref_model.params
            )
            assert diff < 1e-10

    def test_stage1_requires_teacher(self, corpus):
        cfg = config(1)
        enc = Encoder.init(ENC, seed=4)
        student = prune(enc, 2)
        opt = OptimizerState.init(student.params, cfg.lr)
        batch = batch_from(corpus, [s for s in corpus.train if s.task == "t2t"][:4])
        with pytest.raises(ConfigurationError):
            train_step(student, None, batch, cfg, opt, 0.0)

    def test_stage2_forbids_teacher(self, corpus):
        cfg = config(2)
        enc = Encoder.init(ENC, seed=4)
        student = prune(enc, 2)
        opt = OptimizerState.init(student.params, cfg.lr)
        batch = batch_from(corpus, corpus.train[:4])
        with pytest.raises(ConfigurationError):
            train_step(student, enc, batch, cfg, opt, 0.0)

    def test_stage2_all_same_tags_equals_plain_infonce_step(self, corpus):
        # all-text batch + lam=0: the adaptive step reduces to InfoNCE exactly
        t2t = [s for s in corpus.train if s.task == "t2t"][:4]
        batch = batch_from(corpus, t2t)
        enc = prune(Encoder.init(ENC, seed=6), 2)
        temp = TemperatureSchedule(tau0=0.1, lam=0.0, mode="mac")
        out = {}
        for mode in ("mac", "off"):
            cfg = config(2, temperature=TemperatureSchedule(tau0=0.1, lam=0.0, mode=mode))
            opt = OptimizerState.init(enc.params, cfg.lr)
            stepped, _, loss = train_step(enc, None, batch, cfg, opt, 0.5)
            out[mode] = (stepped.param_bytes(), loss["total"])
        assert out["mac"][0] == out["off"][0]
        assert out["mac"][1] == out["off"][1]


# one task per query/candidate length pair, so prompts run 13, 21 and 29
# tokens on both sides
MIXED_SPEC = CorpusSpec(
    n_concepts=8,
    tasks=("t2t", "i2i", "t2it", "it2t"),
    text_vocab_size=60,
    image_vocab_size=60,
    distractors=0,
    test_fraction=0.25,
)
MIXED_ENC = EncoderConfig(
    vocab_size=vocab_size_for(MIXED_SPEC), d_model=8, n_heads=2, n_layers=3, max_seq=32, k=2
)


@pytest.fixture(scope="module")
def mixed_batch():
    corpus = generate_corpus(MIXED_SPEC, seed=4)
    by_task: dict[str, list] = {}
    for sample in corpus.train:
        by_task.setdefault(sample.task, []).append(sample)
    # round-robin over the tasks, so neighbours differ in prompt length
    samples = [s for four in zip(*(by_task[t] for t in MIXED_SPEC.tasks)) for s in four]
    batch = batch_from(corpus, samples[:8])
    for side, items in (("query", batch.samples), ("candidate", batch.positives)):
        assert {len(assemble_prompt(item, side)) for item in items} == {13, 21, 29}
    return batch


def per_prompt_block(encoder, samples, positives, upto, cache=None):
    """Reference for trainer._embed_block: one taped forward per prompt."""
    assert cache is None

    def side_rows(items, side):
        rows = []
        for item in items:
            seq = assemble_prompt(item, side, encoder.config.max_seq)
            rows.append(T.take_rows(forward(encoder, seq, upto), [seq.ret_position]))
        return T.concat_rows(rows)

    return side_rows(samples, "query"), side_rows(positives, "candidate")


class LookupCounter(dict):
    def __init__(self):
        super().__init__()
        self.gets = Counter()

    def get(self, key, default=None):
        self.gets[key] += 1
        return super().get(key, default)


class TestBatchedEmbedding:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_gradients_match_per_prompt_reference(self, mixed_batch, shards, monkeypatch):
        enc = prune(Encoder.init(MIXED_ENC, seed=3), 2)
        cfg = config(2, encoder=MIXED_ENC, shards=shards, per_shard_batch=8 // shards)
        grads, losses = compute_global_grads(enc, None, mixed_batch, cfg, 0.5)
        monkeypatch.setattr(trainer, "_embed_block", per_prompt_block)
        ref_grads, ref_losses = compute_global_grads(enc, None, mixed_batch, cfg, 0.5)
        assert losses == ref_losses
        # an absolute bound scaled to the step: some gradients, such as the
        # key bias's, are zero in exact arithmetic and pure roundoff here
        bound = 1e-12 * max(np.abs(g).max() for g in ref_grads.values())
        for name, g in ref_grads.items():
            assert np.abs(grads[name] - g).max() <= bound, name

    def test_one_forward_per_prompt_length_across_both_sides(self, mixed_batch, monkeypatch):
        lengths = []
        blocks = encoder_module._blocks

        def counting(enc, batch, upto):
            lengths.append(len(batch[0]))
            return blocks(enc, batch, upto)

        monkeypatch.setattr(encoder_module, "_blocks", counting)
        enc = prune(Encoder.init(MIXED_ENC, seed=3), 2)
        cfg = config(2, encoder=MIXED_ENC, shards=1, per_shard_batch=8)
        compute_global_grads(enc, None, mixed_batch, cfg, 0.5)
        assert sorted(lengths) == [13, 21, 29]

    def test_teacher_cache_one_lookup_per_item_and_rows_match_embed(self, mixed_batch):
        teacher = Encoder.init(MIXED_ENC, seed=5)
        student = prune(teacher, 2)
        cfg = config(1, encoder=MIXED_ENC, shards=2, per_shard_batch=4)
        items = [*mixed_batch.samples, *mixed_batch.positives]
        sides = ["query"] * len(mixed_batch) + ["candidate"] * len(mixed_batch)
        keys = [(side, item.id) for side, item in zip(sides, items)]
        cache = LookupCounter()
        first, _ = compute_global_grads(student, teacher, mixed_batch, cfg, 0.5, cache)
        assert cache.gets == Counter(keys) and set(cache) == set(keys)
        for key, side, item in zip(keys, sides, items):
            with T.no_grad():
                prompt = assemble_prompt(item, side, MIXED_ENC.max_seq)
                hidden = forward(teacher, prompt, MIXED_ENC.n_layers).data
                want = hidden[prompt.ret_position : prompt.ret_position + 1]
            assert cache[key].shape == want.shape and cache[key].tobytes() == want.tobytes()
            assert cache[key].flags.owndata
        second, _ = compute_global_grads(student, teacher, mixed_batch, cfg, 0.5, cache)
        assert cache.gets == Counter(keys * 2)
        assert all(first[n].tobytes() == second[n].tobytes() for n in first)


def plant_nan(encoder, name="layers.0.ffn.w1"):
    params = dict(encoder.params)
    data = params[name].data.copy()
    data[0, 0] = np.nan
    params[name] = Tensor(data, grad_tracked=True)
    return encoder.with_params(params)


class TestNonFinite:
    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_nan_weight_stops_the_stage(self, corpus, stage, monkeypatch):
        planted = plant_nan(Encoder.init(ENC, seed=12))
        given = {}
        if stage == 0:
            monkeypatch.setattr(Encoder, "init", classmethod(lambda cls, cfg, seed: planted))
        else:
            given["teacher" if stage == 1 else "encoder"] = planted
        with pytest.raises(
            NumericDomainError, match=rf"^stage {stage}, epoch 0, step 0: contrastive loss is nan$"
        ):
            run_stage(corpus, config(stage, epochs=2), **given)

    def test_non_finite_update_names_the_parameter(self, corpus, monkeypatch):
        enc = Encoder.init(ENC, seed=13)
        cfg = config(0)
        batch = batch_from(corpus, [s for s in corpus.train if s.task == "t2t"][:4])
        grads, losses = compute_global_grads(enc, None, batch, cfg, 0.0)
        grads = dict(grads, **{"layers.1.attn.wq": np.full((8, 8), np.nan)})
        monkeypatch.setattr(trainer, "compute_global_grads", lambda *args: (grads, losses))
        with pytest.raises(NumericDomainError, match="'layers.1.attn.wq'"):
            train_step(enc, None, batch, cfg, OptimizerState.init(enc.params, cfg.lr), 0.0)


class TestRunStage:
    def test_zero_epochs_returns_initialization(self, corpus):
        cfg = config(0, epochs=0)
        result = run_stage(corpus, cfg)
        assert result.encoder.param_bytes() == Encoder.init(ENC, cfg.seed).param_bytes()
        assert result.curve == []

    @pytest.mark.parametrize("setting", [{"epochs": -1}, {"steps_per_epoch": 0}, {"steps_per_epoch": -3}])
    def test_bad_epoch_setting_rejected(self, setting):
        with pytest.raises(ConfigurationError, match="must be >= "):
            config(0, **setting)

    def test_deterministic_bitwise(self, corpus):
        cfg = config(0, epochs=2, steps_per_epoch=2)
        a = run_stage(corpus, cfg)
        b = run_stage(corpus, cfg)
        assert a.encoder.param_bytes() == b.encoder.param_bytes()
        assert all(
            np.array_equal(a.optimizer.m[n], b.optimizer.m[n]) for n in a.optimizer.m
        )
        assert [r.total for r in a.curve] == [r.total for r in b.curve]

    def test_stage1_pipeline_and_teacher_immutability(self, corpus):
        teacher = run_stage(corpus, config(0, epochs=1, steps_per_epoch=2)).encoder
        before = teacher.param_bytes()
        cfg = config(1, epochs=2, steps_per_epoch=2, alpha_mode="dynamic")
        result = run_stage(corpus, cfg, teacher=teacher)
        assert teacher.param_bytes() == before
        assert result.encoder.config.n_layers == cfg.k
        assert all(r.distill > 0.0 for r in result.curve)

    def test_stage2_never_calls_distill(self, corpus, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return self_distill(*args, **kwargs)

        monkeypatch.setattr(trainer, "self_distill", counting)
        enc = prune(Encoder.init(ENC, seed=7), 2)
        run_stage(corpus, config(2, epochs=1, steps_per_epoch=3), encoder=enc)
        assert calls == []

    def test_stage_corpus_mismatch(self):
        spec = CorpusSpec(n_concepts=8, tasks=("t2i",), distractors=1, test_fraction=0.25)
        no_t2t = generate_corpus(spec, seed=0)
        cfg = TrainConfig(
            stage=0,
            encoder=ENC,
            per_shard_batch=2,
            k=2,
        )
        with pytest.raises(ConfigurationError):
            run_stage(no_t2t, cfg)

    def test_stage1_loss_trend_downward(self, corpus):
        # epoch means are noisy at this corpus size; the smooth-curve version
        # of this property runs on the default corpus in the acceptance suite
        wins = 0
        for seed in (0, 1, 2):
            teacher = run_stage(
                corpus, config(0, epochs=2, steps_per_epoch=4, seed=seed, lr=5e-3)
            ).encoder
            cfg = config(1, epochs=5, steps_per_epoch=4, seed=seed, lr=5e-3)
            curve = run_stage(corpus, cfg, teacher=teacher).curve
            totals = [r.total for r in curve]
            wins += totals[-1] <= totals[0]
        assert wins >= 2

    def test_curve_reports_the_temperature_the_loss_used(self, corpus):
        schedule = config(0).temperature
        teacher = run_stage(corpus, config(0, epochs=3, steps_per_epoch=1))
        student = run_stage(corpus, config(1, epochs=3, steps_per_epoch=1), teacher=teacher.encoder)
        # InfoNCE at stages 0 and 1 runs at tau0 in every epoch
        assert [r.tau_hard for r in teacher.curve + student.curve] == [schedule.tau0] * 6
        tuned = run_stage(corpus, config(2, epochs=3, steps_per_epoch=1), encoder=student.encoder)
        assert [r.tau_hard for r in tuned.curve] == [tau_hard_at(schedule, e / 3) for e in range(3)]
        assert tuned.curve[2].tau_hard < schedule.tau0

    def test_curve_csv(self, corpus, tmp_path):
        result = run_stage(corpus, config(0, epochs=2, steps_per_epoch=2))
        path = tmp_path / "curve.csv"
        write_curve(path, result.curve)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "stage,epoch,contrastive,distill,total,tau_hard,alpha1,alpha2"
        assert len(lines) == 3


class TestCheckpoint:
    def test_round_trip_weights_only(self, corpus, tmp_path):
        enc = Encoder.init(ENC, seed=8)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, enc)
        loaded, opt = load_checkpoint(path)
        assert opt is None
        assert loaded.config == enc.config
        assert loaded.param_bytes() == enc.param_bytes()

    def test_round_trip_with_optimizer_bitwise(self, corpus, tmp_path):
        result = run_stage(corpus, config(0, epochs=1, steps_per_epoch=2))
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, result.encoder, result.optimizer)
        loaded, opt = load_checkpoint(path)
        assert loaded.param_bytes() == result.encoder.param_bytes()
        assert opt.step == result.optimizer.step
        assert opt.lr == result.optimizer.lr
        for name in result.optimizer.m:
            assert opt.m[name].tobytes() == result.optimizer.m[name].tobytes()
            assert opt.v[name].tobytes() == result.optimizer.v[name].tobytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        enc = Encoder.init(ENC, seed=9)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, enc)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected_with_offset(self, tmp_path):
        enc = Encoder.init(ENC, seed=10)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, enc)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset is not None

    def test_layer_count_beyond_the_file_rejected_at_config(self, tmp_path, monkeypatch):
        enc = Encoder.init(ENC, seed=10)
        path = tmp_path / "deep.ckpt"
        save_checkpoint(path, enc)
        blob = bytearray(path.read_bytes())
        config_at = len(b"PUMACKPT") + 1
        # n_layers is the fourth config field; a flip of its top bit asks for 2**31 + 4 layers
        blob[config_at + 15] ^= 0x80
        path.write_bytes(bytes(blob))
        # the shapes of that many layers would exhaust memory; they are never built
        monkeypatch.setattr(checkpoint_module, "parameter_shapes", None)
        with pytest.raises(FormatError, match="layers cannot fit a checkpoint") as err:
            load_checkpoint(path)
        assert err.value.offset == config_at

    def test_non_utf8_name_rejected_at_name(self, tmp_path):
        enc = Encoder.init(ENC, seed=10)
        path = tmp_path / "u.ckpt"
        save_checkpoint(path, enc)
        blob = bytearray(path.read_bytes())
        at = blob.index(b"pos_emb")
        blob[at] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="UTF-8") as err:
            load_checkpoint(path)
        assert err.value.offset == at

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_weight_rejected_at_tensor_data(self, tmp_path, value):
        enc = Encoder.init(ENC, seed=10)
        params = dict(enc.params)
        w1 = params["layers.0.ffn.w1"].data.copy()
        w1[1, 2] = value
        params["layers.0.ffn.w1"] = Tensor(w1, grad_tracked=True)
        path = tmp_path / "n.ckpt"
        save_checkpoint(path, enc.with_params(params))
        blob = path.read_bytes()
        name = b"layers.0.ffn.w1"
        data_at = blob.index(name) + len(name) + 1 + 4 * w1.ndim
        with pytest.raises(FormatError, match="'layers.0.ffn.w1' holds a non-finite weight") as err:
            load_checkpoint(path)
        assert err.value.offset == data_at

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        enc = Encoder.init(ENC, seed=10)
        path = tmp_path / "v.ckpt"
        save_checkpoint(path, enc)
        blob = bytearray(path.read_bytes())
        blob[8] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "name,shape",
        [("tok_emb", (2, 8)), ("layers.0.ffn.b1", (32, 1))],
        ids=["extent", "rank"],
    )
    def test_shape_mismatch_rejected_at_shape_field(self, tmp_path, name, shape):
        cfg = EncoderConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=1, max_seq=8, k=1)
        enc = Encoder.init(cfg, seed=0)
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, enc)
        valid = path.read_bytes()
        # rewrite the tensor's rank and extents in place; its data is never reached
        at = valid.index(name.encode()) + len(name)
        field = struct.pack(f"<B{len(shape)}I", len(shape), *shape)
        blob = valid[:at] + field + valid[at + 1 + 4 * enc.params[name].ndim :]
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="config implies") as err:
            load_checkpoint(path)
        assert err.value.offset == blob.index(name.encode()) + len(name)
