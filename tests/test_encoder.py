import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import pytest

from umrlab import tensor as T
from umrlab.encoder import (
    Encoder,
    EncoderConfig,
    _blocks,
    embed,
    embed_batch,
    embed_raw,
    estimate_flops,
    forward,
    forward_raw,
    layer_stack_ratio,
    length_groups,
    parameter_names,
    prune,
)
from umrlab.errors import ContractError, LengthError, NumericDomainError
from umrlab.gradcheck import check_gradients
from umrlab.prompts import (
    CANDIDATE_INSTR_ID,
    INSTRUCTION_IDS,
    MODALITY_MARKERS,
    RET_TOKEN_ID,
    SEP_TOKEN_ID,
    SUMMARY_MARKERS,
    TokenSequence,
    assemble_prompt,
)


@dataclass
class Item:
    tokens: tuple
    modality: str
    task: str = "t2t"


SMALL = EncoderConfig(vocab_size=48, d_model=4, n_heads=2, n_layers=2, max_seq=8, k=1)


def small_tokens(ids=(40, 41)):
    return assemble_prompt(Item(tokens=tuple(ids), modality="text"), "candidate")


def per_sequence_ret_row(encoder, seq, upto):
    """Reference [RET] row: one single-sequence forward, indexed in numpy."""
    return forward(encoder, seq, upto).data[seq.ret_position]


class TestAssemblePrompt:
    def test_text_query_layout(self):
        seq = assemble_prompt(Item(tokens=(101, 102), modality="text", task="t2i"), "query")
        assert seq.ids == (
            INSTRUCTION_IDS["t2i"],
            MODALITY_MARKERS["text"],
            101,
            102,
            SEP_TOKEN_ID,
            SUMMARY_MARKERS["text"],
            RET_TOKEN_ID,
        )
        assert seq.ret_position == len(seq.ids) - 1

    def test_empty_content(self):
        seq = assemble_prompt(Item(tokens=(), modality="image", task="i2i"), "query")
        assert len(seq.ids) == 5
        assert seq.ret_position == 4

    def test_candidate_gets_noop_instruction(self):
        seq = assemble_prompt(Item(tokens=(101,), modality="text"), "candidate")
        assert seq.ids[0] == CANDIDATE_INSTR_ID

    def test_image_tokens_precede_text_tokens(self):
        # mixed content arrives image-rendered-first; the frame must keep it so
        seq = assemble_prompt(
            Item(tokens=(5000, 5001, 100, 101), modality="image_text", task="it2t"),
            "query",
        )
        content = seq.ids[2:-3]
        image_positions = [i for i, t in enumerate(content) if t >= 5000]
        text_positions = [i for i, t in enumerate(content) if 100 <= t < 5000]
        assert max(image_positions) < min(text_positions)

    def test_overflow_raises_length_error(self):
        with pytest.raises(LengthError):
            assemble_prompt(Item(tokens=tuple(range(100, 120)), modality="text"), "candidate", max_seq=8)

    def test_ret_must_be_last(self):
        with pytest.raises(ContractError, match="last position"):
            TokenSequence((RET_TOKEN_ID, 5))

    def test_empty_ids_rejected(self):
        with pytest.raises(ContractError, match="empty"):
            TokenSequence(())


class TestEncoderInit:
    @pytest.mark.parametrize(
        "name,shape", [("tok_emb", (2, 8)), ("layers.0.ffn.b1", (32, 1))], ids=["extent", "rank"]
    )
    def test_wrong_shape_rejected(self, name, shape):
        cfg = EncoderConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=1, max_seq=8, k=1)
        params = dict(Encoder.init(cfg, seed=0).params)
        params[name] = T.Tensor(np.zeros(shape), grad_tracked=True)
        with pytest.raises(ContractError, match=f"{name!r} has shape"):
            Encoder(cfg, params)


class TestForward:
    def test_deterministic_across_runs(self):
        enc = Encoder.init(SMALL, seed=9)
        seq = small_tokens()
        h1 = forward(enc, seq, 2)
        h2 = forward(enc, seq, 2)
        assert h1.data.tobytes() == h2.data.tobytes()

    def test_hidden_shape(self):
        enc = Encoder.init(SMALL, seed=0)
        seq = small_tokens()
        assert forward(enc, seq, 1).shape == (len(seq), 4)

    def test_upto_out_of_range(self):
        enc = Encoder.init(SMALL, seed=0)
        with pytest.raises(ContractError):
            forward(enc, small_tokens(), 3)

    @pytest.mark.parametrize("taped", [True, False], ids=["taped", "tape-free"])
    def test_overflow_raises_numeric_domain_error(self, taped):
        enc = Encoder.init(SMALL, seed=0)
        blown = enc.with_params(
            {n: T.Tensor(p.data * 1e300, grad_tracked=True) for n, p in enc.params.items()}
        )
        assert all(np.isfinite(p.data).all() for p in blown.params.values())
        with nullcontext() if taped else T.no_grad():
            with pytest.raises(NumericDomainError, match="overflow"):
                embed_batch(blown, [small_tokens(), small_tokens((40, 41, 42))], 2)

    def test_single_layer_single_head_matches_scalar_oracle(self):
        cfg = EncoderConfig(vocab_size=8, d_model=2, n_heads=1, n_layers=1, max_seq=4, k=1)
        enc = Encoder.init(cfg, seed=42)
        ids = [3, 5, 1]
        seq = TokenSequence((3, 5, 1))
        got = forward(enc, seq, 1).data

        p = {k: v.data.tolist() for k, v in enc.params.items()}
        eps = 1e-5
        n, d = len(ids), 2

        def ln(row, gain, bias):
            mu = sum(row) / d
            var = sum((x - mu) ** 2 for x in row) / d
            return [(x - mu) / math.sqrt(var + eps) * g + b for x, g, b in zip(row, gain, bias)]

        def mat(rows, w, b):
            return [
                [sum(r[l] * w[l][j] for l in range(len(r))) + b[j] for j in range(len(b))]
                for r in rows
            ]

        def gelu(x):
            return 0.5 * x * (1.0 + math.tanh(0.7978845608028654 * (x + 0.044715 * x**3)))

        h = [[p["tok_emb"][t][j] + p["pos_emb"][i][j] for j in range(d)] for i, t in enumerate(ids)]
        a = [ln(r, p["layers.0.ln1.gain"], p["layers.0.ln1.bias"]) for r in h]
        q = mat(a, p["layers.0.attn.wq"], p["layers.0.attn.bq"])
        k = mat(a, p["layers.0.attn.wk"], p["layers.0.attn.bk"])
        v = mat(a, p["layers.0.attn.wv"], p["layers.0.attn.bv"])
        scale = 1.0 / math.sqrt(d)
        mixed = []
        for i in range(n):
            scores = [sum(q[i][l] * k[j][l] for l in range(d)) * scale for j in range(n)]
            m = max(scores)
            e = [math.exp(s - m) for s in scores]
            z = sum(e)
            w = [x / z for x in e]
            mixed.append([sum(w[j] * v[j][l] for j in range(n)) for l in range(d)])
        o = mat(mixed, p["layers.0.attn.wo"], p["layers.0.attn.bo"])
        h = [[h[i][j] + o[i][j] for j in range(d)] for i in range(n)]
        f = [ln(r, p["layers.0.ln2.gain"], p["layers.0.ln2.bias"]) for r in h]
        f = mat(f, p["layers.0.ffn.w1"], p["layers.0.ffn.b1"])
        f = [[gelu(x) for x in r] for r in f]
        f = mat(f, p["layers.0.ffn.w2"], p["layers.0.ffn.b2"])
        want = [[h[i][j] + f[i][j] for j in range(d)] for i in range(n)]

        assert np.abs(got - np.array(want)).max() < 1e-10


class TestRawForward:
    def test_bitwise_identical_to_graph_forward(self):
        from umrlab.encoder import forward_raw

        for seed in range(5):
            cfg = EncoderConfig(vocab_size=48, d_model=8, n_heads=2, n_layers=3, max_seq=12, k=2)
            enc = Encoder.init(cfg, seed=seed)
            rng = np.random.default_rng(seed)
            ids = tuple(int(t) for t in rng.integers(36, 46, size=5))
            seq = assemble_prompt(Item(tokens=ids, modality="text"), "candidate")
            for upto in (1, 2, 3):
                a = forward(enc, seq, upto).data
                b = forward_raw(enc, seq, upto)
                assert a.tobytes() == b.tobytes()

    def test_builds_no_tape_on_tracked_params(self, monkeypatch):
        from umrlab.encoder import forward_raw

        built = []
        node = T._Node

        def counting(*args):
            built.append(args[0])
            return node(*args)

        monkeypatch.setattr(T, "_Node", counting)
        enc = Encoder.init(SMALL, seed=3)
        assert all(t.grad_tracked for t in enc.params.values())
        forward_raw(enc, small_tokens(), 2)
        assert built == []
        forward(enc, small_tokens(), 2)
        assert "attention" in built

    def test_embed_raw_matches_embed(self):
        from umrlab.encoder import embed_raw

        enc = Encoder.init(SMALL, seed=3)
        seq = small_tokens()
        a = embed(enc, seq, 2).data[0]
        b = embed_raw(enc, [seq], 2)
        assert b.shape == (1, SMALL.d_model)
        assert a.tobytes() == b[0].tobytes()

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_batch_rows_match_single_embeds(self, batch):
        from umrlab.encoder import embed_raw

        cfg = EncoderConfig(vocab_size=48, d_model=8, n_heads=2, n_layers=3, max_seq=12, k=2)
        enc = Encoder.init(cfg, seed=7)
        rng = np.random.default_rng(batch)
        seqs = [small_tokens(int(t) for t in rng.integers(36, 46, size=6)) for _ in range(batch)]
        for upto in (1, 2, 3):
            got = embed_raw(enc, seqs, upto)
            assert got.shape == (batch, cfg.d_model)
            for row, seq in zip(got, seqs):
                assert row.tobytes() == per_sequence_ret_row(enc, seq, upto).tobytes()

    def test_unequal_lengths_rejected(self):
        enc = Encoder.init(SMALL, seed=3)
        with pytest.raises(ContractError, match="lengths differ"):
            _blocks(enc, [small_tokens((40,)), small_tokens((40, 41))], 2)

    def test_empty_batch_rejected(self):
        from umrlab.encoder import embed_raw

        with pytest.raises(ContractError, match="no sequences"):
            embed_raw(Encoder.init(SMALL, seed=3), [], 2)


# every op the block stack and embed_batch run, and the node maker they share
TAPED_OPS = ("_result", "add", "take_rows", "concat_rows", "affine", "layer_norm_rows", "gelu", "attention")


@pytest.fixture
def no_taped_ops(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a taped op ran")

    for name in TAPED_OPS:
        monkeypatch.setattr(T, name, refuse)


class TestTapeFree:
    def test_embed_raw_runs_no_taped_op(self, request):
        enc = Encoder.init(SMALL, seed=3)
        seqs = [small_tokens(), small_tokens((40, 41, 42)), small_tokens((41, 40))]
        want = embed_batch(enc, seqs, 2).data
        request.getfixturevalue("no_taped_ops")
        assert embed_raw(enc, seqs, 2).tobytes() == want.tobytes()

    def test_overflow_raises_without_taped_ops(self, no_taped_ops):
        enc = Encoder.init(SMALL, seed=0)
        blown = enc.with_params(
            {n: T.Tensor(p.data * 1e300, grad_tracked=True) for n, p in enc.params.items()}
        )
        with pytest.raises(NumericDomainError, match="overflow"):
            embed_raw(blown, [small_tokens(), small_tokens((40, 41, 42))], 2)

    def test_mixed_lengths_byte_equal_to_taped_at_every_depth(self):
        cfg = EncoderConfig(vocab_size=48, d_model=12, n_heads=3, n_layers=4, max_seq=12, k=2)
        enc = Encoder.init(cfg, seed=5)
        rng = np.random.default_rng(5)
        seqs = [small_tokens(int(t) for t in rng.integers(36, 46, size=n)) for n in (2, 5, 2, 7, 1, 5, 5)]
        for upto in range(1, cfg.n_layers + 1):
            taped = embed_batch(enc, seqs, upto)
            assert taped._node is not None
            assert embed_raw(enc, seqs, upto).tobytes() == taped.data.tobytes()
            assert forward_raw(enc, seqs[3], upto).tobytes() == forward(enc, seqs[3], upto).data.tobytes()

    def test_outputs_are_read_only(self):
        enc = Encoder.init(SMALL, seed=3)
        for out in (embed_raw(enc, [small_tokens()], 2), forward_raw(enc, small_tokens(), 2)):
            with pytest.raises(ValueError, match="read-only"):
                out[0, 0] = 1.0

    def test_weights_cannot_be_swapped_in_place(self):
        enc = Encoder.init(SMALL, seed=3)
        assert all(enc.arrays[n] is t.data for n, t in enc.params.items())
        for table in (enc.params, enc.arrays):
            with pytest.raises(TypeError):
                table["tok_emb"] = None


class TestBatchedEmbed:
    def test_length_groups_in_first_seen_order(self):
        seqs = [small_tokens(ids) for ids in ((40,), (40, 41), (41,), (40, 41, 42), (42, 43))]
        assert length_groups(seqs) == [[0, 2], [1, 4], [3]]

    @pytest.mark.parametrize("taped", [True, False])
    def test_rows_match_per_sequence_embeds(self, taped):
        cfg = EncoderConfig(vocab_size=48, d_model=8, n_heads=2, n_layers=3, max_seq=12, k=2)
        enc = Encoder.init(cfg, seed=7)
        rng = np.random.default_rng(3)
        seqs = [small_tokens(int(t) for t in rng.integers(36, 46, size=n)) for n in (3, 6, 3, 1, 6, 6)]
        for upto in (1, 3):
            with nullcontext() if taped else T.no_grad():
                got = embed_batch(enc, seqs, upto)
            assert got.shape == (len(seqs), cfg.d_model)
            assert (got._node is not None) == taped
            for row, seq in zip(got.data, seqs):
                assert row.tobytes() == per_sequence_ret_row(enc, seq, upto).tobytes()

    def test_empty_list_rejected(self):
        with pytest.raises(ContractError, match="no sequences"):
            embed_batch(Encoder.init(SMALL, seed=3), [], 2)


class TestExtract:
    def test_returns_last_row(self):
        enc = Encoder.init(SMALL, seed=1)
        seq = small_tokens()
        hidden = forward(enc, seq, 2)
        emb = embed(enc, seq, 2)
        assert emb.shape == (1, SMALL.d_model)
        assert np.array_equal(emb.data[0], hidden.data[-1])

    def test_context_changes_embedding(self):
        enc = Encoder.init(SMALL, seed=2)
        e1 = embed(enc, small_tokens((40, 41)), 2)
        e2 = embed(enc, small_tokens((41, 41)), 2)
        assert not np.array_equal(e1.data, e2.data)


class TestPrune:
    def test_full_depth_prune_is_identity(self):
        enc = Encoder.init(SMALL, seed=3)
        same = prune(enc, SMALL.n_layers)
        seq = small_tokens()
        assert forward(enc, seq, 2).data.tobytes() == forward(same, seq, 2).data.tobytes()

    def test_prefix_property_bitwise(self):
        cfg = EncoderConfig(vocab_size=48, d_model=8, n_heads=2, n_layers=5, max_seq=8, k=2)
        enc = Encoder.init(cfg, seed=4)
        seq = small_tokens()
        for k in (1, 2, 5):
            student = prune(enc, k)
            assert forward(enc, seq, k).data.tobytes() == forward(student, seq, k).data.tobytes()

    def test_parameter_count(self):
        cfg = EncoderConfig(vocab_size=48, d_model=4, n_heads=2, n_layers=8, max_seq=8, k=3)
        enc = Encoder.init(cfg, seed=5)
        student = prune(enc, 3)
        per_layer = len(parameter_names(cfg)) - 2
        assert per_layer == 8 * 16
        assert len(student.params) == 2 + 3 * 16
        assert student.config.n_layers == 3

    def test_prune_composes(self):
        cfg = EncoderConfig(vocab_size=48, d_model=4, n_heads=2, n_layers=8, max_seq=8, k=3)
        enc = Encoder.init(cfg, seed=6)
        a = prune(prune(enc, 5), 3)
        b = prune(enc, 3)
        assert a.param_bytes() == b.param_bytes()

    def test_prune_copies_weights(self):
        enc = Encoder.init(SMALL, seed=7)
        student = prune(enc, 1)
        assert student.params["tok_emb"] is not enc.params["tok_emb"]
        assert np.array_equal(student.params["tok_emb"].data, enc.params["tok_emb"].data)

    def test_out_of_range(self):
        enc = Encoder.init(SMALL, seed=8)
        with pytest.raises(ContractError):
            prune(enc, 0)
        with pytest.raises(ContractError):
            prune(enc, 3)


class TestFlops:
    CFG = EncoderConfig(vocab_size=100, d_model=64, n_heads=4, n_layers=28, max_seq=512, k=12)

    def test_layer_term_doubles_with_k(self):
        emb = estimate_flops(self.CFG, 0, 256)
        one = estimate_flops(self.CFG, 7, 256) - emb
        two = estimate_flops(self.CFG, 14, 256) - emb
        assert two == 2 * one

    @pytest.mark.parametrize("seq_len", [0, -1])
    def test_empty_sequence_rejected(self, seq_len):
        with pytest.raises(ContractError, match="seq_len"):
            estimate_flops(self.CFG, 3, seq_len)

    def test_k_zero_is_embedding_only(self):
        assert estimate_flops(self.CFG, 0, 256) == 2 * 256 * 64

    def test_ratio_for_12_of_28(self):
        assert layer_stack_ratio(self.CFG, 12, 256) == pytest.approx(12 / 28, abs=1e-12)

    def test_strictly_increasing_affine_in_k(self):
        counts = [estimate_flops(self.CFG, k, 64) for k in range(0, 9)]
        diffs = {b - a for a, b in zip(counts, counts[1:])}
        assert len(diffs) == 1
        assert diffs.pop() > 0


def test_encoder_gradients_match_finite_differences():
    enc = Encoder.init(SMALL, seed=11)
    seq = small_tokens()
    names = parameter_names(SMALL)

    def loss_fn(*tensors):
        model = Encoder(SMALL, dict(zip(names, tensors)))
        emb = embed(model, seq, 2)
        return T.mean(T.mul(emb, emb))

    xs = [enc.params[n] for n in names]
    assert check_gradients(loss_fn, xs) < 1e-4
