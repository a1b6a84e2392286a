import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import per_op_reference as per_op
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umrlab import tensor as T
from umrlab.datagen import CorpusSpec, generate_corpus, vocab_size_for
from umrlab.encoder import (
    FFN_MULT,
    RET_TAIL_ROWS,
    Encoder,
    EncoderConfig,
    _blocks,
    embed_flops,
    embed_raw,
    embed_taped,
    estimate_flops,
    forward,
    forward_raw,
    layer_stack_ratio,
    length_groups,
    parameter_names,
    prune,
)
from umrlab.errors import ContractError, LengthError, NumericDomainError
from umrlab.gradcheck import check_gradients, gradient_suite
from umrlab.losses import TemperatureSchedule
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
from umrlab.trainer import TrainConfig, batch_from, compute_global_grads


@dataclass
class Item:
    tokens: tuple
    modality: str
    task: str = "t2t"


SMALL = EncoderConfig(vocab_size=48, d_model=4, n_heads=2, n_layers=2, max_seq=8, k=1)


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: the form every encoder weight takes."""
    a.flags.writeable = False
    return a


def small_tokens(ids=(40, 41)):
    return assemble_prompt(Item(tokens=tuple(ids), modality="text"), "candidate")


def per_sequence_ret_row(encoder, seq, upto):
    """Reference [RET] row: one single-sequence forward, indexed in numpy."""
    return forward(encoder, seq, upto)[-1]


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

    def test_empty_content(self):
        seq = assemble_prompt(Item(tokens=(), modality="image", task="i2i"), "query")
        assert len(seq.ids) == 5
        assert seq.ids[-1] == RET_TOKEN_ID

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
        params[name] = read_only(np.zeros(shape))
        with pytest.raises(ContractError, match=f"{name!r} has shape"):
            Encoder(cfg, params)

    @pytest.mark.parametrize(
        "weight",
        [np.zeros((8,)), read_only(np.zeros((8,), dtype=np.float32)), T.Tensor(np.zeros((8,)))],
        ids=["writable", "float32", "tensor"],
    )
    def test_weight_that_is_not_a_read_only_float64_array_rejected(self, weight):
        cfg = EncoderConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=1, max_seq=8, k=1)
        params = dict(Encoder.init(cfg, seed=0).params)
        params["layers.0.ln1.bias"] = weight
        with pytest.raises(ContractError, match="'layers.0.ln1.bias' is not a read-only float64"):
            Encoder(cfg, params)


class TestForward:
    def test_deterministic_across_runs(self):
        enc = Encoder.init(SMALL, seed=9)
        seq = small_tokens()
        h1 = forward(enc, seq, 2)
        h2 = forward(enc, seq, 2)
        assert h1.tobytes() == h2.tobytes()

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
        blown = enc.with_params({n: read_only(p * 1e300) for n, p in enc.params.items()})
        assert all(np.isfinite(p).all() for p in blown.params.values())
        seqs = [small_tokens(), small_tokens((40, 41, 42))]
        with pytest.raises(NumericDomainError, match="overflow"):
            embed_taped(blown, seqs, 2) if taped else embed_raw(blown, seqs, 2)

    def test_single_layer_single_head_matches_scalar_oracle(self):
        cfg = EncoderConfig(vocab_size=8, d_model=2, n_heads=1, n_layers=1, max_seq=4, k=1)
        enc = Encoder.init(cfg, seed=42)
        ids = [3, 5, 1]
        seq = TokenSequence((3, 5, 1))
        got = forward(enc, seq, 1)

        p = {k: v.tolist() for k, v in enc.params.items()}
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
        # forward_raw is forward, and a taped stack's hidden states are the
        # tape-free ones
        assert forward_raw is forward
        for seed in range(5):
            cfg = EncoderConfig(vocab_size=48, d_model=8, n_heads=2, n_layers=3, max_seq=12, k=2)
            enc = Encoder.init(cfg, seed=seed)
            rng = np.random.default_rng(seed)
            ids = tuple(int(t) for t in rng.integers(36, 46, size=5))
            seq = assemble_prompt(Item(tokens=ids, modality="text"), "candidate")
            for upto in (1, 2, 3):
                a, _ = _blocks(enc, [seq], upto, True)
                b = forward_raw(enc, seq, upto)
                assert a.tobytes() == b.tobytes()

    def test_builds_no_tape_on_tracked_params(self, monkeypatch):
        built = []
        node = T._Node

        def counting(*args):
            built.append(node(*args))
            return built[-1]

        monkeypatch.setattr(T, "_Node", counting)
        # an encoder of the data of tracked leaves
        leaves = per_op.tracked(Encoder.init(SMALL, seed=3))
        assert all(t.grad_tracked for t in leaves.params.values())
        enc = leaves.encoder
        forward_raw(enc, small_tokens(), 2)
        # three length groups, their pullbacks included
        seqs = [small_tokens((40,)), small_tokens((40, 41)), small_tokens((41,)), small_tokens(())]
        rows, pullback = embed_taped(enc, seqs, 2)
        pullback(np.ones(rows.shape))
        embed_raw(enc, seqs, 2)
        assert built == []
        # a stage-2 step of 8 shards of 2 pairs over prompts of 8 and 11
        # tokens records only each shard's 6 nodes of similarity and MAC
        # loss. A node per op recorded 440, and a node per shard and length
        # group, with its gathers and concatenations, 104.
        compute_global_grads(*toy_stage2_step())
        assert len(built) == 8 * 6

    def test_embed_raw_matches_embed(self):
        enc = Encoder.init(SMALL, seed=3)
        seq = small_tokens()
        a = embed_taped(enc, [seq], 2)[0][0]
        b = embed_raw(enc, [seq], 2)
        assert b.shape == (1, SMALL.d_model)
        assert a.tobytes() == b[0].tobytes()

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_batch_rows_match_single_embeds(self, batch):
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
            _blocks(enc, [small_tokens((40,)), small_tokens((40, 41))], 2, False)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError, match="no sequences"):
            embed_raw(Encoder.init(SMALL, seed=3), [], 2)


# the node maker, which the block stack's node and every taped op call, and
# the taped op a forward could reach for its sums
TAPED_OPS = ("_result", "add")


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
        want = embed_taped(enc, seqs, 2)[0]
        request.getfixturevalue("no_taped_ops")
        assert embed_raw(enc, seqs, 2).tobytes() == want.tobytes()

    def test_overflow_raises_without_taped_ops(self, no_taped_ops):
        enc = Encoder.init(SMALL, seed=0)
        blown = enc.with_params({n: read_only(p * 1e300) for n, p in enc.params.items()})
        with pytest.raises(NumericDomainError, match="overflow"):
            embed_raw(blown, [small_tokens(), small_tokens((40, 41, 42))], 2)

    def test_mixed_lengths_byte_equal_to_taped_at_every_depth(self):
        cfg = EncoderConfig(vocab_size=48, d_model=12, n_heads=3, n_layers=4, max_seq=12, k=2)
        enc = Encoder.init(cfg, seed=5)
        rng = np.random.default_rng(5)
        seqs = [small_tokens(int(t) for t in rng.integers(36, 46, size=n)) for n in (2, 5, 2, 7, 1, 5, 5)]
        for upto in range(1, cfg.n_layers + 1):
            taped, _ = embed_taped(enc, seqs, upto)
            assert embed_raw(enc, seqs, upto).tobytes() == taped.tobytes()
            hidden, _ = _blocks(enc, [seqs[3]], upto, True)
            assert forward_raw(enc, seqs[3], upto).tobytes() == hidden.tobytes()

    def test_outputs_are_read_only(self):
        enc = Encoder.init(SMALL, seed=3)
        for out in (embed_raw(enc, [small_tokens()], 2), forward_raw(enc, small_tokens(), 2)):
            with pytest.raises(ValueError, match="read-only"):
                out[0, 0] = 1.0

    def test_weights_cannot_be_swapped_in_place(self):
        enc = Encoder.init(SMALL, seed=3)
        assert all(type(w) is np.ndarray and not w.flags.writeable for w in enc.params.values())
        with pytest.raises(TypeError):
            enc.params["tok_emb"] = None
        with pytest.raises(ValueError, match="read-only"):
            enc.params["tok_emb"][0, 0] = 1.0


# the benchmark's encoder shape, at its mixed prompt lengths
WIDE = EncoderConfig(vocab_size=48, d_model=32, n_heads=4, n_layers=8, max_seq=32, k=3)


def mixed_prompts(per_length: int, seed: int = 0) -> list[TokenSequence]:
    rng = np.random.default_rng(seed)
    return [
        small_tokens(int(t) for t in rng.integers(36, 46, size=n - 5))
        for _ in range(per_length)
        for n in (13, 21, 29)
    ]


class TestRetTail:
    """An embed's last block computes only the last two rows of each sequence."""

    @pytest.mark.parametrize("per_length", [1, 2, 3])
    def test_rows_byte_equal_full_forward_at_every_depth(self, per_length):
        enc = Encoder.init(WIDE, seed=per_length)
        seqs = mixed_prompts(per_length, seed=per_length)
        for upto in range(1, WIDE.n_layers + 1):
            want = b"".join(forward_raw(enc, seq, upto)[-1].tobytes() for seq in seqs)
            assert embed_raw(enc, seqs, upto).tobytes() == want
            taped, _ = embed_taped(enc, seqs, upto)
            assert taped.tobytes() == want

    @pytest.mark.parametrize("ids", [(1,), (40, 1)])
    def test_sequences_shorter_than_the_tail(self, ids):
        enc = Encoder.init(SMALL, seed=2)
        seqs = [TokenSequence(ids), TokenSequence((41,) * (len(ids) - 1) + (1,))]
        for upto in (1, 2):
            got = embed_raw(enc, seqs, upto)
            for row, seq in zip(got, seqs):
                assert row.tobytes() == forward_raw(enc, seq, upto)[-1].tobytes()

    @pytest.mark.parametrize("taped", [True, False])
    def test_only_the_last_block_narrows(self, taped, monkeypatch):
        rows = []
        kernel = T._affine

        def recording(x, w, b):
            rows.append(x.shape[0])
            return kernel(x, w, b)

        monkeypatch.setattr(T, "_affine", recording)
        enc = Encoder.init(WIDE, seed=1)
        batch = mixed_prompts(1)[:1] * 3  # three sequences of 13 rows
        embed_taped(enc, batch, 3) if taped else embed_raw(enc, batch, 3)
        full, tail = 3 * 13, 3 * 2
        # q, k, v, output projection, then the FFN's two affines, per block
        assert rows == [full] * 12 + [tail, full, full, tail, tail, tail]
        rows.clear()
        _blocks(enc, batch[:1], 3, taped)
        assert rows == [13] * 18


class TestTapeFreeBuffers:
    """The tape-free stack writes only into arrays it made itself."""

    def test_embed_raw_leaves_every_weight_byte(self):
        enc = Encoder.init(WIDE, seed=4)
        before = {name: a.tobytes() for name, a in enc.params.items()}
        seqs = mixed_prompts(2, seed=4)
        first = embed_raw(enc, seqs, 3)
        forward_raw(enc, seqs[0], 3)
        assert {name: a.tobytes() for name, a in enc.params.items()} == before
        assert not first.flags.writeable
        assert embed_raw(enc, seqs, 3).tobytes() == first.tobytes()

    def test_embed_peak_within_allocation_budget(self):
        # one 32-prompt chunk of 21-token prompts at depth 3. The FFN's hidden
        # activation, rows x 4d float64, is the largest array a block makes;
        # out-of-place kernels peaked at 5.8 of them, in-place ones at 3.8,
        # 3.2 once a block drops its attention arrays before the FFN, and
        # 2.5 once it drops its FFN arrays before the next block
        enc = Encoder.init(replace(WIDE, n_layers=3), seed=1)
        seqs = [seq for seq in mixed_prompts(32) if len(seq) == 21]
        hidden_bytes = len(seqs) * 21 * FFN_MULT * WIDE.d_model * 8
        embed_raw(enc, seqs, 3)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            embed_raw(enc, seqs, 3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert hidden_bytes == 688_128
        assert peak < 2.75 * hidden_bytes


def recorded_nodes(monkeypatch) -> list:
    """Every tape node made from here on, by any op."""
    made = []
    node = T._Node

    def recording(*args):
        made.append(node(*args))
        return made[-1]

    monkeypatch.setattr(T, "_Node", recording)
    return made


class TestEntryPointDecidesTaping:
    """The entry point, not a mode, decides whether a forward keeps what its
    pullback reads, and no entry point records a tape node, whether or not
    the weights are tracked."""

    def test_raw_entry_points_record_nothing_on_tracked_weights(self, monkeypatch):
        # an encoder of the data of tracked leaves
        leaves = per_op.tracked(Encoder.init(WIDE, seed=6))
        assert all(p.grad_tracked for p in leaves.params.values())
        enc = leaves.encoder
        seqs = mixed_prompts(2, seed=6)
        taped = [embed_taped(enc, seqs, 3)[0], _blocks(enc, seqs[:1], 3, True)[0]]
        made = recorded_nodes(monkeypatch)
        raw = [embed_raw(enc, seqs, 3), forward_raw(enc, seqs[0], 3)]
        assert made == []
        for got, want in zip(raw, taped):
            assert type(got) is np.ndarray and not got.flags.writeable
            assert got.tobytes() == want.tobytes()

    def test_taped_entry_points_record_nothing_on_untracked_weights(self, monkeypatch):
        enc = Encoder.init(WIDE, seed=6)
        seqs = mixed_prompts(2, seed=6)
        made = recorded_nodes(monkeypatch)
        rows, pullback = embed_taped(enc, seqs, 3)
        grads = pullback(np.ones(rows.shape))
        assert made == []
        assert type(rows) is np.ndarray and not rows.flags.writeable
        assert all(type(g) in (np.ndarray, T.RowGrad) for g in grads)
        assert rows.tobytes() == embed_raw(enc, seqs, 3).tobytes()


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
            got = embed_taped(enc, seqs, upto)[0] if taped else embed_raw(enc, seqs, upto)
            assert got.shape == (len(seqs), cfg.d_model)
            assert not got.flags.writeable
            for row, seq in zip(got, seqs):
                assert row.tobytes() == per_sequence_ret_row(enc, seq, upto).tobytes()

    def test_empty_list_rejected(self):
        for embed in (embed_taped, embed_raw):
            with pytest.raises(ContractError, match="no sequences"):
                embed(Encoder.init(SMALL, seed=3), [], 2)


class TestExtract:
    def test_returns_last_row(self):
        enc = Encoder.init(SMALL, seed=1)
        seq = small_tokens()
        hidden = forward(enc, seq, 2)
        emb = embed_raw(enc, [seq], 2)
        assert emb.shape == (1, SMALL.d_model)
        assert np.array_equal(emb[0], hidden[-1])

    def test_context_changes_embedding(self):
        enc = Encoder.init(SMALL, seed=2)
        e1 = embed_raw(enc, [small_tokens((40, 41))], 2)
        e2 = embed_raw(enc, [small_tokens((41, 41))], 2)
        assert not np.array_equal(e1, e2)


class TestPrune:
    def test_full_depth_prune_is_identity(self):
        enc = Encoder.init(SMALL, seed=3)
        same = prune(enc, SMALL.n_layers)
        seq = small_tokens()
        assert forward(enc, seq, 2).tobytes() == forward(same, seq, 2).tobytes()

    def test_prefix_property_bitwise(self):
        cfg = EncoderConfig(vocab_size=48, d_model=8, n_heads=2, n_layers=5, max_seq=8, k=2)
        enc = Encoder.init(cfg, seed=4)
        seq = small_tokens()
        for k in (1, 2, 5):
            student = prune(enc, k)
            assert forward(enc, seq, k).tobytes() == forward(student, seq, k).tobytes()

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
        assert np.array_equal(student.params["tok_emb"], enc.params["tok_emb"])

    def test_parameters_own_read_only_data_shared_with_no_source(self):
        cfg = EncoderConfig(vocab_size=48, d_model=4, n_heads=2, n_layers=4, max_seq=8, k=2)
        enc = Encoder.init(cfg, seed=9)
        student = prune(enc, 2)
        for model in (enc, student):
            for name, w in model.params.items():
                assert type(w) is np.ndarray and w.dtype == np.float64, name
                assert w.base is None and not w.flags.writeable, name
        for name, w in student.params.items():
            assert not np.shares_memory(w, enc.params[name]), name
            assert w.tobytes() == enc.params[name].tobytes(), name

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

    @pytest.mark.parametrize("s,ratio", [(13, 0.3137), (21, 0.3085), (29, 0.3059)])
    def test_embed_count_by_hand(self, s, ratio):
        cfg = EncoderConfig(vocab_size=100, d_model=32, n_heads=4, n_layers=8, max_seq=32, k=3)
        d, m = 32, RET_TAIL_ROWS
        lookup = 2 * s * d
        # q, k, v and output projections; scores and value mixing; the FFN
        block = 4 * (2 * s * d * d) + 2 * (2 * s * s * d) + 2 * (2 * s * d * 4 * d)
        # the last block: k and v on every row, the rest on the last m rows
        last = 2 * (2 * s * d * d) + 2 * (2 * m * d * d) + 2 * (2 * m * s * d) + 2 * (2 * m * d * 4 * d)
        assert embed_flops(cfg, 3, s) == lookup + 2 * block + last
        assert embed_flops(cfg, 8, s) == lookup + 7 * block + last
        assert estimate_flops(cfg, 3, s) == lookup + 3 * block
        # depth 3 of 8 costs an embed 0.306-0.314 of its layer-stack FLOPs, not 3/8
        got = (embed_flops(cfg, 3, s) - lookup) / (embed_flops(cfg, 8, s) - lookup)
        assert got == pytest.approx(ratio, abs=5e-5)

    @pytest.mark.parametrize("s", [1, 2])
    def test_embed_count_equals_forward_count_within_the_tail(self, s):
        assert embed_flops(self.CFG, 3, s) == estimate_flops(self.CFG, 3, s)
        assert embed_flops(self.CFG, 0, 256) == estimate_flops(self.CFG, 0, 256)

    def test_strictly_increasing_affine_in_k(self):
        counts = [estimate_flops(self.CFG, k, 64) for k in range(0, 9)]
        diffs = {b - a for a, b in zip(counts, counts[1:])}
        assert len(diffs) == 1
        assert diffs.pop() > 0


def test_encoder_gradients_match_finite_differences():
    # the [RET] row of one sequence as a function of every weight of a
    # 2-layer encoder: the suite's check, which grad-check runs too
    (case,) = [case for name, *case in gradient_suite(0) if name == "encoder[0]"]
    assert check_gradients(*case) < 1e-4


TOY_SPEC = CorpusSpec(
    n_concepts=8,
    tasks=("t2t", "i2i", "t2it", "it2t"),
    text_vocab_size=20,
    image_vocab_size=20,
    n_t=3,
    n_i=3,
    distractors=0,
    test_fraction=0.25,
)


def toy_stage2_step():
    """compute_global_grads' arguments for a stage-2 step of 8 shards of 2
    (query, positive) pairs of mixed tasks."""
    corpus = generate_corpus(TOY_SPEC, seed=4)
    cfg = EncoderConfig(
        vocab_size=vocab_size_for(TOY_SPEC), d_model=4, n_heads=2, n_layers=2, max_seq=16, k=2
    )
    train = TrainConfig(
        stage=2, encoder=cfg, shards=8, per_shard_batch=2, epochs=1, lr=1e-3, seed=5, k=2,
        temperature=TemperatureSchedule(tau0=0.1, lam=0.2, mode="mac"),
    )
    by_task = {task: [s for s in corpus.train if s.task == task] for task in TOY_SPEC.tasks}
    # round-robin over the tasks, so each shard's prompts differ in length
    samples = [s for four in zip(*by_task.values()) for s in four][:16]
    return Encoder.init(cfg, seed=1), None, batch_from(corpus, samples), train, 0.5


ORACLE = EncoderConfig(vocab_size=48, d_model=8, n_heads=2, n_layers=3, max_seq=5, k=1)


def same_grads(got, want, params):
    """Whether two gradient maps give ``params`` the same gradients byte
    for byte, a row gradient as its dense array."""
    for p in params:
        assert (p in got) == (p in want)
        if p not in got:
            continue
        g, ref = T.dense_grad(got[p]), T.dense_grad(want[p])
        assert g.shape == ref.shape and g.tobytes() == ref.tobytes()
    return True


class TestBlockStackNode:
    """A taped block stack's hand-written pullback, alone or as the one tape
    node ``per_op_reference`` wraps it in, gives the bytes of a tape of one
    node per op (``per_op_reference``)."""

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        depth=st.integers(1, 3),
        ret_tail=st.booleans(),
        lengths=st.lists(st.sampled_from([1, 2, 5]), min_size=2, max_size=2, unique=True),
        batches=st.lists(st.integers(1, 3), min_size=2, max_size=2),
        reads=st.lists(st.integers(0, 14), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_the_per_op_tape(self, depth, ret_tail, lengths, batches, reads, seed):
        rng = np.random.default_rng(seed)
        shapes = {n: t.shape for n, t in Encoder.init(ORACLE, seed=0).params.items()}
        params = {n: T.Tensor(rng.normal(0.0, 0.3, s), grad_tracked=True) for n, s in shapes.items()}
        enc = per_op.Tracked(ORACLE, params)
        groups = [
            [TokenSequence((*rng.integers(2, 48, n - 1).tolist(), RET_TOKEN_ID)) for _ in range(b)]
            for n, b in zip(lengths, batches)
        ]
        if ret_tail:
            # two length groups in one batch, in a drawn order
            seqs = [seq for group in groups for seq in group]
            seqs = [seqs[i] for i in rng.permutation(len(seqs))]
            stacks = (per_op.embed_node, per_op.embed_batch)
        else:
            seqs = groups[0]
            stacks = (per_op.stack_node, per_op.blocks)
        outs = [stack(enc, seqs, depth) for stack in stacks]
        # the loss reads rows twice: a gather with repeats, then every row
        ids = [i % outs[0].shape[0] for i in reads]
        w1 = T.Tensor(rng.normal(size=(len(ids), 8)) * 10.0 ** rng.integers(-4, 5, (len(ids), 1)))
        w2 = T.Tensor(rng.normal(size=outs[0].shape))
        results = []
        for out in outs:
            loss = T.add(T.mean(T.mul(per_op.take_rows(out, ids), w1)), T.mean(T.mul(out, w2)))
            results.append((out, T.backward(loss), T.backward(loss)))
        (out, grads, again), (ref_out, ref_grads, _) = results
        assert out.data.tobytes() == ref_out.data.tobytes()
        assert same_grads(grads, ref_grads, params.values())
        # the vjp writes over nothing the forward saved
        assert same_grads(again, grads, params.values())

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_part_pullback_bytes_equal_the_per_op_tape(self, depth):
        # a batch of three prompt lengths, met out of order, so its pullback
        # scatters into interleaved [RET] rows of three length groups
        rng = np.random.default_rng(depth)
        shapes = {n: t.shape for n, t in Encoder.init(ORACLE, seed=0).params.items()}
        params = {n: T.Tensor(rng.normal(0.0, 0.3, s), grad_tracked=True) for n, s in shapes.items()}
        enc = per_op.Tracked(ORACLE, params)
        seqs = [
            TokenSequence((*rng.integers(2, 48, n - 1).tolist(), RET_TOKEN_ID))
            for n in (2, 5, 1, 5, 2, 2, 1)
        ]
        rows, pullback = embed_taped(enc.encoder, seqs, depth)
        ref = per_op.embed_batch(enc, seqs, depth)
        assert rows.tobytes() == ref.data.tobytes()
        dy = rng.normal(size=rows.shape) * 10.0 ** rng.integers(-4, 5, rows.shape)
        dy[rng.random(rows.shape) < 0.2] = -0.0
        got = dict(zip(params.values(), pullback(dy)))
        assert len(got) == 2 + 16 * depth
        assert same_grads(got, T.backward(per_op.seeded(ref, dy)), params.values())
        # the tables get the rows their gathers read, as row gradients
        tok, pos = got[params["tok_emb"]], got[params["pos_emb"]]
        assert isinstance(tok, T.RowGrad) and isinstance(pos, T.RowGrad)
        assert tok.ids.tolist() == sorted({t for seq in seqs for t in seq.ids})
        assert pos.ids.tolist() == list(range(5))

    def test_output_holds_the_last_residual_sum_uncopied(self, monkeypatch):
        # the stack's last residual sum is written into the last affine's
        # output, a fresh array that owns its data, which the stack and
        # forward return read-only
        made = []
        kernel = T._affine

        def recording(*args):
            made.append(kernel(*args))
            return made[-1]

        monkeypatch.setattr(T, "_affine", recording)
        enc = Encoder.init(SMALL, seed=3)
        for ret_tail in (False, True):
            for taped in (False, True):
                out = _blocks(enc, [small_tokens(), small_tokens((41, 40))], 2, taped, ret_tail)
                h = out[0] if taped else out
                assert h is made[-1] and h.base is None and not h.flags.writeable
                rows = 2 * (RET_TAIL_ROWS if ret_tail else len(small_tokens()))
                assert h.shape == (rows, SMALL.d_model)
        assert forward(enc, small_tokens(), 2) is made[-1]

    def test_backward_returns_only_the_leaves_it_reached(self):
        # a depth-1 stack of a 2-layer encoder reads the tables and layer 0;
        # its output, the product and the root are intermediates
        cfg = EncoderConfig(vocab_size=48, d_model=8, n_heads=2, n_layers=2, max_seq=16, k=1)
        enc = per_op.tracked(Encoder.init(cfg, seed=5))
        seq = TokenSequence((*range(2, 14), RET_TOKEN_ID))
        assert len(seq) == 13
        h = per_op.stack_node(enc, [seq], 1)
        grads = T.backward(T.mean(T.mul(h, h)))
        read = [n for n in enc.params if not n.startswith("layers.1.")]
        assert len(read) == 18
        assert {id(t) for t in grads} == {id(enc.params[n]) for n in read}
        assert all(type(g) is np.ndarray for g in grads.values())
