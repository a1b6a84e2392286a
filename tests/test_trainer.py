import ast
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import per_op_reference as per_op
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umrlab import checkpoint as checkpoint_module
from umrlab import encoder as encoder_module
from umrlab import tensor as T
from umrlab import trainer
from umrlab.checkpoint import load_checkpoint, save_checkpoint
from umrlab.datagen import CorpusSpec, generate_corpus, vocab_size_for
from umrlab.encoder import (
    Encoder,
    EncoderConfig,
    forward_raw,
    parameter_names,
    prune,
)
from umrlab.errors import (
    AggregationError,
    ConfigurationError,
    ContractError,
    DimensionError,
    FormatError,
    NumericDomainError,
    VersionError,
)
from umrlab.losses import TemperatureSchedule, alpha_at, mac_loss, self_distill, tau_hard_at
from umrlab.optim import OptimizerState, adam_update
from umrlab.prompts import assemble_prompt
from umrlab.tensor import RowGrad
from umrlab.trainer import (
    GlobalBatch,
    TrainConfig,
    all_reduce_grads,
    batch_from,
    compute_global_grads,
    gather_shards,
    run_stage,
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

ROOT = Path(__file__).resolve().parents[1]

# magic, version byte, six u32 config fields
CKPT_HEADER_BYTES = 8 + 1 + 6 * 4


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
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(gather_shards([x]), x)

    def test_shard_order(self):
        out = gather_shards([np.array([[0.0, 1.0]]), np.array([[2.0, 3.0]])])
        assert np.array_equal(out, [[0.0, 1.0], [2.0, 3.0]])

    def test_missing_shard_named(self):
        with pytest.raises(AggregationError, match="shard 1"):
            gather_shards([np.array([[1.0]]), None])

    def test_no_shards_refused(self):
        with pytest.raises(AggregationError, match="no shard"):
            gather_shards([])


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


def scattered(shape, ids, seed):
    """A gather's row gradient over ``ids``, with magnitudes 1e-8..1e8 so
    that a change of summation order shows."""
    rng = np.random.default_rng(seed)
    size = (len(ids),) + shape[1:]
    rows = rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size=size)
    return RowGrad.scatter(shape, np.asarray(ids, dtype=np.int64), rows)


def dense_shard_sum(parts):
    """The dense reference reduce: densified shard gradients summed in
    shard-id order."""
    dense = [T.dense_grad(g) for g in parts]
    if len(dense) == 1:
        return dense[0]
    total = dense[0] + dense[1]
    for g in dense[2:]:
        total += g
    return total


class TestAllReduceRows:
    SHAPE = (12, 3)

    def check(self, id_sets, densified, seed):
        parts = [scattered(self.SHAPE, ids, seed + i) for i, ids in enumerate(id_sets)]
        parts = [p.dense() if d else p for p, d in zip(parts, densified)]

        def snapshot():
            return [p.tobytes() if d else (p.ids.tobytes(), p.rows.tobytes()) for p, d in zip(parts, densified)]

        before = snapshot()
        if any(densified) and not all(densified):
            # a table's shard gradients are all rows or all arrays
            with pytest.raises(ContractError, match="row gradients among"):
                all_reduce_grads([{"tok_emb": p} for p in parts])
            assert snapshot() == before
            return
        got = all_reduce_grads([{"tok_emb": p} for p in parts])["tok_emb"]
        want = dense_shard_sum(parts)
        if any(densified):
            assert isinstance(got, np.ndarray)
        else:
            assert isinstance(got, RowGrad) and got.shape == self.SHAPE
            assert got.ids.tolist() == sorted({i for ids in id_sets for i in ids})
            got = got.dense()
        assert got.tobytes() == want.tobytes()
        assert snapshot() == before

    @pytest.mark.parametrize(
        "id_sets",
        [
            [[0, 1], [2, 3], [4, 5, 5], [11]],
            [[0, 1, 2, 2], [1, 2, 3], [2], [2, 9, 1]],
            [[], [], []],
            [[], [4, 4], [], [4], []],
            [[3]] * 8,
        ],
        ids=["disjoint", "overlapping", "all-empty", "some-empty", "eight-shards"],
    )
    def test_row_sum_equals_dense_shard_order_sum(self, id_sets):
        self.check(id_sets, [False] * len(id_sets), seed=3)

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        id_sets=st.lists(st.lists(st.integers(0, 11), max_size=8), min_size=1, max_size=8),
        dense_shard=st.none() | st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_shards_equal_dense_shard_order_sum(self, id_sets, dense_shard, seed):
        # one shard given as an array among row gradients is refused
        self.check(id_sets, [i == dense_shard for i in range(len(id_sets))], seed)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        kinds=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_one_sum_grads_per_key(self, kinds, seed):
        # kinds[s] says whether shard s gives each of two tables as rows
        shards = []
        for s, row_kinds in enumerate(kinds):
            grads = {}
            for key, as_rows in zip(("tok_emb", "pos_emb"), row_kinds):
                g = scattered(self.SHAPE, [s % 12, (5 * s) % 12], seed + s)
                grads[key] = g if as_rows else g.dense()
            shards.append(grads)
        if any(len({row_kinds[j] for row_kinds in kinds}) > 1 for j in range(2)):
            # a table whose shards give rows and arrays both is refused
            with pytest.raises(ContractError, match="row gradients among"):
                all_reduce_grads(shards)
            return
        got = all_reduce_grads(shards)
        assert list(got) == ["tok_emb", "pos_emb"]
        for key, g in got.items():
            want = T.sum_grads([grads[key] for grads in shards])
            assert type(g) is type(want)
            assert T.dense_grad(g).tobytes() == T.dense_grad(want).tobytes()


def weight(a) -> np.ndarray:
    """``a`` as a weight: a read-only float64 array of its own."""
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


class TestAdam:
    def test_zero_grad_leaves_params_bitwise(self):
        params = {"w": weight(np.linspace(0, 1, 4))}
        state = OptimizerState.init(params, lr=0.1)
        new, _ = adam_update(params, {"w": np.zeros(4)}, state)
        assert new["w"].tobytes() == params["w"].tobytes()

    def test_moment_free_limit(self):
        g = np.array([0.5, -2.0, 0.0])
        params = {"w": weight(np.zeros(3))}
        state = OptimizerState.init(params, lr=0.1, beta1=0.0, beta2=0.0)
        new, _ = adam_update(params, {"w": g}, state)
        want = -0.1 * g / (np.abs(g) + 1e-8)
        assert np.abs(new["w"] - want).max() < 1e-15

    def test_ten_steps_match_scalar_oracle(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=3) for _ in range(10)]

        params = {"w": weight(np.ones(3))}
        state = OptimizerState.init(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        old_w, old_m, old_v = np.ones(3), np.zeros(3), np.zeros(3)
        for t, g in enumerate(grads, start=1):
            params, state = adam_update(params, {"w": g}, state)
            # the update as a vectorized expression
            old_m = b1 * old_m + (1.0 - b1) * g
            old_v = b2 * old_v + (1.0 - b2) * (g * g)
            update = lr * (old_m / (1.0 - b1**t)) / (np.sqrt(old_v / (1.0 - b2**t)) + eps)
            old_w = old_w - update
            assert params["w"].tobytes() == old_w.tobytes()
            assert type(params["w"]) is np.ndarray and not params["w"].flags.writeable

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
        assert np.abs(params["w"] - np.array(w)).max() < 1e-12

    @pytest.mark.parametrize("rows", [False, True], ids=["dense", "table-row"])
    def test_overflowing_gradient_square_names_the_parameter(self, rows):
        # 1e200 * 1e200 overflows: v would read inf and the weight, moved by
        # m / inf = 0, would never move again
        params = {
            "b": weight(np.ones(3)),
            "w": weight(np.ones((4, 3))),
        }
        g = np.zeros((4, 3))
        g[1] = [1e200, 1.0, 1.0]
        grads = {"b": np.ones(3), "w": RowGrad(np.array([1]), g[1:2], g.shape) if rows else g}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericDomainError, match="'w' or its second moment"):
                adam_update(params, grads, OptimizerState.init(params, lr=0.1))
        assert [str(w.message) for w in caught] == []

    def test_shape_mismatch(self):
        params = {"w": weight(np.zeros(3))}
        state = OptimizerState.init(params, lr=0.1)
        with pytest.raises(DimensionError):
            adam_update(params, {"w": np.zeros(4)}, state)

    def stepped_state(self):
        """A state one step past init, so its moments are non-zero."""
        params = {"w": weight(np.linspace(-1.0, 1.0, 3))}
        state = OptimizerState.init(params, lr=0.1)
        adam_update(params, {"w": np.array([0.5, -2.0, 1.0])}, state)
        return state

    @pytest.mark.parametrize(
        "params, match",
        [({"u": np.zeros(3)}, r"parameter keys do not match the optimizer state: \['u', 'w'\]"),
         ({"w": np.zeros(4)}, r"parameter shape \(4,\) != optimizer state shape \(3,\) for 'w'")],
        ids=["unknown-name", "wrong-shape"],
    )
    def test_params_that_do_not_match_the_state_refused_before_any_write(self, params, match):
        state = self.stepped_state()
        before = [state.weights.tobytes(), state.flat_m.tobytes(), state.flat_v.tobytes(), state.step]
        params = {n: weight(a) for n, a in params.items()}
        given = [p.tobytes() for p in params.values()]
        grads = {n: np.ones(p.shape) for n, p in params.items()}
        with pytest.raises(DimensionError, match=match):
            adam_update(params, grads, state)
        assert [state.weights.tobytes(), state.flat_m.tobytes(), state.flat_v.tobytes(), state.step] == before
        assert [p.tobytes() for p in params.values()] == given

    def test_steps_return_the_same_views_and_change_them_in_place(self):
        given = {
            "a": weight(np.arange(6.0).reshape(2, 3)),
            "b": weight(np.array([0.5, -0.5])),
        }
        given_bytes = [p.tobytes() for p in given.values()]
        state = OptimizerState.init(given, lr=0.1)
        assert [p.tobytes() for p in state.params.values()] == given_bytes
        first, _ = adam_update(given, {"a": np.ones((2, 3)), "b": np.ones(2)}, state)
        assert_store_views(first, state)
        after_first = [p.tobytes() for p in first.values()]
        second, _ = adam_update(first, {"a": -np.ones((2, 3)), "b": np.ones(2)}, state)
        assert all(second[n] is first[n] for n in given)
        assert [p.tobytes() for p in first.values()] != after_first
        assert state.weights.tobytes() == b"".join(p.tobytes() for p in first.values())
        assert [p.tobytes() for p in given.values()] == given_bytes

    def test_foreign_params_give_the_bytes_of_the_store_and_stay_unwritten(self):
        rng = np.random.default_rng(3)
        start = {"a": weight(rng.normal(size=(4, 2))),
                 "b": weight(rng.normal(size=2))}
        grads = [{"a": rng.normal(size=(4, 2)), "b": rng.normal(size=2)} for _ in range(3)]
        own_state, foreign_state = (OptimizerState.init(start, lr=0.05) for _ in range(2))
        own = start
        for g in grads:
            own, _ = adam_update(own, g, own_state)
            # equal values held by other arrays: copied into the store, never written
            foreign = {n: weight(p) for n, p in foreign_state.params.items()}
            foreign_bytes = [p.tobytes() for p in foreign.values()]
            stepped, _ = adam_update(foreign, g, foreign_state)
            assert [p.tobytes() for p in foreign.values()] == foreign_bytes
            assert state_bytes(stepped, foreign_state) == state_bytes(own, own_state)
        # other values: the step starts from them, as the dense formula does
        other = {n: weight(p + 1.0) for n, p in own.items()}
        ref, ref_state = dense_adam(other, grads[0], foreign_state)
        stepped, _ = adam_update(other, grads[0], foreign_state)
        assert state_bytes(stepped, foreign_state) == state_bytes(ref, ref_state)


def dense_adam(params, grads, state):
    """The dense reference step: Adam's formula on every row of densified
    gradients, in its operation order."""
    t = state.step + 1
    bc1, bc2 = 1.0 - state.beta1**t, 1.0 - state.beta2**t
    new_params, m, v = {}, {}, {}
    for name, p in params.items():
        g = T.dense_grad(grads[name])
        m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        update = state.lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + state.eps)
        new_params[name] = weight(p - update)
    return new_params, OptimizerState(
        lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps, step=t, m=m, v=v
    )


def assert_store_views(params, state):
    """``params`` are read-only views that tile the state's one weight
    buffer in their order."""
    offset = 0
    for p in params.values():
        assert not p.flags.writeable and p.flags.c_contiguous
        assert p.ctypes.data == state.weights.ctypes.data + 8 * offset
        offset += p.size
    assert offset == state.weights.size


def state_bytes(params, state):
    return [(params[n].tobytes(), state.m[n].tobytes(), state.v[n].tobytes()) for n in params]


class TestAdamRows:
    SHAPE = (10, 3)

    def params(self):
        table = np.random.default_rng(1).normal(size=self.SHAPE)
        table[9] = -0.0  # row 9 is never touched, and keeps its -0.0
        return {
            "tok_emb": weight(table),
            "bias": weight(np.linspace(-1.0, 1.0, 3)),
        }

    def run(self, steps, lr, betas, seed=0):
        given = params = ref_params = self.params()
        given_bytes = [p.tobytes() for p in given.values()]
        state = OptimizerState.init(params, lr, *betas)
        ref_state = OptimizerState.init(params, lr, *betas)
        owned = {n: (state.m[n], state.v[n]) for n in params}
        live: set[int] = set()
        rng = np.random.default_rng(seed)
        for t, ids in enumerate(steps):
            grads = {
                "tok_emb": scattered(self.SHAPE, ids, seed + t),
                "bias": rng.normal(size=3),
            }
            params, new_state = adam_update(params, grads, state)
            # the arrays given to init keep their bytes; each step returns
            # the store's own views, the same objects, and the state itself
            assert [p.tobytes() for p in given.values()] == given_bytes
            assert_store_views(params, state)
            assert all(params[n] is state.params[n] for n in params)
            assert new_state is state
            assert all(state.m[n] is m and state.v[n] is v for n, (m, v) in owned.items())
            ref_params, ref_state = dense_adam(ref_params, grads, ref_state)
            assert state_bytes(params, new_state) == state_bytes(ref_params, ref_state)
            rows = new_state.live["tok_emb"]
            # the live set only grows, by the rows of each gradient
            live |= set(ids)
            assert rows.tolist() == sorted(live)
            untouched = [r for r in range(self.SHAPE[0]) if r not in live]
            table = params["tok_emb"]
            assert table[untouched].tobytes() == self.params()["tok_emb"][untouched].tobytes()
            assert new_state.m["tok_emb"][untouched].tobytes() == bytes(8 * 3 * len(untouched))
            assert new_state.v["tok_emb"][untouched].tobytes() == bytes(8 * 3 * len(untouched))
            assert new_state.live["bias"].tolist() == [0, 1, 2]

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        steps=st.lists(st.lists(st.integers(0, 8), max_size=6), min_size=1, max_size=6),
        lr=st.sampled_from([0.0, 1e-3, 0.05]),
        betas=st.sampled_from([(0.9, 0.999), (0.0, 0.0), (0.5, 0.9)]),
        seed=st.integers(0, 2**16),
    )
    def test_steps_equal_the_dense_formula(self, steps, lr, betas, seed):
        self.run(steps, lr, betas, seed)

    @pytest.mark.parametrize("lr", [0.0, 0.05])
    @pytest.mark.parametrize("betas", [(0.9, 0.999), (0.0, 0.0)], ids=["default", "moment-free"])
    def test_late_rows_and_an_empty_step(self, lr, betas):
        self.run([[0, 1], [], [1, 5], [0], [7, 7, 2], [8, 6, 4, 3]], lr, betas)

    def test_row_whose_gradient_sums_to_zero_joins(self):
        params = self.params()
        state = OptimizerState.init(params, 0.05)
        zero = RowGrad.scatter(self.SHAPE, np.array([2, 2]), np.array([[1.5, -2.0, 3.0], [-1.5, 2.0, -3.0]]))
        assert zero.rows.tobytes() == bytes(8 * 3)
        grads = {"tok_emb": zero, "bias": np.zeros(3)}
        ref, ref_state = dense_adam(params, grads, state)
        new, new_state = adam_update(params, grads, state)
        assert new_state.live["tok_emb"].tolist() == [2]
        assert state_bytes(new, new_state) == state_bytes(ref, ref_state)
        assert new["tok_emb"].tobytes() == params["tok_emb"].tobytes()

    def test_every_row_live_equals_the_dense_formula(self):
        self.run([list(range(9)), [3], [9, 0]], 0.05, (0.9, 0.999))

    def test_table_between_dense_parameters_equals_the_dense_formula(self):
        # dense, table, dense, dense: the two dense runs on either side of the
        # table each take their own slice of the store
        rng = np.random.default_rng(5)
        params = ref_params = {
            "first": weight(rng.normal(size=(2, 3))),
            "tok_emb": weight(rng.normal(size=self.SHAPE)),
            "middle": weight(rng.normal(size=4)),
            "last": weight(rng.normal(size=(3, 2))),
        }
        state = OptimizerState.init(params, 0.05)
        ref_state = OptimizerState.init(params, 0.05)
        for t, ids in enumerate([[1, 4], [], [4, 9, 0], [2]]):
            grads = {n: rng.normal(size=p.shape) for n, p in params.items()}
            grads["tok_emb"] = scattered(self.SHAPE, ids, seed=t)
            params, state = adam_update(params, grads, state)
            ref_params, ref_state = dense_adam(ref_params, grads, ref_state)
            assert state_bytes(params, state) == state_bytes(ref_params, ref_state)
            assert_store_views(params, state)

    def benchmark_student_step(self):
        """The benchmark's k=3, d=32 student with its 5,400-row table and
        340 live rows: its params, one step's gradients, and the table's bytes."""
        cfg = EncoderConfig(vocab_size=5400, d_model=32, n_heads=4, n_layers=3, max_seq=48, k=3)
        params = Encoder.init(cfg, seed=0).params
        rng = np.random.default_rng(0)
        grads = {n: rng.normal(size=p.shape) for n, p in params.items()}
        grads["tok_emb"] = scattered((5400, 32), rng.choice(5400, 340, replace=False), seed=1)
        grads["pos_emb"] = scattered((48, 32), range(29), seed=2)
        return params, grads, params["tok_emb"].nbytes

    def step_peak(self, params, grads, state):
        tracemalloc.start()
        try:
            new, _ = adam_update(params, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return new, peak

    def test_step_peak_stays_under_twice_the_table(self):
        # a first step copies the foreign params into the store, and
        # allocates rows, not tables, for everything it computes
        params, grads, table_bytes = self.benchmark_student_step()
        state = OptimizerState.init(params, 1e-3)
        new, peak = self.step_peak(params, grads, state)
        assert new["tok_emb"].nbytes == table_bytes
        assert peak < 2 * table_bytes

    def test_steady_state_step_peak_stays_under_the_table(self):
        # the state's own views passed back: no table is copied or allocated
        params, grads, table_bytes = self.benchmark_student_step()
        state = OptimizerState.init(params, 1e-3)
        own, _ = adam_update(params, grads, state)
        new, peak = self.step_peak(own, grads, state)
        assert new["tok_emb"] is own["tok_emb"]
        assert peak < table_bytes

    @pytest.mark.parametrize(
        "setting",
        [dict(lr=math.nan), dict(lr=math.inf), dict(lr=-1e-3), dict(beta1=1.0), dict(beta2=-0.1),
         dict(beta1=math.nan), dict(eps=0.0), dict(eps=-1e-8), dict(eps=math.inf)],
    )
    def test_init_refuses_settings_without_the_fixed_point(self, setting):
        kw = dict(lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8) | setting
        with pytest.raises(ConfigurationError, match="Adam"):
            OptimizerState.init(self.params(), **kw)


SHARD_CASES = {
    "stage0": dict(stage=0),
    "stage1-mse": dict(stage=1, alpha_mode="dynamic"),
    "stage1-kl": dict(stage=1, alpha_mode="dynamic", distill_variant="kl"),
    "stage2-mixed": dict(stage=2),
}


def shard_case(corpus, case):
    """(stage, the other settings, encoder, teacher, two 8-sample batches,
    progress) of one of SHARD_CASES."""
    overrides = dict(SHARD_CASES[case])
    stage = overrides.pop("stage")
    full = Encoder.init(ENC, seed=2)
    t2t = [s for s in corpus.train if s.task == "t2t"][:16]
    if stage == 0:
        enc, teacher, samples, progress = full, None, t2t, 0.0
    elif stage == 1:
        enc, teacher, samples, progress = prune(full, 2), full, t2t, 0.5
    else:
        # interleaved so every shard holds both target modalities
        images = [s for s in corpus.train if s.task == "t2i"][:8]
        texts = [s for s in corpus.train if s.task != "t2i"][:8]
        samples = [s for pair in zip(images, texts) for s in pair]
        enc, teacher, progress = prune(full, 2), None, 0.5
    batches = (batch_from(corpus, samples[:8]), batch_from(corpus, samples[8:]))
    if stage == 2:
        assert all(set(batch.tags) == {"text", "image"} for batch in batches)
    return stage, overrides, enc, teacher, batches, progress


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

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -0.5])
    def test_bad_distill_tau_rejected(self, tau):
        with pytest.raises(ConfigurationError, match="distill_tau must be finite and positive"):
            config(1, distill_variant="kl", distill_tau=tau)

    def test_unknown_alpha_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="alpha mode must be one of"):
            config(1, alpha_mode="linear")

    def test_hard_temperature_that_rounds_to_zero_rejected_at_stage_2(self):
        # 0.05 * exp(-10 * 2/3) rounds to 0.0 at the third of three epochs
        cold = TemperatureSchedule(tau0=0.05, lam=10.0, mode="off")
        assert tau_hard_at(cold, 1 / 3) == 0.002 and tau_hard_at(cold, 2 / 3) == 0.0
        with pytest.raises(ConfigurationError, match=r"^tau0 0.05 and lambda 10.0 round .* epoch 2 of 3 to 0.0$"):
            config(2, epochs=3, temperature=cold)
        # one epoch reads only progress 0, at tau0
        config(2, epochs=1, temperature=cold)
        # stages 0 and 1 read tau0 unrounded, and a run of no epochs reads none
        for stage in (0, 1):
            config(stage, epochs=3, temperature=cold)
        config(2, epochs=0, temperature=TemperatureSchedule(tau0=1e-4))

    def test_settings_are_the_fields(self):
        # Adam's constants are class attributes, not settings a caller passes
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "stage", "encoder", "shards", "per_shard_batch", "epochs", "lr", "seed",
            "temperature", "alpha_mode", "distill_variant", "distill_tau", "k",
            "steps_per_epoch",
        ]
        cfg = config(0)
        assert (cfg.beta1, cfg.beta2, cfg.adam_eps) == (0.9, 0.999, 1e-8)
        with pytest.raises(TypeError):
            config(0, beta1=0.5)

    @pytest.mark.parametrize("case", list(SHARD_CASES))
    def test_shard_equivalence_gradients_and_weights(self, corpus, case):
        # the shard count changes no byte: one embed and one pullback of the
        # global batch, whatever its shards
        stage, overrides, enc, teacher, (batch, _), progress = shard_case(corpus, case)
        results = {}
        for shards in (1, 2, 4):
            cfg = config(stage, shards=shards, per_shard_batch=8 // shards, **overrides)
            grads, breakdown = compute_global_grads(enc, teacher, batch, cfg, progress)
            assert (breakdown["distill"] > 0.0) == (stage == 1)
            opt = OptimizerState.init(enc.params, cfg.lr)
            stepped, _, _ = train_step(enc, teacher, batch, cfg, opt, progress)
            results[shards] = (
                [(type(g), T.dense_grad(g).tobytes()) for g in grads.values()],
                breakdown,
                stepped.param_bytes(),
            )
        assert results[1][2] != enc.param_bytes()
        for shards in (2, 4):
            assert results[shards] == results[1], shards

    @pytest.mark.parametrize("case", list(SHARD_CASES))
    def test_steps_bitwise_equal_a_dense_reference_step(self, corpus, case, monkeypatch):
        # the dense Adam formula on densified gradients: two steps on
        # different batches, so the second starts from non-zero moments and
        # adds table rows to the live set
        stage, overrides, enc, teacher, batches, progress = shard_case(corpus, case)

        def two_steps(cfg):
            model, opt = enc, OptimizerState.init(enc.params, cfg.lr)
            for batch in batches:
                model, opt, _ = train_step(model, teacher, batch, cfg, opt, progress)
            return model.param_bytes(), [(opt.m[n].tobytes(), opt.v[n].tobytes()) for n in opt.m]

        for shards in (1, 2, 4, 8):
            cfg = config(stage, shards=shards, per_shard_batch=8 // shards, **overrides)
            got = two_steps(cfg)
            with monkeypatch.context() as patched:
                patched.setattr(trainer, "adam_update", dense_adam)
                want = two_steps(cfg)
            assert got[0] != enc.param_bytes()
            assert got == want, shards

    def test_units_from_one_start_are_identical_and_leave_the_start(self, corpus):
        # as the benchmark harness runs its units: each from the same start
        # encoder with a fresh state; one unit's store never writes another's
        cfg = config(0)
        start = Encoder.init(ENC, seed=7)
        start_bytes = start.param_bytes()
        t2t = [s for s in corpus.train if s.task == "t2t"]
        batches = [batch_from(corpus, t2t[i * 4 : (i + 1) * 4]) for i in range(3)]

        def unit():
            model = start
            opt = OptimizerState.init(model.params, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
            for batch in batches:
                model, opt, _ = train_step(model, None, batch, cfg, opt, 0.0)
            return model

        first = unit()
        first_bytes = first.param_bytes()
        second = unit()
        assert first_bytes != start_bytes
        assert second.param_bytes() == first_bytes
        assert first.param_bytes() == first_bytes
        assert start.param_bytes() == start_bytes

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

    def test_stage2_step_schedules_once_and_takes_one_loss_per_shard(self, corpus, monkeypatch):
        taus, losses = [], []

        def counting_tau(*args):
            taus.append(args)
            return tau_hard_at(*args)

        def counting_mac(*args):
            losses.append(args)
            return mac_loss(*args)

        # the config reads the last epoch's temperature once, when it is made
        cfg = config(2, shards=4, per_shard_batch=2)
        monkeypatch.setattr(trainer, "tau_hard_at", counting_tau)
        monkeypatch.setattr(trainer, "mac_loss", counting_mac)
        enc = prune(Encoder.init(ENC, seed=6), 2)
        batch = batch_from(corpus, corpus.train[:8])
        compute_global_grads(enc, None, batch, cfg, 0.5)
        assert len(taus) == 1 and len(losses) == 4

    def test_stage1_step_schedules_once(self, corpus, monkeypatch):
        alphas = []

        def counting(*args):
            alphas.append(args)
            return alpha_at(*args)

        monkeypatch.setattr(trainer, "alpha_at", counting)
        full = Encoder.init(ENC, seed=6)
        cfg = config(1, shards=2, per_shard_batch=2, alpha_mode="dynamic")
        batch = batch_from(corpus, [s for s in corpus.train if s.task == "t2t"][:4])
        train_step(prune(full, 2), full, batch, cfg, OptimizerState.init(prune(full, 2).params, cfg.lr), 0.5)
        assert alphas == [("dynamic", 0.5)]


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


def mixed_corpus_by_task():
    """The mixed corpus and its training samples by task."""
    corpus = generate_corpus(MIXED_SPEC, seed=4)
    by_task: dict[str, list] = {}
    for sample in corpus.train:
        by_task.setdefault(sample.task, []).append(sample)
    return corpus, by_task


@pytest.fixture(scope="module")
def mixed_tasks():
    return mixed_corpus_by_task()


def round_robin_batch(corpus, by_task):
    """8 pairs round-robin over the mixed tasks, so neighbours differ in
    prompt length."""
    samples = [s for four in zip(*(by_task[t] for t in MIXED_SPEC.tasks)) for s in four]
    return batch_from(corpus, samples[:8])


@pytest.fixture(scope="module")
def mixed_batch(mixed_tasks):
    batch = round_robin_batch(*mixed_tasks)
    for side, items in (("query", batch.samples), ("candidate", batch.positives)):
        assert {len(assemble_prompt(item, side)) for item in items} == {13, 21, 29}
    return batch


def length_orders(batch, shards):
    """Each shard's prompt lengths in the order it first meets them, its
    queries before its positives."""
    n = len(batch) // shards
    orders = []
    for i in range(shards):
        prompts = [assemble_prompt(s, "query") for s in batch.samples[i * n : (i + 1) * n]]
        prompts += [assemble_prompt(c, "candidate") for c in batch.positives[i * n : (i + 1) * n]]
        orders.append(tuple(dict.fromkeys(len(p) for p in prompts)))
    return orders


@pytest.fixture(scope="module")
def mixed_batches(mixed_tasks):
    """Two batches of 8 distinct pairs, each a task order and its reverse,
    so that at 2, 4 and 8 shards the shards meet their prompt lengths in
    different orders."""
    corpus, by_task = mixed_tasks
    batches = []
    for b, order in enumerate((("t2t", "i2i", "t2it", "it2t"), ("i2i", "it2t", "t2t", "t2it"))):
        tasks = [*order, *reversed(order)]
        samples = [by_task[t][2 * b + tasks[:i].count(t)] for i, t in enumerate(tasks)]
        batches.append(batch_from(corpus, samples))
    for batch in batches:
        for shards in (2, 4, 8):
            assert len(set(length_orders(batch, shards))) > 1
    return batches


def per_prompt_embed(encoder, seqs, upto):
    """Reference for encoder.embed_taped: one block-stack tape node per
    prompt, over tracked copies of the weights, whose last rows the per-op
    reference gathers and concatenates, and a pullback that is a backward
    of that tape seeded with dy."""
    encoder = per_op.tracked(encoder)
    params = list(encoder.params.values())
    rows = per_op.concat_rows(
        [per_op.take_rows(per_op.stack_node(encoder, [seq], upto), [len(seq) - 1]) for seq in seqs]
    )

    def pullback(dy):
        grads = T.backward(per_op.seeded(rows, dy))
        return [grads[p] for p in params]

    return rows.data, pullback


class TestWeightsLeaveTheTape:
    """The block stack's pullback is the encoder's one gradient path: every
    weight is a plain read-only array, nothing in the encoder returns a
    Tensor, and a step's backward reaches only the gathered rows."""

    def test_weights_are_read_only_float64_arrays_wherever_they_come_from(self, corpus, tmp_path):
        enc = Encoder.init(ENC, seed=3)
        save_checkpoint(tmp_path / "w.ckpt", enc)
        cfg = config(0)
        opt = OptimizerState.init(enc.params, cfg.lr)
        batch = batch_from(corpus, [s for s in corpus.train if s.task == "t2t"][:4])
        stepped, opt, _ = train_step(enc, None, batch, cfg, opt, 0.0)
        models = [enc, prune(enc, 2), load_checkpoint(tmp_path / "w.ckpt")[0], stepped]
        for params in [*(model.params for model in models), opt.params]:
            for name, p in params.items():
                assert type(p) is np.ndarray and p.dtype == np.float64, name
                assert not p.flags.writeable, name

    def test_the_benchmark_finite_check_reads_array_weights(self, corpus):
        # the harness checks a trained encoder as
        # all(np.isfinite(p.data).all() for p in params.values()); an
        # array's .data is a memoryview, which isfinite reads with its shape
        result = run_stage(corpus, config(0, epochs=1, steps_per_epoch=2))

        def finite(model):
            return all(np.isfinite(p.data).all() for p in model.params.values())

        assert finite(result.encoder)
        params = dict(result.encoder.params)
        w = params["layers.0.attn.wq"].copy()
        w[1, 2] = np.inf
        params["layers.0.attn.wq"] = weight(w)
        assert not finite(result.encoder.with_params(params))
        assert finite(result.encoder)

    def test_no_encoder_function_returns_a_tensor(self):
        assert encoder_module.forward_raw is encoder_module.forward
        tree = ast.parse(Path(encoder_module.__file__).read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        assert len(functions) > 10
        for fn in functions:
            assert fn.returns is None or "Tensor" not in ast.unparse(fn.returns), fn.name
        # and nothing there can record a tape node
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"_result", "_Node"}

    @pytest.mark.parametrize("stage", [1, 2])
    def test_step_backward_maps_the_two_gathered_rows_to_arrays(self, mixed_batch, stage, monkeypatch):
        full = Encoder.init(MIXED_ENC, seed=3)
        enc, teacher = prune(full, 2), (full if stage == 1 else None)
        results = []
        backward = T.backward

        def recording(root):
            results.append(backward(root))
            return results[-1]

        monkeypatch.setattr(T, "backward", recording)
        cfg = config(stage, encoder=MIXED_ENC, shards=2, per_shard_batch=4)
        compute_global_grads(enc, teacher, mixed_batch, cfg, 0.5)
        assert len(results) == 2
        for grads in results:
            assert [t.shape for t in grads] == [(8, MIXED_ENC.d_model)] * 2
            for leaf, g in grads.items():
                assert leaf.grad_tracked and leaf._node is None
                assert type(g) is np.ndarray and g.shape == leaf.shape


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
        monkeypatch.setattr(trainer, "embed_taped", per_prompt_embed)
        ref_grads, ref_losses = compute_global_grads(enc, None, mixed_batch, cfg, 0.5)
        assert losses == ref_losses
        grads, ref_grads = ({n: T.dense_grad(g) for n, g in gs.items()} for gs in (grads, ref_grads))
        # an absolute bound scaled to the step: some gradients, such as the
        # key bias's, are zero in exact arithmetic and pure roundoff here
        bound = 1e-12 * max(np.abs(g).max() for g in ref_grads.values())
        for name, g in ref_grads.items():
            assert np.abs(grads[name] - g).max() <= bound, name

    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_each_shard_tape_holds_only_its_loss(self, mixed_batch, stage, monkeypatch):
        # the block stack records no node: each shard's backward walks the
        # loss's ops back to the gathered rows, its only tracked leaves
        full = Encoder.init(MIXED_ENC, seed=3)
        enc = full if stage == 0 else prune(full, 2)
        teacher = full if stage == 1 else None
        graphs = []
        backward = T.backward

        def recording(root):
            graphs.append(T.ComputeGraph.of(root))
            return backward(root)

        monkeypatch.setattr(T, "backward", recording)
        cfg = config(stage, encoder=MIXED_ENC, shards=4, per_shard_batch=2)
        compute_global_grads(enc, teacher, mixed_batch, cfg, 0.5)
        assert len(graphs) == 4
        weights = {id(p) for model in (enc, teacher) if model for p in model.params.values()}
        for graph in graphs:
            inputs = {id(t): t for node in graph.nodes for t in node.inputs}
            assert not weights & set(inputs)
            leaves = [t for t in inputs.values() if t.grad_tracked and t._node is None]
            assert sorted(t.shape for t in leaves) == [(8, MIXED_ENC.d_model)] * 2

    def test_one_forward_per_prompt_length_across_both_sides(self, mixed_batch, monkeypatch):
        # across both sides and every shard: one block stack per distinct
        # prompt length in the step, over all of that length's prompts
        stacks = []
        blocks = encoder_module._blocks

        def counting(enc, batch, upto, *args, **kwargs):
            stacks.append((len(batch[0]), len(batch)))
            return blocks(enc, batch, upto, *args, **kwargs)

        monkeypatch.setattr(encoder_module, "_blocks", counting)
        enc = prune(Encoder.init(MIXED_ENC, seed=3), 2)
        prompts = [assemble_prompt(s, "query") for s in mixed_batch.samples]
        prompts += [assemble_prompt(c, "candidate") for c in mixed_batch.positives]
        per_length = sorted(Counter(len(p) for p in prompts).items())
        assert [n for n, _ in per_length] == [13, 21, 29]
        for shards in (1, 2, 4, 8):
            stacks.clear()
            cfg = config(2, encoder=MIXED_ENC, shards=shards, per_shard_batch=8 // shards)
            compute_global_grads(enc, None, mixed_batch, cfg, 0.5)
            assert sorted(stacks) == per_length, shards

    def test_one_pullback_per_prompt_length_at_every_shard_count(self, mixed_batch, monkeypatch):
        # the step's one pullback runs the block stack's backward once per
        # distinct prompt length, whatever the shard count, and no shard's
        # gradients are reduced
        vjps = []
        blocks_vjp = encoder_module._blocks_vjp

        def counting(*args):
            vjps.append(len(args[3]))
            return blocks_vjp(*args)

        def refuse(*args):
            raise AssertionError("a step reduced shard gradients")

        monkeypatch.setattr(encoder_module, "_blocks_vjp", counting)
        monkeypatch.setattr(trainer, "all_reduce_grads", refuse)
        enc = prune(Encoder.init(MIXED_ENC, seed=3), 2)
        prompts = [assemble_prompt(s, "query") for s in mixed_batch.samples]
        prompts += [assemble_prompt(c, "candidate") for c in mixed_batch.positives]
        # one per length, over every token row of that length in the step
        per_length = sorted(n * count for n, count in Counter(len(p) for p in prompts).items())
        assert len(per_length) == 3
        for shards in (1, 2, 4, 8):
            vjps.clear()
            cfg = config(2, encoder=MIXED_ENC, shards=shards, per_shard_batch=8 // shards)
            compute_global_grads(enc, None, mixed_batch, cfg, 0.5)
            assert sorted(vjps) == per_length, shards

    @pytest.mark.parametrize("stage", [0, 1, 2])
    def test_steps_are_bitwise_equal_at_every_shard_count(self, mixed_batches, stage):
        # two steps, so the second starts from non-zero moments, on batches
        # whose shards meet their prompt lengths in different orders: the
        # weights and Adam's moments have the same bytes at every shard count
        full = Encoder.init(MIXED_ENC, seed=3)
        enc = full if stage == 0 else prune(full, 2)
        teacher = full if stage == 1 else None

        def two_steps(cfg):
            model, opt = enc, OptimizerState.init(enc.params, cfg.lr)
            for batch in mixed_batches:
                model, opt, _ = train_step(model, teacher, batch, cfg, opt, 0.5)
            return model.param_bytes(), [(opt.m[n].tobytes(), opt.v[n].tobytes()) for n in opt.m]

        results = {}
        for shards in (1, 2, 4, 8):
            cfg = config(
                stage, encoder=MIXED_ENC, shards=shards, per_shard_batch=8 // shards,
                alpha_mode="dynamic",
            )
            results[shards] = two_steps(cfg)
        assert results[1][0] != enc.param_bytes()
        for shards in (2, 4, 8):
            assert results[shards] == results[1], shards

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
            prompt = assemble_prompt(item, side, MIXED_ENC.max_seq)
            want = forward_raw(teacher, prompt, MIXED_ENC.n_layers)[-1:]
            assert cache[key].shape == want.shape and cache[key].tobytes() == want.tobytes()
            assert cache[key].flags.owndata
        second, _ = compute_global_grads(student, teacher, mixed_batch, cfg, 0.5, cache)
        assert cache.gets == Counter(keys * 2)
        assert all(
            T.dense_grad(first[n]).tobytes() == T.dense_grad(second[n]).tobytes() for n in first
        )


@pytest.fixture(scope="module")
def haswell_probe():
    """``tests/kernel_probe.py``'s result under ``OPENBLAS_CORETYPE=Haswell``,
    where a GEMM row depends on how many rows share the call; skips where
    numpy's BLAS runs no Haswell OpenBLAS kernel."""
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "kernel_probe.py")],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["core"] != "Haswell":
        pytest.skip(f"numpy's BLAS runs no Haswell OpenBLAS kernel here (core {result['core']})")
    return result


def test_haswell_kernel_probe_step_gradients_match_one_shard_and_per_prompt(haswell_probe):
    # the shard count changes no byte under any kernel; the one forward per
    # prompt length and a forward per prompt differ in the last bits, and
    # must stay within roundoff of each other
    assert haswell_probe["worst"] == 0.0
    assert haswell_probe["prompt_worst"] <= 1e-12 * haswell_probe["scale"]


def test_haswell_kernel_probe_batch_rows_match_single_embeds(haswell_probe):
    assert haswell_probe["embed_worst"] <= 1e-12


def plant_nan(encoder, name="layers.0.ffn.w1"):
    params = dict(encoder.params)
    data = params[name].copy()
    data[0, 0] = np.nan
    params[name] = weight(data)
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

    def test_non_finite_table_update_names_the_table(self, corpus, monkeypatch):
        enc = Encoder.init(ENC, seed=13)
        cfg = config(0)
        batch = batch_from(corpus, [s for s in corpus.train if s.task == "t2t"][:4])
        grads, losses = compute_global_grads(enc, None, batch, cfg, 0.0)
        assert isinstance(grads["tok_emb"], RowGrad)
        rows = grads["tok_emb"].rows.copy()
        rows[-1, 0] = np.nan
        grads = dict(grads, tok_emb=RowGrad(grads["tok_emb"].ids, rows, grads["tok_emb"].shape))
        monkeypatch.setattr(trainer, "compute_global_grads", lambda *args: (grads, losses))
        with pytest.raises(NumericDomainError, match="'tok_emb'"):
            train_step(enc, None, batch, cfg, OptimizerState.init(enc.params, cfg.lr), 0.0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
    @pytest.mark.parametrize("name", ["tok_emb", "layers.1.attn.wq"], ids=["table-row", "dense"])
    def test_infinite_gradient_names_the_parameter_without_a_warning(self, corpus, name, value):
        enc = Encoder.init(ENC, seed=13)
        cfg = config(0)
        batch = batch_from(corpus, [s for s in corpus.train if s.task == "t2t"][:4])
        grads, _ = compute_global_grads(enc, None, batch, cfg, 0.0)
        g = grads[name]
        if isinstance(g, RowGrad):
            rows = g.rows.copy()
            rows[-1, 0] = value
            grads = dict(grads, **{name: RowGrad(g.ids, rows, g.shape)})
        else:
            g = g.copy()
            g[0, 0] = value
            grads = dict(grads, **{name: g})
        assert isinstance(grads["tok_emb"], RowGrad)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericDomainError, match=f"'{name}'"):
                adam_update(enc.params, grads, OptimizerState.init(enc.params, cfg.lr))
        assert [str(w.message) for w in caught] == []


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

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
            config(0, seed=-1)

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

    def test_save_load_save_identical_bytes(self, tmp_path):
        enc = Encoder.init(ENC, seed=9)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, enc)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_bytes_match_layout(self, corpus, tmp_path):
        enc = run_stage(corpus, config(0, epochs=1, steps_per_epoch=2)).encoder
        path = tmp_path / "layout.ckpt"
        save_checkpoint(path, enc)
        cfg = enc.config
        want = bytearray(b"PUMACKPT" + struct.pack("<B", 3))
        want += struct.pack("<6I", cfg.vocab_size, cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.max_seq, cfg.k)
        assert len(want) == CKPT_HEADER_BYTES
        # the weights, and nothing after them
        want += b"".join(enc.params[n].astype("<f8").tobytes() for n in parameter_names(cfg))
        assert path.read_bytes() == bytes(want)

    def test_optimizer_argument_stores_nothing(self, corpus, tmp_path):
        result = run_stage(corpus, config(0, epochs=1, steps_per_epoch=2))
        with_opt, without = tmp_path / "with.ckpt", tmp_path / "without.ckpt"
        save_checkpoint(with_opt, result.encoder, result.optimizer)
        save_checkpoint(without, result.encoder)
        assert with_opt.read_bytes() == without.read_bytes()
        loaded, opt = load_checkpoint(with_opt)
        assert opt is None
        assert loaded.param_bytes() == result.encoder.param_bytes()

    def test_load_peak_stays_near_the_file_size(self, tmp_path):
        # the distill benchmark's teacher: a 5,400-row table, d=32, 8 layers
        cfg = EncoderConfig(vocab_size=5400, d_model=32, n_heads=4, n_layers=8, max_seq=48, k=3)
        path = tmp_path / "teacher.ckpt"
        save_checkpoint(path, Encoder.init(cfg, seed=0))
        size = path.stat().st_size
        assert size == 2_207_777
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * size
        # each weight is its own aligned array, taken uncopied
        assert all(a.flags.owndata and a.flags.aligned for a in loaded.params.values())

    @pytest.mark.parametrize("backing", ["own-arrays", "optimizer-store"])
    def test_save_peak_is_a_small_share_of_the_file(self, tmp_path, backing):
        # the same encoder as above; a save writes each array as it is, so
        # it holds no copy of the file, whoever owns the arrays
        cfg = EncoderConfig(vocab_size=5400, d_model=32, n_heads=4, n_layers=8, max_seq=48, k=3)
        enc = Encoder.init(cfg, seed=0)
        if backing == "optimizer-store":
            enc = enc.with_params(OptimizerState.init(enc.params, lr=1e-3).params)
        path = tmp_path / "teacher.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(path, enc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == 2_207_777
        assert peak < 0.05 * 2_207_777
        assert load_checkpoint(path)[0].param_bytes() == Encoder.init(cfg, seed=0).param_bytes()

    def test_version_1_file_rejected_at_version_byte(self, tmp_path):
        enc = Encoder.init(ENC, seed=10)
        cfg = enc.config
        # the version-1 layout: a tensor count, then each tensor's name, rank and extents
        blob = bytearray(b"PUMACKPT" + struct.pack("<B", 1))
        blob += struct.pack("<6I", cfg.vocab_size, cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.max_seq, cfg.k)
        blob += struct.pack("<I", len(enc.params))
        for name, data in enc.params.items():
            blob += struct.pack("<H", len(name)) + name.encode()
            blob += struct.pack(f"<B{data.ndim}I", data.ndim, *data.shape) + data.astype("<f8").tobytes()
        blob += b"\x00"
        path = tmp_path / "v1.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError, match="unsupported checkpoint version 1") as err:
            load_checkpoint(path)
        assert err.value.offset == 8

    @pytest.mark.parametrize("with_optimizer", [False, True], ids=["weights", "adam"])
    def test_version_2_file_rejected_at_version_byte(self, tmp_path, with_optimizer):
        enc = Encoder.init(ENC, seed=10)
        save_checkpoint(tmp_path / "v3.ckpt", enc)
        v3 = (tmp_path / "v3.ckpt").read_bytes()
        # the version-2 layout: v3's header and weights, then an optimizer flag
        # byte and, when it is 1, Adam's step, lr, betas, eps and both moments
        blob = bytearray(v3[:8] + b"\x02" + v3[9:])
        if with_optimizer:
            blob += b"\x01" + struct.pack("<Q4d", 2, 1e-3, 0.9, 0.999, 1e-8)
            blob += bytes(16 * sum(a.size for a in enc.params.values()))
        else:
            blob += b"\x00"
        path = tmp_path / "v2.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError, match="unsupported checkpoint version 2") as err:
            load_checkpoint(path)
        assert err.value.offset == 8

    def test_trailing_bytes_rejected_after_the_weights(self, tmp_path):
        enc = Encoder.init(ENC, seed=10)
        path = tmp_path / "long.ckpt"
        save_checkpoint(path, enc)
        size = path.stat().st_size
        # a v2 weights-only file relabelled v3 still ends in its optimizer flag
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes after checkpoint payload") as err:
            load_checkpoint(path)
        assert err.value.offset == size

    def test_truncated_file_rejected_with_offset(self, tmp_path):
        enc = Encoder.init(ENC, seed=10)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, enc)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert err.value.offset is not None

    def test_truncated_tensor_rejected_at_its_data_with_its_name(self, tmp_path):
        enc = Encoder.init(ENC, seed=10)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, enc)
        names = list(enc.params)
        data_at = CKPT_HEADER_BYTES + 8 * sum(enc.params[n].size for n in names[:3])
        path.write_bytes(path.read_bytes()[: data_at + 8])
        with pytest.raises(FormatError, match=f"reading tensor {names[3]} data") as err:
            load_checkpoint(path)
        assert err.value.offset == data_at

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_weight_rejected_at_tensor_data(self, tmp_path, value):
        enc = Encoder.init(ENC, seed=10)
        params = dict(enc.params)
        w1 = params["layers.0.ffn.w1"].copy()
        w1[1, 2] = value
        params["layers.0.ffn.w1"] = weight(w1)
        path = tmp_path / "n.ckpt"
        save_checkpoint(path, enc.with_params(params))
        # the header, then every tensor before layers.0.ffn.w1 in parameter_shapes order
        names = list(enc.params)
        before = names[: names.index("layers.0.ffn.w1")]
        data_at = CKPT_HEADER_BYTES + 8 * sum(enc.params[n].size for n in before)
        value_at = data_at + 8 * (w1.shape[1] + 2)
        assert path.read_bytes()[value_at : value_at + 8] == struct.pack("<d", value)
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
