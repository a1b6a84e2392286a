import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umrlab import tensor as T
from umrlab.errors import ContractError, DimensionError, NumericDomainError
from umrlab.gradcheck import check_gradients, finite_diff_grad, max_relative_error


def rand(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return T.Tensor(rng.normal(0.0, scale, size=shape))


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_dot_product(self):
        a = T.Tensor([[1.0, 2.0]])
        b = T.Tensor([[3.0], [4.0]])
        assert T.matmul(a, b).data == pytest.approx(np.array([[11.0]]))

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for l in range(4):
                    want[i][j] += a[i][l] * b[l][j]
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        assert np.abs(got - want).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(rand((2, 3)), rand((2, 2)))


class TestSoftmaxRows:
    def test_uniform(self):
        out = T.softmax_rows(T.Tensor([[0.0, 0.0, 0.0, 0.0]]))
        assert out.data == pytest.approx(np.array([[0.25] * 4]))

    def test_large_entries_stay_finite(self):
        out = T.softmax_rows(T.Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        assert out.data[0, 0] == pytest.approx(1.0)

    def test_matches_direct_evaluation(self):
        row = np.array([[1.0, 2.0, 3.0]])
        direct = np.exp(row) / np.exp(row).sum()
        out = T.softmax_rows(T.Tensor(row)).data
        assert np.abs(out - direct).max() < 1e-15

    def test_nan_rejected(self):
        with pytest.raises(NumericDomainError):
            T.softmax_rows(T.Tensor([[np.nan, 1.0]]))

    @given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=6), min_size=1, max_size=5))
    def test_rows_sum_to_one(self, rows):
        width = len(rows[0])
        rows = [r[:width] + [0.0] * (width - len(r)) for r in rows]
        out = T.softmax_rows(T.Tensor(rows)).data
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
        assert (out >= 0).all()


class TestLayerNormRows:
    def test_constant_row_is_zero(self):
        x = T.Tensor([[5.0, 5.0, 5.0]])
        out = T.layer_norm_rows(x, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)))
        assert np.abs(out.data).max() < 1e-6

    def test_unit_variance_row(self):
        x = T.Tensor([[1.0, -1.0]])
        out = T.layer_norm_rows(x, T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), eps=1e-12)
        assert out.data == pytest.approx(np.array([[1.0, -1.0]]), abs=1e-6)

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(3)
        row = rng.normal(size=5)
        gain = rng.normal(size=5)
        bias = rng.normal(size=5)
        eps = 1e-5
        mu = sum(row) / 5
        var = sum((v - mu) ** 2 for v in row) / 5
        want = [(v - mu) / (var + eps) ** 0.5 * g + b for v, g, b in zip(row, gain, bias)]
        out = T.layer_norm_rows(T.Tensor([row]), T.Tensor(gain), T.Tensor(bias), eps=eps)
        assert np.abs(out.data[0] - np.array(want)).max() < 1e-14


    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        width=st.integers(1, 300),
        rows=st.integers(1, 4),
        log_scale=st.floats(-4, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_match_numpy_mean_var_form(self, width, rows, log_scale, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        x = scale * (rng.normal(size=(rows, width)) + rng.normal(size=(rows, 1)))
        gain, bias = rng.normal(size=width), rng.normal(size=width)
        dy = rng.normal(size=(rows, width))
        mu = x.mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
        xhat = (x - mu) * inv
        dxhat = dy * gain
        want = {
            "out": xhat * gain + bias,
            "x": inv * (
                dxhat
                - dxhat.mean(axis=1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
            ),
            "gain": (dy * xhat).sum(axis=0),
            "bias": dy.sum(axis=0),
        }
        leaves = {n: T.Tensor(v, grad_tracked=True) for n, v in (("x", x), ("gain", gain), ("bias", bias))}
        out = T.layer_norm_rows(leaves["x"], leaves["gain"], leaves["bias"])
        # d/d(out) of sum(out * dy) is dy exactly
        grads = T.backward(T.sum_all(T.mul(out, T.Tensor(dy))))
        got = {"out": out.data, **{n: grads[t] for n, t in leaves.items()}}
        assert T.bare.layer_norm_rows(x, gain, bias).tobytes() == want["out"].tobytes()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = T.l2_normalize_rows(T.Tensor([[3.0, 4.0]]))
        assert out.data == pytest.approx(np.array([[0.6, 0.8]]))

    def test_unit_row_unchanged(self):
        x = np.array([[1.0, 0.0, 0.0]])
        assert np.array_equal(T.l2_normalize_rows(T.Tensor(x)).data, x)

    def test_zero_row_stays_zero(self):
        out = T.l2_normalize_rows(T.Tensor([[0.0, 0.0]]), eps=1e-12)
        assert np.array_equal(out.data, np.zeros((1, 2)))
        assert np.isfinite(out.data).all()

    @given(st.lists(st.lists(st.floats(-10, 10), min_size=2, max_size=5), min_size=1, max_size=4))
    def test_output_norms(self, rows):
        width = len(rows[0])
        rows = [r[:width] + [1.0] * (width - len(r)) for r in rows]
        x = np.array(rows)
        out = T.l2_normalize_rows(T.Tensor(x), eps=1e-12).data
        norms = np.linalg.norm(x, axis=1)
        out_norms = np.linalg.norm(out, axis=1)
        for n_in, n_out in zip(norms, out_norms):
            if n_in >= 1e-12:
                assert abs(n_out - 1.0) < 1e-12


class TestElementwise:
    def test_mean(self):
        assert T.mean(T.Tensor([[2.0, 4.0, 6.0]])).item() == pytest.approx(4.0)

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.add(rand((2, 2)), rand((2, 3)))

    def test_concat_slice_round_trip(self):
        a, b = rand((2, 3), 1), rand((3, 3), 2)
        cat = T.concat_rows([a, b])
        assert np.array_equal(T.take_rows(cat, [2, 3, 4]).data, b.data)


class TestBackward:
    def test_sum_gives_ones(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3), grad_tracked=True)
        grads = T.backward(T.sum_all(x))
        assert np.array_equal(grads[x], np.ones((2, 3)))

    def test_square_at_three(self):
        # d(x*x)/dx = 2x = 6 at x = 3
        a = T.Tensor([[3.0]], grad_tracked=True)
        grads = T.backward(T.sum_all(T.mul(a, a)))
        assert grads[a] == pytest.approx(np.array([[6.0]]))

    def test_root_must_be_scalar(self):
        x = T.Tensor([[1.0, 2.0]], grad_tracked=True)
        with pytest.raises(ContractError):
            T.backward(T.gelu(x))

    def test_fanout_accumulates(self):
        x = T.Tensor([[2.0]], grad_tracked=True)
        y = T.add(x, x)
        grads = T.backward(T.sum_all(y))
        assert grads[x] == pytest.approx(np.array([[2.0]]))

    def test_deterministic_bitwise(self):
        def build():
            x = T.Tensor(np.linspace(-1, 1, 12).reshape(3, 4), grad_tracked=True)
            w = T.Tensor(np.linspace(0.1, 0.9, 8).reshape(4, 2), grad_tracked=True)
            y = T.softmax_rows(T.matmul(T.gelu(x), w))
            return T.backward(T.mean(y)), x, w

        (g1, x1, w1), (g2, x2, w2) = build(), build()
        assert g1[x1].tobytes() == g2[x2].tobytes()
        assert g1[w1].tobytes() == g2[w2].tobytes()

    def test_graph_topological_order(self):
        x = T.Tensor([[1.0, 2.0]], grad_tracked=True)
        y = T.mean(T.gelu(T.scale(x, 2.0)))
        graph = T.ComputeGraph.of(y)
        seen = set()
        for node in graph.nodes:
            for inp in node.inputs:
                if inp._node is not None:
                    assert id(inp._node) in seen
            seen.add(id(node))

    def test_no_grad_blocks_recording(self):
        x = T.Tensor([[1.0]], grad_tracked=True)
        with T.no_grad():
            y = T.gelu(x)
        assert y._node is None and not y.grad_tracked


def scatter(shape, ids, rows):
    out = np.zeros(shape)
    np.add.at(out, ids, rows)
    return out


class TestGatherGradients:
    def test_two_gathers_match_dense_per_gather_sums(self):
        # rows 1 and 3 repeat inside each gather and across them; row 3's
        # terms 1e16, 1, -1e16, 1 sum to 0 per gather first, and to 1 in any
        # single pass over both gathers
        table = T.Tensor(np.arange(10.0).reshape(5, 2), grad_tracked=True)
        first, second = [1, 3, 1, 3, 0], [3, 1, 3, 2]
        w1 = np.array([[1.0], [-1e16], [1e16], [1.0], [2.0]]) * [1.0, -3.0]
        w2 = np.array([[1e16], [1.0], [1.0], [3.0]]) * [1.0, 0.5]
        part1 = T.sum_all(T.mul(T.take_rows(table, first), T.Tensor(w1)))
        part2 = T.sum_all(T.mul(T.take_rows(table, second), T.Tensor(w2)))
        got = T.backward(T.add(part1, part2))[table]
        # one dense scatter per gather, added in reverse tape order
        want = scatter(table.shape, second, w2) + scatter(table.shape, first, w1)
        assert got.tobytes() == want.tobytes()
        for ids, rows in ((second + first, [w2, w1]), (first + second, [w1, w2])):
            naive = scatter(table.shape, ids, np.concatenate(rows))
            assert naive.tobytes() != want.tobytes()

    def test_dense_use_then_gather_matches_dense_sum(self):
        rng = np.random.default_rng(22)
        table = T.Tensor(rng.normal(size=(4, 3)), grad_tracked=True)
        w = rng.normal(size=(4, 3))
        rows = rng.normal(size=(3, 3))
        part1 = T.sum_all(T.mul(T.take_rows(table, [2, 0, 2]), T.Tensor(rows)))
        part2 = T.sum_all(T.mul(table, T.Tensor(w)))
        got = T.backward(T.add(part1, part2))[table]
        want = w + scatter(table.shape, [2, 0, 2], rows)
        assert got.tobytes() == want.tobytes()


class TestTapeLifetime:
    def test_tape_freed_without_cyclic_collector(self):
        x = T.Tensor(rand((3, 4), seed=1).data, grad_tracked=True)
        w = T.Tensor(rand((4, 2), seed=2).data, grad_tracked=True)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            hidden = T.gelu(T.matmul(x, w))
            probe = weakref.ref(hidden)
            root = T.sum_all(T.mul(hidden, hidden))
            del hidden
            grads = T.backward(root)
            assert probe() is not None
            del root, grads
            assert probe() is None
        finally:
            if was_enabled:
                gc.enable()


class TestFiniteDiff:
    def test_sum_of_squares(self):
        f = lambda t: T.sum_all(T.mul(t, t))
        got = finite_diff_grad(f, T.Tensor([[1.0, 2.0]]))
        assert np.abs(got - np.array([[2.0, 4.0]])).max() < 1e-9

    def test_constant_function(self):
        f = lambda t: T.Tensor(np.asarray(5.0))
        got = finite_diff_grad(f, T.Tensor([[1.0, 2.0]]))
        assert np.abs(got).max() == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(NumericDomainError):
            finite_diff_grad(lambda t: T.sum_all(T.scale(t, np.inf)), T.Tensor([[-1.0]]))


OPS_FOR_GRADCHECK = [
    ("matmul", lambda a, b: T.mean(T.matmul(a, b)), [(3, 4), (4, 2)]),
    ("affine", lambda x, w, b: T.mean(T.affine(x, w, b)), [(3, 4), (4, 2), (2,)]),
    ("transpose", lambda x: T.mean(T.mul(T.transpose(x), T.transpose(x))), [(2, 3)]),
    ("add", lambda a, b: T.mean(T.add(a, b)), [(2, 3), (2, 3)]),
    ("sub", lambda a, b: T.mean(T.mul(T.sub(a, b), T.sub(a, b))), [(2, 3), (2, 3)]),
    ("mul", lambda a, b: T.mean(T.mul(a, b)), [(2, 3), (2, 3)]),
    ("scale", lambda x: T.mean(T.scale(x, -2.5)), [(2, 3)]),
    ("gelu", lambda x: T.mean(T.gelu(x)), [(3, 3)]),
    ("sum_rows", lambda x: T.mean(T.sum_rows(T.mul(x, x))), [(3, 4)]),
    ("concat", lambda a, b: T.mean(T.mul(T.concat_rows([a, b]), T.concat_rows([a, b]))), [(2, 3), (1, 3)]),
    ("take_rows", lambda x: T.mean(T.take_rows(x, [0, 2, 2, 1])), [(3, 3)]),
    ("softmax", lambda x: T.mean(T.mul(T.softmax_rows(x), T.softmax_rows(x))), [(3, 4)]),
    ("layer_norm", lambda x, g, b: T.mean(T.layer_norm_rows(x, g, b, eps=1e-5)), [(3, 4), (4,), (4,)]),
    ("l2norm", lambda x: T.mean(T.mul(T.l2_normalize_rows(x), T.l2_normalize_rows(x))), [(3, 4)]),
    ("attention", lambda q, k, v: T.mean(T.attention(q, k, v, 2, 3)), [(3, 4), (3, 4), (3, 4)]),
    (
        "attention-batch2",
        lambda q, k, v: T.mean(T.mul(T.attention(q, k, v, 2, 3), T.attention(q, k, v, 2, 3))),
        [(6, 4), (6, 4), (6, 4)],
    ),
    (
        "cross_entropy",
        lambda s: T.cross_entropy_rows(s, np.eye(3)),
        [(3, 3)],
    ),
]


@pytest.mark.parametrize("name,f,shapes", OPS_FOR_GRADCHECK, ids=[o[0] for o in OPS_FOR_GRADCHECK])
@pytest.mark.parametrize("seed", range(5))
def test_backward_matches_finite_differences(name, f, shapes, seed):
    rng = np.random.default_rng(seed + 100)
    xs = [T.Tensor(rng.normal(0.0, 1.0, size=s)) for s in shapes]
    assert check_gradients(f, xs) < 1e-4


def test_tensor_data_immutable():
    t = T.Tensor([[1.0, 2.0]])
    with pytest.raises(ValueError):
        t.data[0, 0] = 9.0


def test_tensor_shape_matches_data():
    t = T.Tensor(np.zeros((2, 3)))
    assert t.size == 6 and t.shape == (2, 3)
