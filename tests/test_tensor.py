import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_op_reference as per_op
from umrlab import tensor as T
from umrlab.encoder import Encoder, EncoderConfig
from umrlab.errors import ContractError, DimensionError, NumericDomainError
from umrlab.gradcheck import check_gradients, finite_diff_grad, max_relative_error
from umrlab.prompts import TokenSequence


def rand(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return T.Tensor(rng.normal(0.0, scale, size=shape))


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(per_op.matmul(a, b).data, b.data)

    def test_dot_product(self):
        a = T.Tensor([[1.0, 2.0]])
        b = T.Tensor([[3.0], [4.0]])
        assert per_op.matmul(a, b).data == pytest.approx(np.array([[11.0]]))

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for l in range(4):
                    want[i][j] += a[i][l] * b[l][j]
        got = per_op.matmul(T.Tensor(a), T.Tensor(b)).data
        assert np.abs(got - want).max() < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            per_op.matmul(rand((2, 3)), rand((2, 2)))

    def test_of_a_transposed_view_equals_the_array_product(self):
        a, b = rand((32, 32), seed=1), rand((32, 32), seed=2)
        bt = per_op.transpose(b)
        # transpose wraps b's data transposed, a view, not a copy
        assert bt.data.base is b.data and np.shares_memory(bt.data, b.data)
        assert per_op.matmul(a, bt).data.tobytes() == (a.data @ b.data.T).tobytes()


class TestSoftmaxRows:
    def test_uniform(self):
        out = T.softmax_rows(np.array([[0.0, 0.0, 0.0, 0.0]]))
        assert out == pytest.approx(np.array([[0.25] * 4]))

    def test_large_entries_stay_finite(self):
        out = T.softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)

    def test_matches_direct_evaluation(self):
        row = np.array([[1.0, 2.0, 3.0]])
        direct = np.exp(row) / np.exp(row).sum()
        out = T.softmax_rows(row)
        assert np.abs(out - direct).max() < 1e-15

    def test_nan_rejected(self):
        with pytest.raises(NumericDomainError):
            T.softmax_rows(np.array([[np.nan, 1.0]]))

    def test_non_2d_rejected(self):
        with pytest.raises(DimensionError, match=r"2-D array, got shape \(3,\)"):
            T.softmax_rows(np.zeros(3))

    @given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=6), min_size=1, max_size=5))
    def test_rows_sum_to_one(self, rows):
        width = len(rows[0])
        rows = [r[:width] + [0.0] * (width - len(r)) for r in rows]
        out = T.softmax_rows(np.array(rows))
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
        assert (out >= 0).all()


class TestLayerNormRows:
    def test_constant_row_is_zero(self):
        out, _, _ = T._layer_norm(np.array([[5.0, 5.0, 5.0]]), np.ones(3), np.zeros(3))
        assert np.abs(out).max() < 1e-6

    def test_unit_variance_row(self):
        out, _, _ = T._layer_norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2))
        assert out == pytest.approx(np.array([[1.0, -1.0]]) / np.sqrt(1.0 + 1e-5), abs=1e-12)

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(3)
        row = rng.normal(size=5)
        gain = rng.normal(size=5)
        bias = rng.normal(size=5)
        eps = 1e-5
        mu = sum(row) / 5
        var = sum((v - mu) ** 2 for v in row) / 5
        want = [(v - mu) / (var + eps) ** 0.5 * g + b for v, g, b in zip(row, gain, bias)]
        out, _, _ = T._layer_norm(np.array([row]), gain, bias)
        assert np.abs(out[0] - np.array(want)).max() < 1e-14

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
        w = rng.normal(size=(rows, width))
        # d/d(out) of mean(out * w) is w times mean's 1/size, rounded as
        # mean's and mul's vector-Jacobian products round it
        dy = np.full(w.shape, 1.0 / w.size) * w
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
        out, xhat, inv = T._layer_norm(x, gain, bias)
        got = dict(zip(("x", "gain", "bias"), T._layer_norm_vjp(dy, xhat, inv, gain)), out=out)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = per_op.l2_normalize_rows(T.Tensor([[3.0, 4.0]]))
        assert out.data == pytest.approx(np.array([[0.6, 0.8]]))

    def test_unit_row_unchanged(self):
        x = np.array([[1.0, 0.0, 0.0]])
        assert np.array_equal(per_op.l2_normalize_rows(T.Tensor(x)).data, x)

    def test_zero_row_stays_zero(self):
        out = per_op.l2_normalize_rows(T.Tensor([[0.0, 0.0]]))
        assert np.array_equal(out.data, np.zeros((1, 2)))
        assert np.isfinite(out.data).all()

    @given(st.lists(st.lists(st.floats(-10, 10), min_size=2, max_size=5), min_size=1, max_size=4))
    def test_output_norms(self, rows):
        width = len(rows[0])
        rows = [r[:width] + [1.0] * (width - len(r)) for r in rows]
        x = np.array(rows)
        out = per_op.l2_normalize_rows(T.Tensor(x)).data
        norms = np.linalg.norm(x, axis=1)
        out_norms = np.linalg.norm(out, axis=1)
        for n_in, n_out in zip(norms, out_norms):
            if n_in >= 1e-12:
                assert abs(n_out - 1.0) < 1e-12


class TestElementwise:
    def test_mean(self):
        assert per_op.mean(T.Tensor([[2.0, 4.0, 6.0]])).item() == pytest.approx(4.0)

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            per_op.add(rand((2, 2)), rand((2, 3)))


class TestAttentionQueryRows:
    def test_tail_rows_attend_like_full_rows(self):
        q, k, v = (rand((6, 4), seed).data for seed in (1, 2, 3))
        full = T._attention(q, k, v, 2, 3)[0]
        tail = T._attention(q[[1, 2, 4, 5]], k, v, 2, 3)[0]
        assert tail.shape == (4, 4)
        np.testing.assert_allclose(tail, full[[1, 2, 4, 5]], rtol=1e-12, atol=1e-15)


def _same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


KERNEL_DRAWS = settings(max_examples=150, derandomize=True, deadline=None, database=None)


class TestKernelsKeepOutOfPlaceBytes:
    """Each array kernel, forward and vjp, works in place in its own
    buffers; each must still write the bytes of the out-of-place formula it
    replaced, written out here, and the per-op taped reference, which the
    block-stack tests hold the encoder to, must return them too."""

    @KERNEL_DRAWS
    @given(
        rows=st.integers(1, 40),
        width=st.integers(1, 40),
        out_width=st.integers(1, 40),
        log_scale=st.floats(-4, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_affine(self, rows, width, out_width, log_scale, seed):
        rng = np.random.default_rng(seed)
        x = 10.0**log_scale * rng.normal(size=(rows, width))
        w, b = rng.normal(size=(width, out_width)), rng.normal(size=out_width)
        dy = rng.normal(size=(rows, out_width))
        want = x @ w + b
        assert _same_bytes(T._affine(x, w, b), want)
        assert _same_bytes(per_op.affine(T.Tensor(x), T.Tensor(w), T.Tensor(b)).data, want)
        got = T._affine_vjp(dy, x, w)
        for g, ref in zip(got, (dy @ w.T, x.T @ dy, dy.sum(axis=0))):
            assert _same_bytes(g, ref)

    @KERNEL_DRAWS
    @given(
        rows=st.integers(1, 40),
        width=st.integers(1, 130),
        log_scale=st.floats(-4, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gelu(self, rows, width, log_scale, seed):
        rng = np.random.default_rng(seed)
        x = 10.0**log_scale * rng.normal(size=(rows, width))
        dy = rng.normal(size=(rows, width))
        t = np.tanh(T._GELU_C * (x + T._GELU_A * (x * x * x)))
        want = 0.5 * x * (1.0 + t)
        du = T._GELU_C * (1.0 + 3.0 * T._GELU_A * x**2)
        want_dx = dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)
        assert _same_bytes(T._gelu_tanh(x), t)
        assert _same_bytes(T._gelu(x, 1.0 + t, np.empty(x.shape)), want)
        assert _same_bytes(per_op.gelu(T.Tensor(x)).data, want)
        assert _same_bytes(T._bare_gelu(x.copy()), want)
        assert _same_bytes(T._gelu_vjp(dy, x, t), want_dx)

    @KERNEL_DRAWS
    @given(
        rows=st.integers(1, 40),
        width=st.integers(1, 130),
        log_scale=st.floats(-4, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_layer_norm(self, rows, width, log_scale, seed):
        rng = np.random.default_rng(seed)
        x = 10.0**log_scale * (rng.normal(size=(rows, width)) + rng.normal(size=(rows, 1)))
        gain, bias = rng.normal(size=width), rng.normal(size=width)
        dy = rng.normal(size=(rows, width))
        centred = x - x.sum(axis=1, keepdims=True) / width
        inv = 1.0 / np.sqrt((centred * centred).sum(axis=1, keepdims=True) / width + T.LAYER_NORM_EPS)
        xhat = centred * inv
        want = xhat * gain + bias
        dxhat = dy * gain
        want_dx = inv * (
            dxhat
            - dxhat.sum(axis=1, keepdims=True) / width
            - xhat * ((dxhat * xhat).sum(axis=1, keepdims=True) / width)
        )
        out, got_xhat, got_inv = T._layer_norm(x, gain, bias)
        assert _same_bytes(out, want)
        assert _same_bytes(got_xhat, xhat)
        assert _same_bytes(got_inv, inv)
        assert _same_bytes(per_op.layer_norm_rows(T.Tensor(x), T.Tensor(gain), T.Tensor(bias)).data, want)
        got = T._layer_norm_vjp(dy, xhat, inv, gain)
        for g, ref in zip(got, (want_dx, (dy * xhat).sum(axis=0), dy.sum(axis=0))):
            assert _same_bytes(g, ref)

    @KERNEL_DRAWS
    @given(
        batch=st.integers(1, 4),
        seq_len=st.integers(1, 12),
        heads=st.integers(1, 4),
        head_dim=st.integers(1, 6),
        tail=st.integers(0, 12),
        log_scale=st.floats(-3, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_attention(self, batch, seq_len, heads, head_dim, tail, log_scale, seed):
        # tail 0 draws full query rows, else the last min(tail, seq_len) rows
        rng = np.random.default_rng(seed)
        d = heads * head_dim
        k, v = (10.0**log_scale * rng.normal(size=(batch * seq_len, d)) for _ in range(2))
        m = min(tail, seq_len) or seq_len
        q = 10.0**log_scale * rng.normal(size=(batch * m, d))
        dy = rng.normal(size=q.shape)
        shape = (batch, -1, heads, head_dim)
        q4, k4, v4 = (t.reshape(shape).transpose(0, 2, 1, 3) for t in (q, k, v))
        z = (q4 @ k4.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(head_dim))
        z -= z.max(axis=3, keepdims=True)
        e = np.exp(z)
        weights = e / e.sum(axis=3, keepdims=True)
        want = (weights @ v4).transpose(0, 2, 1, 3).reshape(q.shape)
        dy4 = dy.reshape(shape).transpose(0, 2, 1, 3)
        da = dy4 @ v4.transpose(0, 1, 3, 2)
        dz = (da - (da * weights).sum(axis=3, keepdims=True)) * weights * (1.0 / np.sqrt(head_dim))
        want_grads = [
            (t4).transpose(0, 2, 1, 3).reshape(like.shape)
            for t4, like in (
                (dz @ k4, q),
                (dz.transpose(0, 1, 3, 2) @ q4, k),
                (weights.transpose(0, 1, 3, 2) @ dy4, v),
            )
        ]
        out, *saved = T._attention(q, k, v, heads, seq_len)
        assert _same_bytes(out, want)
        assert _same_bytes(saved[3], weights)
        taped = per_op.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), heads, seq_len)
        assert _same_bytes(taped.data, want)
        for g, ref in zip(T._attention_vjp(dy, *saved), want_grads):
            assert _same_bytes(g, ref)


class TestBareOwnership:
    """The in-place GELU writes over its input, and every other kernel,
    forward or vjp, leaves its operands alone."""

    def test_gelu_returns_its_input_buffer(self):
        x = np.random.default_rng(5).normal(size=(3, 8))
        assert T._bare_gelu(x) is x

    def test_other_entries_leave_their_operands(self):
        rng = np.random.default_rng(6)
        x, w, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 4)), rng.normal(size=4)
        before = [t.tobytes() for t in (x, w, b)]
        T._affine(x, w, b)
        T._affine_vjp(x, x, w)
        _, xhat, inv = T._layer_norm(x, b, b)
        T._layer_norm_vjp(x, xhat, inv, b)
        _, *saved = T._attention(x, x, x, 2, 3)
        T._attention_vjp(x, *saved)
        T._gelu_vjp(x, x, np.tanh(x))
        T._gelu_tanh(x)
        T._gelu(x, np.tanh(x) + 1.0, np.empty(x.shape))
        assert [t.tobytes() for t in (x, w, b)] == before


class TestBackward:
    def test_mean_gives_one_over_size(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3), grad_tracked=True)
        grads = T.backward(per_op.mean(x))
        assert np.array_equal(grads[x], np.full((2, 3), 1.0 / 6))

    def test_square_at_three(self):
        # d(x*x)/dx = 2x = 6 at x = 3
        a = T.Tensor([[3.0]], grad_tracked=True)
        grads = T.backward(per_op.mean(per_op.mul(a, a)))
        assert grads[a] == pytest.approx(np.array([[6.0]]))

    def test_root_must_be_scalar(self):
        x = T.Tensor([[1.0, 2.0]], grad_tracked=True)
        with pytest.raises(ContractError):
            T.backward(per_op.scale(x, 2.0))

    def test_fanout_accumulates(self):
        x = T.Tensor([[2.0]], grad_tracked=True)
        y = per_op.add(x, x)
        grads = T.backward(per_op.mean(y))
        assert grads[x] == pytest.approx(np.array([[2.0]]))

    def test_deterministic_bitwise(self):
        def build():
            x = T.Tensor(np.linspace(-1, 1, 12).reshape(3, 4), grad_tracked=True)
            w = T.Tensor(np.linspace(0.1, 0.9, 8).reshape(4, 2), grad_tracked=True)
            y = per_op.cross_entropy_rows(per_op.matmul(per_op.l2_normalize_rows(x), w), np.full((3, 2), 0.5))
            return T.backward(y), x, w

        (g1, x1, w1), (g2, x2, w2) = build(), build()
        assert g1[x1].tobytes() == g2[x2].tobytes()
        assert g1[w1].tobytes() == g2[w2].tobytes()

    def test_graph_topological_order(self):
        x = T.Tensor([[1.0, 2.0]], grad_tracked=True)
        y = per_op.mean(per_op.l2_normalize_rows(per_op.scale(x, 2.0)))
        graph = T.ComputeGraph.of(y)
        seen = set()
        for node in graph.nodes:
            for inp in node.inputs:
                if inp._node is not None:
                    assert id(inp._node) in seen
            seen.add(id(node))

    def test_map_holds_only_the_tracked_leaves_reached(self):
        x = T.Tensor([[1.0, 2.0]], grad_tracked=True)
        unused = T.Tensor([[1.0]], grad_tracked=True)
        grads = T.backward(per_op.mean(per_op.mul(per_op.scale(x, 2.0), T.Tensor([[3.0, 4.0]]))))
        assert list(grads) == [x] and unused not in grads
        # a tracked scalar root with no node is its own leaf
        root = T.Tensor(2.0, grad_tracked=True)
        assert T.backward(root) == {root: 1.0}

    def test_untracked_inputs_record_nothing(self):
        x, w = T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]])
        y = per_op.mean(per_op.matmul(per_op.scale(x, 2.0), w))
        assert y._node is None and not y.grad_tracked
        # one tracked input is enough to record
        z = per_op.mul(x, T.Tensor([[1.0, 1.0]], grad_tracked=True))
        assert z._node is not None and z.grad_tracked


def scatter(shape, ids, rows):
    out = np.zeros(shape)
    np.add.at(out, ids, rows)
    return out


class TestGatherGradients:
    """``backward``'s sums of gather gradients, fed by ``per_op_reference``'s
    gathers, whose every gradient is a dense scatter of repeated rows."""

    def test_two_gathers_match_dense_per_gather_sums(self):
        # rows 1 and 3 repeat inside each gather and across them; row 3's
        # terms 1e16, 1, -1e16, 1 sum to 0 per gather first, and to 1 in any
        # single pass over both gathers. Each gather holds 8 entries, so the
        # mean's exact 1/8 cancels the 8 the weights are scaled by
        table = T.Tensor(np.arange(10.0).reshape(5, 2), grad_tracked=True)
        first, second = [1, 3, 1, 3], [3, 1, 3, 2]
        w1 = np.array([[1.0], [-1e16], [1e16], [1.0]]) * [1.0, -3.0]
        w2 = np.array([[1e16], [1.0], [1.0], [3.0]]) * [1.0, 0.5]
        part1 = per_op.mean(per_op.mul(per_op.take_rows(table, first), T.Tensor(8 * w1)))
        part2 = per_op.mean(per_op.mul(per_op.take_rows(table, second), T.Tensor(8 * w2)))
        got = T.backward(per_op.add(part1, part2))[table]
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
        part1 = per_op.mean(per_op.mul(per_op.take_rows(table, [2, 0, 2]), T.Tensor(rows)))
        part2 = per_op.mean(per_op.mul(table, T.Tensor(w)))
        got = T.backward(per_op.add(part1, part2))[table]
        # each part's gradient is its weights times the mean's 1/size
        want = np.full(w.shape, 1 / 12) * w
        want += scatter(table.shape, [2, 0, 2], np.full(rows.shape, 1 / 9) * rows)
        assert got.tobytes() == want.tobytes()


def dense_take_rows(table, ids):
    """A gather of distinct rows whose gradient is a dense
    :func:`~umrlab.tensor.scatter_rows`, as the block stack's own gathers'
    are."""
    idx = np.asarray(ids, dtype=np.int64)

    def vjp(dy):
        return (T.scatter_rows(table.shape, idx, dy),)

    return T._result(table.data[idx], (table,), vjp)


class TestIntermediateGather:
    """``scatter_rows`` has the bytes of ``np.add.at`` into zeros, and
    ``backward`` gives an intermediate that a ``scatter_rows`` gather reads
    the bytes it would get from ``per_op_reference``'s gathers, which have
    the bytes of row gradients."""

    def test_scatter_rows_equals_add_at_into_zeros(self):
        rng = np.random.default_rng(3)
        for ids in ([2, 0, 3], [4], [3, 1, 0, 2, 4]):
            rows = rng.normal(size=(len(ids), 3)) * 10.0 ** rng.integers(-8, 9, (len(ids), 3))
            rows[rng.random(rows.shape) < 0.3] = -0.0
            rows[0, 0] = -0.0
            got = T.scatter_rows((5, 3), np.array(ids), rows)
            assert got.tobytes() == scatter((5, 3), ids, rows).tobytes()
            # 0.0 + -0.0 is 0.0, as np.add.at into zeros sums it
            assert not (np.signbit(got) & (got == 0.0)).any()

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        n_rows=st.integers(1, 8),
        width=st.integers(1, 4),
        gathers=st.lists(
            st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True), min_size=1, max_size=3
        ),
        dense_at=st.none() | st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_backward_bytes_match_row_grad_gathers(self, n_rows, width, gathers, dense_at, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n_rows, width))
        uses = [[i for i in ids if i < n_rows] or [0] for ids in gathers]
        if dense_at is not None:
            uses.insert(min(dense_at, len(uses)), None)
        weights = []
        for ids in uses:
            shape = data.shape if ids is None else (len(ids), width)
            w = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
            # a zero weight sends -0.0 or 0.0 to a row
            w[rng.random(shape) < 0.25] = -0.0
            weights.append(w)

        def table_grad(take):
            table = T.Tensor(data, grad_tracked=True)
            inner = per_op.scale(table, 1.0)
            root = None
            for ids, w in zip(uses, weights):
                x = inner if ids is None else take(inner, ids)
                part = per_op.mean(per_op.mul(x, T.Tensor(w)))
                root = part if root is None else per_op.add(root, part)
            return T.backward(root)[table]

        assert table_grad(dense_take_rows).tobytes() == table_grad(per_op.take_rows).tobytes()


class TestRowGrad:
    """Row gradients, as the block stack's table gathers give, and the dense
    scatters of ``per_op_reference``'s gathers, which have their bytes."""

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(
        n_rows=st.integers(1, 8),
        width=st.integers(1, 4),
        gathers=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=10), min_size=1, max_size=4),
        dense_at=st.none() | st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_backward_densifies_to_per_gather_scatters(self, n_rows, width, gathers, dense_at, seed):
        rng = np.random.default_rng(seed)
        table = T.Tensor(rng.normal(size=(n_rows, width)), grad_tracked=True)
        uses = [[i % n_rows for i in ids] for ids in gathers]
        if dense_at is not None:
            uses.insert(min(dense_at, len(uses)), None)
        parts, flows, row_grads = [], [], []
        for ids in uses:
            shape = table.shape if ids is None else (len(ids), width)
            # magnitudes 1e-8..1e8, so a change of summation order shows
            w = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
            x = table if ids is None else per_op.take_rows(table, ids)
            parts.append(per_op.mean(per_op.mul(x, T.Tensor(w))))
            # what the mean's and mul's vjps send to x for a root gradient of 1
            flow = np.full(shape, 1.0 / w.size) * w
            flows.append(flow if ids is None else scatter(table.shape, ids, flow))
            if ids is not None:
                row_grads.append(T.RowGrad.scatter(table.shape, np.array(ids), flow))
        root = parts[0]
        for part in parts[1:]:
            root = per_op.add(root, part)
        got = T.backward(root)[table]
        # the dense reference: one dense contribution per use, summed in
        # reverse tape order
        want = flows[-1]
        for flow in reversed(flows[:-1]):
            want = want + flow
        assert type(got) is np.ndarray and got.tobytes() == want.tobytes()
        if dense_at is None:
            # the gathers' row gradients, summed in the same order, as the
            # block stack's pullback sums its length groups', give those
            # bytes too
            summed = T.RowGrad.sum(row_grads[::-1])
            assert summed.ids.tolist() == sorted({i for ids in uses for i in ids})
            assert T.dense_grad(summed).tobytes() == want.tobytes()

    def test_dense_is_a_fresh_table_of_zeros_and_rows(self):
        g = T.RowGrad.scatter((4, 2), np.array([3, 1, 3]), np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert g.ids.tolist() == [1, 3] and g.shape == (4, 2)
        out = g.dense()
        assert out.tolist() == [[0.0, 0.0], [3.0, 4.0], [0.0, 0.0], [6.0, 8.0]]
        out[1] = 9.0
        assert g.rows.tolist() == [[3.0, 4.0], [6.0, 8.0]]

    def test_gradcheck_densifies_a_gathered_table(self):
        def f(table):
            return per_op.mean(per_op.mul(per_op.take_rows(table, [0, 2, 0]), per_op.take_rows(table, [1, 1, 2])))

        assert check_gradients(f, [rand((3, 2), seed=5)]) < 1e-6


def grad_parts(kinds, seed):
    """One gradient of a (6, 3) table per kind: a RowGrad over a few rows
    ("rows") or a dense array ("dense"), with magnitudes 1e-8..1e8 so that
    a change of summation order shows."""
    rng = np.random.default_rng(seed)
    parts = []
    for kind in kinds:
        size = (6, 3) if kind == "dense" else (int(rng.integers(0, 5)), 3)
        rows = rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size=size)
        if kind == "rows":
            rows = T.RowGrad.scatter((6, 3), rng.integers(0, 6, size[0]), rows)
        parts.append(rows)
    return parts


class TestSumGrads:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(kind=st.sampled_from(["rows", "dense"]), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_in_order_dense_sum(self, kind, seed):
        # one weight's two gradients are both rows (a table's) or both arrays
        parts = grad_parts([kind, kind], seed)
        before = [T.dense_grad(g).tobytes() for g in parts]
        want = T.dense_grad(parts[0]) + T.dense_grad(parts[1])
        got = T.sum_grads(*parts)
        assert isinstance(got, T.RowGrad) == (kind == "rows")
        assert T.dense_grad(got).tobytes() == want.tobytes()
        # no part is written into
        assert [T.dense_grad(g).tobytes() for g in parts] == before


class TestTapeLifetime:
    def test_tape_freed_without_cyclic_collector(self):
        x = T.Tensor(rand((3, 4), seed=1).data, grad_tracked=True)
        w = T.Tensor(rand((4, 2), seed=2).data, grad_tracked=True)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            hidden = per_op.l2_normalize_rows(per_op.matmul(x, w))
            probe = weakref.ref(hidden)
            root = per_op.mean(per_op.mul(hidden, hidden))
            del hidden
            grads = T.backward(root)
            assert probe() is not None
            del root, grads
            assert probe() is None
        finally:
            if was_enabled:
                gc.enable()


class TestFiniteDiff:
    def test_mean_of_squares(self):
        f = lambda t: per_op.mean(per_op.mul(t, t))
        got = finite_diff_grad(f, T.Tensor([[1.0, 2.0]]))
        assert np.abs(got - np.array([[1.0, 2.0]])).max() < 1e-9

    def test_constant_function(self):
        f = lambda t: T.Tensor(np.asarray(5.0))
        got = finite_diff_grad(f, T.Tensor([[1.0, 2.0]]))
        assert np.abs(got).max() == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(NumericDomainError):
            finite_diff_grad(lambda t: per_op.mean(per_op.scale(t, np.inf)), T.Tensor([[-1.0]]))


# The encoder runs affine, GELU, layer norm and attention in its block
# stack, whose pullback ``per_op_reference`` records as one tape node, and
# concatenates an embed's length groups and gathers its [RET] rows inside
# that pullback. Their rows keep their names but check that node: the loss
# of a tiny encoder's block stack (d=4, 2 heads) over sequences of 1 and 3
# tokens, through the parameters the row names, at depth 1 or 2 and with
# the [RET] tail on or off. The other parameters keep Encoder.init's values.
TINY = EncoderConfig(vocab_size=5, d_model=4, n_heads=2, n_layers=2, max_seq=3, k=1)
TINY_SEQS = (TokenSequence((3, 4, 1)), TokenSequence((1,)), TokenSequence((4, 2, 1)))
ATTENTION = ("attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv", "attn.bv", "attn.wo", "attn.bo")
LAYER_NORMS = ("ln1.gain", "ln1.bias", "ln2.gain", "ln2.bias")
TABLES = ("tok_emb", "pos_emb")


def block_stack(depth, *, tail, batch, layer, checked):
    """(f, shapes): a loss of a depth-``depth`` block stack as a function
    of ``checked``, parameter names of layer ``layer`` or tables."""
    cfg = EncoderConfig(**{**vars(TINY), "n_layers": depth})
    names = [n if n in TABLES else f"layers.{layer}.{n}" for n in checked]
    fixed = {n: T.Tensor(w) for n, w in Encoder.init(cfg, seed=depth).params.items()}
    seqs = TINY_SEQS if batch == 2 else TINY_SEQS[:2]

    def f(*xs):
        # at Encoder.init's weight scale: with N(0, 1) weights, GELU inputs
        # reach its flat tail and some gradients sink to 1e-8..1e-7, where
        # central differences of a loss near 1 are roundoff
        enc = per_op.Tracked(cfg, {**fixed, **{n: per_op.scale(x, 0.02) for n, x in zip(names, xs)}})
        if tail:
            outs = [per_op.embed_node(enc, seqs, depth)]
        else:
            outs = [per_op.stack_node(enc, rows, depth) for rows in (seqs[::2], seqs[1:2])]
        return per_op.mean(per_op.concat_rows([per_op.mul(h, h) for h in outs]))

    return f, [fixed[n].shape for n in names]


OPS_FOR_GRADCHECK = [
    ("matmul", lambda a, b: per_op.mean(per_op.matmul(a, b)), [(3, 4), (4, 2)]),
    ("affine", *block_stack(1, tail=False, batch=1, layer=0, checked=ATTENTION + ("ffn.w2", "ffn.b2"))),
    ("transpose", lambda x: per_op.mean(per_op.mul(per_op.transpose(x), per_op.transpose(x))), [(2, 3)]),
    ("add", lambda a, b: per_op.mean(per_op.add(a, b)), [(2, 3), (2, 3)]),
    ("sub", lambda a, b: per_op.mean(per_op.mul(per_op.sub(a, b), per_op.sub(a, b))), [(2, 3), (2, 3)]),
    ("mul", lambda a, b: per_op.mean(per_op.mul(a, b)), [(2, 3), (2, 3)]),
    ("scale", lambda x: per_op.mean(per_op.scale(x, -2.5)), [(2, 3)]),
    ("gelu", *block_stack(2, tail=False, batch=1, layer=0, checked=("ffn.w1", "ffn.b1"))),
    ("sum_rows", lambda x: per_op.mean(per_op.sum_rows(per_op.mul(x, x))), [(3, 4)]),
    ("concat", *block_stack(2, tail=True, batch=2, layer=1, checked=("ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"))),
    ("take_rows", *block_stack(1, tail=True, batch=2, layer=0, checked=("ln2.gain", "ln2.bias") + TABLES)),
    ("layer_norm", *block_stack(1, tail=True, batch=1, layer=0, checked=LAYER_NORMS + TABLES)),
    # the row norms' sum over the size; the mean of unit rows times
    # themselves is 1/width whatever x, so its gradient is roundoff alone
    ("l2norm", lambda x: per_op.mean(per_op.mul(per_op.l2_normalize_rows(x), x)), [(3, 4)]),
    ("attention", *block_stack(2, tail=True, batch=1, layer=0, checked=ATTENTION)),
    ("attention-batch2", *block_stack(1, tail=False, batch=2, layer=0, checked=ATTENTION)),
    ("attention-tail", *block_stack(2, tail=True, batch=2, layer=1, checked=ATTENTION + TABLES)),
    (
        "cross_entropy",
        lambda s: per_op.cross_entropy_rows(s, np.eye(3)),
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


def test_wrap_of_a_view_shares_its_buffer_read_only():
    buf = np.arange(12.0)
    t = T.Tensor._wrap(buf[2:8].reshape(2, 3), grad_tracked=False)
    assert np.shares_memory(t.data, buf) and not t.data.flags.writeable
    with pytest.raises(ValueError):
        t.data[0, 0] = 9.0


def test_constructor_copies_another_dtype():
    src = np.arange(3, dtype=np.float32)
    t = T.Tensor(src)
    assert t.data.dtype == np.float64 and not np.shares_memory(t.data, src)
    assert src.flags.writeable


def test_tensor_shape_matches_data():
    t = T.Tensor(np.zeros((2, 3)))
    assert t.size == 6 and t.shape == (2, 3)
