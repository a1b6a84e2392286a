"""Tapes of one node per op, for tests only: the bitwise references of the
closed-form objectives and of the encoder's block stack.

The objectives in :mod:`umrlab.losses` each record one tape node whose vjp
is written out by hand. This module keeps the op-by-op form they replaced:
matmul, transpose, the elementwise ops, the reductions, the L2 row
normalizer and the row cross-entropy, each a taped op with its own vjp and
its operand checks, and the objectives written with them
(:func:`cosine_similarity_matrix` to :func:`pretraining_loss`), without the
public losses' contract checks. The bitwise tests require each closed-form
objective to give this tape's value and gradient bytes.

The encoder records no tape node either: its block stack backpropagates by
hand, through the pullback that ``embed_taped`` returns. This module keeps
its op-by-op form too: a taped affine, layer norm, GELU and attention, each
with its own vjp, built on the same array kernels and without operand
checks, and the block stack and an embed written with them, with a taped
gather and concatenation of rows of their own. Every gather here scatters
its gradient densely, as ``np.add.at`` into zeros, which has the bytes of
the :class:`~umrlab.tensor.RowGrad` the block stack gives its tables. The
bitwise tests require the block stack's pullback to give this tape's bytes.

The encoder's weights are plain arrays, so a test that puts the block stack
on a tape wraps tracked leaves of its own (:class:`Tracked`), and
:func:`stack_node` and :func:`embed_node` record the stack's pullback as one
tape node over them.
"""

from __future__ import annotations

import numpy as np

from umrlab import tensor as T
from umrlab.encoder import RET_TAIL_ROWS, Encoder, _blocks, _layer, embed_taped, length_groups
from umrlab.errors import DimensionError
from umrlab.losses import modality_partition
from umrlab.tensor import NORM_EPS


def _require_2d(op, *xs):
    for x in xs:
        if x.ndim != 2:
            raise DimensionError(f"{op} expects 2-D operands, got shape {x.shape}")


def _same_shape(op, a, b):
    if a.shape != b.shape:
        raise DimensionError(f"{op} operand shapes disagree: {a.shape} vs {b.shape}")


def detach(x):
    return T.Tensor(x.data)


def matmul(a, b):
    _require_2d("matmul", a, b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(dy):
        return dy @ b.data.T, a.data.T @ dy

    return T._result(out, (a, b), vjp)


def transpose(x):
    _require_2d("transpose", x)

    def vjp(dy):
        return (dy.T,)

    return T._result(x.data.T, (x,), vjp)


def add(a, b):
    _same_shape("add", a, b)

    def vjp(dy):
        return dy, dy

    return T._result(a.data + b.data, (a, b), vjp)


def sub(a, b):
    _same_shape("sub", a, b)

    def vjp(dy):
        return dy, -dy

    return T._result(a.data - b.data, (a, b), vjp)


def mul(a, b):
    _same_shape("mul", a, b)

    def vjp(dy):
        return dy * b.data, dy * a.data

    return T._result(a.data * b.data, (a, b), vjp)


def scale(x, c):
    c = float(c)

    def vjp(dy):
        return (dy * c,)

    return T._result(x.data * c, (x,), vjp)


def add_scalar(x, c):
    def vjp(dy):
        return (dy,)

    return T._result(x.data + float(c), (x,), vjp)


def mean(x):
    """Mean over every element, as a scalar."""
    n = x.size

    def vjp(dy):
        return (np.full(x.shape, float(dy) / n),)

    return T._result(np.asarray(x.data.mean()), (x,), vjp)


def sum_rows(x):
    """Row sums of a 2-D tensor, shape (m,)."""
    _require_2d("sum_rows", x)

    def vjp(dy):
        return (np.repeat(dy[:, None], x.shape[1], axis=1),)

    return T._result(x.data.sum(axis=1), (x,), vjp)


def l2_normalize_rows(x):
    """Scale each row to unit norm; rows with norm < NORM_EPS are scaled by 1/NORM_EPS."""
    _require_2d("l2_normalize_rows", x)
    norms = np.linalg.norm(x.data, axis=1, keepdims=True)
    denom = np.maximum(norms, NORM_EPS)
    out = x.data / denom

    def vjp(dy):
        small = norms < NORM_EPS
        inner = (dy * out).sum(axis=1, keepdims=True)
        dx = np.where(small, dy / NORM_EPS, (dy - out * inner) / denom)
        return (dx,)

    return T._result(out, (x,), vjp)


def cross_entropy_rows(scores, target_probs):
    """Mean over rows of cross-entropy between row-softmaxed scores and targets,
    through a stable log-softmax; ``target_probs`` is a constant
    row-stochastic matrix."""
    _require_2d("cross_entropy_rows", scores)
    p = np.asarray(target_probs, dtype=np.float64)
    if p.shape != scores.shape:
        raise DimensionError(
            f"cross_entropy_rows target shape {p.shape} != scores shape {scores.shape}"
        )
    m = scores.shape[0]
    row_max = scores.data.max(axis=1, keepdims=True)
    shifted = scores.data - row_max
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + row_max
    loss = float((lse[:, 0] - (p * scores.data).sum(axis=1)).mean())
    softmax = np.exp(scores.data - lse)

    def vjp(dy):
        return (float(dy) * (softmax - p) / m,)

    return T._result(np.asarray(loss), (scores,), vjp)


def cosine_similarity_matrix(queries, candidates):
    if queries.shape != candidates.shape:
        raise DimensionError(f"query/candidate shapes disagree: {queries.shape} vs {candidates.shape}")
    qn = l2_normalize_rows(queries)
    cn = l2_normalize_rows(candidates)
    return matmul(qn, transpose(cn))


def _diag_target_loss(similarity, temps):
    scores = mul(similarity, T.Tensor._wrap(1.0 / temps, False))
    return cross_entropy_rows(scores, np.eye(similarity.shape[0]))


def infonce(similarity, tau):
    g = similarity.shape[0]
    return _diag_target_loss(similarity, np.full((g, g), float(tau)))


def mac_loss(similarity, tags, tau_hard, tau_norm, mode="mac"):
    g = similarity.shape[0]
    if mode == "off":
        temps = np.full((g, g), float(tau_norm))
    else:
        hard, norm = (tau_hard, tau_norm) if mode == "mac" else (tau_norm, tau_hard)
        temps = np.where(modality_partition(tags), float(hard), float(norm))
    return _diag_target_loss(similarity, temps)


def self_distill(teacher_q, student_q, teacher_c, student_c, variant="mse", tau=1.0):
    shapes = {teacher_q.shape, student_q.shape, teacher_c.shape, student_c.shape}
    if len(shapes) != 1:
        raise DimensionError(f"embedding shapes disagree: {sorted(shapes)}")
    tq, tc = detach(teacher_q), detach(teacher_c)
    if variant == "mse":
        dq = sub(tq, student_q)
        dc = sub(tc, student_c)
        return add(mean(sum_rows(mul(dq, dq))), mean(sum_rows(mul(dc, dc))))
    if variant == "cosine":
        cos_q = sum_rows(mul(l2_normalize_rows(tq), l2_normalize_rows(student_q)))
        cos_c = sum_rows(mul(l2_normalize_rows(tc), l2_normalize_rows(student_c)))
        got = add(mean(cos_q), mean(cos_c))
        return add_scalar(scale(got, -1.0), 2.0)
    teacher_sim = cosine_similarity_matrix(tq, tc)
    teacher_probs = T.softmax_rows(teacher_sim.data * (1.0 / tau))
    student_scores = scale(cosine_similarity_matrix(student_q, student_c), 1.0 / tau)
    cross = cross_entropy_rows(student_scores, teacher_probs)
    logs = np.log(teacher_probs, out=np.zeros_like(teacher_probs), where=teacher_probs > 0)
    entropy = float(-(teacher_probs * logs).sum(axis=1).mean())
    return add_scalar(cross, -entropy)


def pretraining_loss(contrastive, distill, alphas):
    a1, a2 = alphas
    return add(scale(contrastive, a1), scale(distill, a2))


def affine(x, w, b):
    """x @ w + b with a broadcast bias row; one fused node."""
    out = T._affine(x.data, w.data, b.data)

    def vjp(dy):
        return dy @ w.data.T, x.data.T @ dy, dy.sum(axis=0)

    return T._result(out, (x, w, b), vjp)


def gelu(x):
    """tanh-form GELU: 0.5*x*(1 + tanh(c*(x + a*x^3)))."""
    t = T._gelu_tanh(x.data)
    out = T._gelu(x.data, 1.0 + t, np.empty(x.shape))

    def vjp(dy):
        du = T._GELU_C * (1.0 + 3.0 * T._GELU_A * x.data**2)
        return (dy * (0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t**2) * du),)

    return T._result(out, (x,), vjp)


def layer_norm_rows(x, gain, bias):
    """Per-row (x - mean)/sqrt(var + LAYER_NORM_EPS) * gain + bias."""
    n = x.shape[1]
    out, xhat, inv = T._layer_norm(x.data, gain.data, bias.data)

    def vjp(dy):
        dgain = (dy * xhat).sum(axis=0)
        dbias = dy.sum(axis=0)
        dxhat = dy * gain.data
        dx = inv * (
            dxhat
            - dxhat.sum(axis=1, keepdims=True) / n
            - xhat * ((dxhat * xhat).sum(axis=1, keepdims=True) / n)
        )
        return dx, dgain, dbias

    return T._result(out, (x, gain, bias), vjp)


def attention(q, k, v, n_heads, seq_len):
    """Multi-head attention of B sequences of seq_len key rows, one node."""
    out, q4, k4, v4, a = T._attention(q.data, k.data, v.data, n_heads, seq_len)
    inv_scale = 1.0 / np.sqrt(q4.shape[3])

    def vjp(dy):
        dy4 = dy.reshape(q4.shape[0], q4.shape[2], n_heads, -1).transpose(0, 2, 1, 3)
        dv4 = a.transpose(0, 1, 3, 2) @ dy4
        da = dy4 @ v4.transpose(0, 1, 3, 2)
        dz = (da - (da * a).sum(axis=3, keepdims=True)) * a * inv_scale
        dq4 = dz @ k4
        dk4 = dz.transpose(0, 1, 3, 2) @ q4

        def merge(t4, like):
            return t4.transpose(0, 2, 1, 3).reshape(like.shape)

        return merge(dq4, q), merge(dk4, k), merge(dv4, v)

    return T._result(out, (q, k, v), vjp)


def take_rows(table, ids):
    """A gather, repeats allowed, whose gradient is a dense scatter, the
    rows added into zeros in gather order."""
    idx = np.asarray(ids, dtype=np.int64)

    def vjp(dy):
        out = np.zeros(table.shape)
        np.add.at(out, idx, dy)
        return (out,)

    return T._result(table.data[idx], (table,), vjp)


def seeded(out, dy):
    """A scalar tape node over ``out`` whose vjp hands ``out`` the gradient
    dy: ``backward`` of it is a backward seeded with dy."""
    return T._result(np.zeros(()), (out,), lambda _: (dy,))


def concat_rows(parts):
    """The rows of ``parts`` stacked in order; each part's gradient is its
    slice of the output gradient."""
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def vjp(dy):
        return tuple(dy[offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return T._result(np.concatenate([p.data for p in parts], axis=0), tuple(parts), vjp)


class Tracked:
    """An encoder's weights as tape leaves: ``params`` maps each name to a
    Tensor, in ``parameter_shapes`` order, and ``encoder`` is the encoder of
    their data, whose block stack the nodes below run."""

    def __init__(self, config, params):
        self.config, self.params = config, dict(params)
        self.encoder = Encoder(config, {n: t.data for n, t in self.params.items()})


def tracked(encoder):
    """``encoder``'s weights as fresh grad-tracked leaves."""
    return Tracked(encoder.config, {n: T.Tensor(p, grad_tracked=True) for n, p in encoder.params.items()})


def _node(taped, upto, rows, pullback):
    """``rows`` as the output of one tape node over the inputs of an
    ``upto``-block stack, whose vjp is ``pullback`` with its table rows
    made dense, as ``backward`` sums them."""
    inputs = list(taped.params.values())[: _layer(upto - 1).stop]
    return T._result(rows, inputs, lambda dy: [T.dense_grad(g) for g in pullback(dy)])


def stack_node(taped, batch, upto, ret_tail=False):
    """The encoder's own block stack over ``batch`` as one tape node over
    the :class:`Tracked` leaves: the form :func:`blocks` is compared with."""
    h, pullback = _blocks(taped.encoder, batch, upto, True, ret_tail)
    return _node(taped, upto, h, pullback)


def embed_node(taped, seqs, upto):
    """The [RET] rows of an ``embed_taped`` of ``seqs``, as one tape node
    over its pullback: the form :func:`embed_batch` is compared with."""
    return _node(taped, upto, *embed_taped(taped.encoder, seqs, upto))


def blocks(taped, batch, upto, ret_tail=False):
    """The taped block stack over the :class:`Tracked` leaves, one node per op."""
    p, s = taped.params, len(batch[0])
    ids = [i for tokens in batch for i in tokens.ids]
    positions = list(range(s)) * len(batch)
    tail_from = upto - 1 if ret_tail else upto
    h = add(take_rows(p["tok_emb"], ids), take_rows(p["pos_emb"], positions))
    for i in range(upto):
        base = f"layers.{i}."
        a = layer_norm_rows(h, p[base + "ln1.gain"], p[base + "ln1.bias"])
        a_q = a
        if i == tail_from:
            starts = np.arange(0, len(batch) * s, s)[:, None]
            tail = (starts + np.arange(s - min(RET_TAIL_ROWS, s), s)).ravel()
            h, a_q = take_rows(h, tail), take_rows(a, tail)
        q = affine(a_q, p[base + "attn.wq"], p[base + "attn.bq"])
        k = affine(a, p[base + "attn.wk"], p[base + "attn.bk"])
        v = affine(a, p[base + "attn.wv"], p[base + "attn.bv"])
        mixed = attention(q, k, v, taped.config.n_heads, s)
        h = add(h, affine(mixed, p[base + "attn.wo"], p[base + "attn.bo"]))
        f = layer_norm_rows(h, p[base + "ln2.gain"], p[base + "ln2.bias"])
        f = gelu(affine(f, p[base + "ffn.w1"], p[base + "ffn.b1"]))
        h = add(h, affine(f, p[base + "ffn.w2"], p[base + "ffn.b2"]))
    return h


def embed_batch(taped, seqs, upto):
    """The [RET] rows of ``seqs`` over :func:`blocks`: one stack per length
    group, concatenated, and the [RET] rows gathered in input order."""
    groups = length_groups(seqs)
    hidden = [blocks(taped, [seqs[i] for i in rows], upto, ret_tail=True) for rows in groups]
    ret_row = [0] * len(seqs)
    offset = 0
    for rows in groups:
        m = min(RET_TAIL_ROWS, len(seqs[rows[0]]))
        for b, i in enumerate(rows):
            ret_row[i] = offset + b * m + m - 1
        offset += len(rows) * m
    stacked = hidden[0] if len(hidden) == 1 else concat_rows(hidden)
    return take_rows(stacked, ret_row)
