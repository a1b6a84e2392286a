"""A tape of one node per op through the encoder's blocks, for tests only.

The encoder records no tape node: its block stack backpropagates by hand,
through the pullback that ``embed_taped`` returns. This module keeps the
op-by-op form it replaced: a taped affine, layer norm, GELU and attention,
each with its own vjp, built on the same array kernels and without operand
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
    h = T.add(take_rows(p["tok_emb"], ids), take_rows(p["pos_emb"], positions))
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
        h = T.add(h, affine(mixed, p[base + "attn.wo"], p[base + "attn.bo"]))
        f = layer_norm_rows(h, p[base + "ln2.gain"], p[base + "ln2.bias"])
        f = gelu(affine(f, p[base + "ffn.w1"], p[base + "ffn.b1"]))
        h = T.add(h, affine(f, p[base + "ffn.w2"], p[base + "ffn.b2"]))
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
