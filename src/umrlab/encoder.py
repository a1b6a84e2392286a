"""A small layer-stacked transformer retriever.

Pre-norm blocks with bidirectional multi-head attention. The retrieval
embedding is the [RET] token's hidden state, read at any layer depth. The
first k layers of the full model and the pruned-to-k model are bit-identical
by construction, which is what makes teacher/student weight surgery exact.

Every forward runs one block stack, :func:`_blocks`, over a batch of
equal-length sequences stacked as rows, which shares each op's call cost
across the batch. It runs the array kernels of :mod:`~umrlab.tensor` on the
weights in both modes, one loop body for both; the entry point that calls it
picks the mode. Tape-free, it writes each temporary in place.
Taped, it keeps the activations the backward reads, writes over none of
them, and returns with the hidden states a pullback: for the gradient of
its rows, the gradient of every parameter the stack read, from
:func:`_blocks_vjp`, a hand-written backward through the blocks that
replays the per-op vjps in reverse op order, so its gradients have the
bytes of a tape of one node per op. Both modes run the same arithmetic, so
their hidden states are equal bit for bit. That pullback is the encoder's
one gradient path: its weights are plain read-only arrays, and nothing here
records a tape node.

One private body, :func:`_embed`, is the one place that reads [RET] rows.
It takes a batch of sequences of any lengths and runs one :func:`_blocks`
forward per prompt length over that length's sequences, then copies each
stack's [RET] rows into their batch rows, in both modes. Taped, it also
returns one pullback for the whole batch, which runs each length group's
stack pullback once. :func:`embed_taped` returns the
rows with that pullback, which a training step calls once;
:func:`embed_raw` returns the rows tape-free. :func:`forward` returns every hidden state of
one sequence, tape-free; ``forward_raw`` is another name for it.

A forward runs every block on every row. An embed reads only [RET], the
last row of each sequence, so in its last block only the first layer norm
and the key and value projections, which attention reads from every row,
run on all rows; the query projection, attention, output projection, second
layer norm and FFN run on the last two rows of each sequence. Two, not one:
a one-row GEMM takes numpy's gemv path, whose sums round differently from
the gemm of a full forward, and the [RET] row would change in its low bits.
With two rows it is bitwise equal to the [RET] row of :func:`forward`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from . import tensor as T
from .errors import ContractError, LengthError, NumericDomainError
from .prompts import TokenSequence

FFN_MULT = 4


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int
    n_heads: int
    n_layers: int
    max_seq: int
    k: int

    def __post_init__(self):
        if min(self.vocab_size, self.d_model, self.n_heads, self.n_layers, self.max_seq) < 1:
            raise ContractError(f"all config extents must be positive: {self}")
        if self.d_model % self.n_heads != 0:
            raise ContractError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 1 <= self.k <= self.n_layers:
            raise ContractError(f"k {self.k} outside 1..{self.n_layers}")


def _layer_param_shapes(d: int) -> list[tuple[str, tuple[int, ...]]]:
    h = FFN_MULT * d
    return [
        ("ln1.gain", (d,)), ("ln1.bias", (d,)),
        ("attn.wq", (d, d)), ("attn.bq", (d,)), ("attn.wk", (d, d)), ("attn.bk", (d,)),
        ("attn.wv", (d, d)), ("attn.bv", (d,)), ("attn.wo", (d, d)), ("attn.bo", (d,)),
        ("ln2.gain", (d,)), ("ln2.bias", (d,)),
        ("ffn.w1", (d, h)), ("ffn.b1", (h,)), ("ffn.w2", (h, d)), ("ffn.b2", (d,)),
    ]


# one block's parameter names, in canonical order
_LAYER_PARAMS = [name for name, _ in _layer_param_shapes(1)]


def parameter_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Parameter shapes in canonical order; a checkpoint stores each weight's
    data in exactly this order and names no weight or shape itself."""
    d = config.d_model
    shapes = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.max_seq, d)}
    for i in range(config.n_layers):
        for name, shape in _layer_param_shapes(d):
            shapes[f"layers.{i}.{name}"] = shape
    return shapes


class Encoder:
    """A weight bundle that only the owner of its arrays writes.

    ``params`` maps each name to its weight, a read-only float64 array, in
    :func:`parameter_shapes` order, as the constructor checks. The block
    stack takes its inputs as the first entries, and ``save_checkpoint``
    writes them all in that order. An encoder from ``init``, :func:`prune`
    or ``load_checkpoint`` owns its arrays, and they never change. One that
    a training step returns holds views of its optimizer's parameter store
    (:mod:`~umrlab.optim`), which that optimizer's next step changes in place.
    """

    def __init__(self, config: EncoderConfig, params: dict[str, np.ndarray]):
        expected = parameter_shapes(config)
        if list(params) != list(expected):
            raise ContractError("encoder parameter names/order do not match config")
        for name, shape in expected.items():
            p = params[name]
            if not isinstance(p, np.ndarray) or p.dtype != np.float64 or p.flags.writeable:
                raise ContractError(f"parameter {name!r} is not a read-only float64 array")
            if p.shape != shape:
                raise ContractError(f"parameter {name!r} has shape {p.shape}, config implies {shape}")
        self.config = config
        self.params = MappingProxyType(dict(params))

    @classmethod
    def init(cls, config: EncoderConfig, seed: int) -> "Encoder":
        """Matrices ~ N(0, 0.02^2), drawn in canonical order; gains one,
        biases zero."""
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        for name, shape in parameter_shapes(config).items():
            if len(shape) == 2:
                data = rng.normal(0.0, 0.02, size=shape)
            elif name.endswith(".gain"):
                data = np.ones(shape)
            else:
                data = np.zeros(shape)
            data.flags.writeable = False
            params[name] = data
        return cls(config, params)

    def with_params(self, params: dict[str, np.ndarray]) -> "Encoder":
        return Encoder(self.config, params)

    def param_bytes(self) -> bytes:
        """Concatenated raw weight bytes, in canonical order, for bitwise comparisons."""
        return b"".join(p.tobytes() for p in self.params.values())


# Rows per sequence the last block keeps when only the [RET] row is read.
# One would do, but a one-row GEMM takes numpy's gemv path, whose sums round
# differently from the gemm a full-sequence forward runs; with two rows every
# GEMM stays a gemm and the [RET] row keeps the bytes of forward's.
RET_TAIL_ROWS = 2


# Profilers wrap forward and forward_raw, so nothing in this module calls
# them: every other entry point calls this.
def _blocks(
    encoder: Encoder, batch: Sequence[TokenSequence], upto: int, taped: bool, ret_tail: bool = False
) -> tuple[np.ndarray, Callable] | np.ndarray:
    """Hidden states of B equal-length sequences stacked in order, (B*len, d_model),
    as a read-only array; ``taped``, with ``pullback(dh)``, the gradients
    of the stack's inputs (the first entries of the encoder's params, in
    order) for the gradient dh of those rows. Nothing is recorded on the
    tape.

    The sequences share every op as rows of one 2-D array; only attention
    needs the sequence length, to keep each sequence to its own rows.
    With ``ret_tail`` the last block computes only the rows :func:`_embed`
    reads: its first layer norm and key and value projections still run on
    every row, but the query projection, attention, output projection,
    second layer norm and FFN run on the last m = min(RET_TAIL_ROWS, len)
    rows of each sequence, and the result is (B*m, d_model). [RET] is the
    last row of each sequence, so it is row b*m + m - 1, bitwise equal to
    the row a full forward computes (see RET_TAIL_ROWS for why two).
    Raises NumericDomainError when an op overflows or makes a NaN, as
    weights that have blown up do; a NaN already in the weights passes
    through quietly and is caught where a loss is checked.
    """
    cfg = encoder.config
    if not 1 <= upto <= cfg.n_layers:
        raise ContractError(f"upto {upto} outside 1..{cfg.n_layers}")
    if not batch:
        raise ContractError("batch holds no sequences")
    s = len(batch[0])
    if any(len(tokens) != s for tokens in batch):
        raise ContractError(f"batch sequence lengths differ: {sorted({len(t) for t in batch})}")
    if s > cfg.max_seq:
        raise LengthError(f"sequence of {s} tokens exceeds max_seq {cfg.max_seq}")
    ids = np.array([i for tokens in batch for i in tokens.ids], dtype=np.int64)
    if ids.max() >= cfg.vocab_size or ids.min() < 0:
        raise ContractError(f"token id outside vocab of size {cfg.vocab_size}")
    # the two tables, then blocks 0..upto-1: the first entries of an
    # encoder's params, which are in parameter_shapes order
    n_inputs = _layer(upto - 1).stop
    weights = list(encoder.params.values())[:n_inputs]
    positions = np.tile(np.arange(s), len(batch))
    tail_from = upto - 1 if ret_tail else upto
    starts = np.arange(0, len(batch) * s, s)[:, None]
    tail = (starts + np.arange(s - min(RET_TAIL_ROWS, s), s)).ravel()
    saved = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            h = weights[1][positions]
            h = np.add(weights[0][ids], h, out=h)
            for i in range(upto):
                g1, c1, wq, bq, wk, bk, wv, bv, wo, bo, g2, c2, w1, b1, w2, b2 = weights[_layer(i)]
                # a kernel's side outputs are what its vjp reads: kept only
                # when taped, so a tape-free block frees them at once
                a, *ln1 = T._layer_norm(h, g1, c1)
                ln1 = ln1 if taped else None
                a_q = a
                if i == tail_from:
                    h, a_q = h[tail], a[tail]
                q = T._affine(a_q, wq, bq)
                k = T._affine(a, wk, bk)
                v = T._affine(a, wv, bv)
                mixed, *attn = T._attention(q, k, v, cfg.n_heads, s)
                attn = attn if taped else None
                o = T._affine(mixed, wo, bo)
                h = np.add(h, o, out=o)
                if taped:
                    saved.append((ln1, a, a_q, attn, mixed))
                # free the attention's arrays before the FFN allocates its own
                del ln1, a, a_q, q, k, v, mixed, attn
                f, *ln2 = T._layer_norm(h, g2, c2)
                ln2 = ln2 if taped else None
                u = T._affine(f, w1, b1)
                if taped:
                    # the vjp reads u and the tanh term, so GELU writes over neither
                    t = T._gelu_tanh(u)
                    g = T._gelu(u, 1.0 + t, np.empty(u.shape))
                    saved[i] += (ln2, f, u, t, g)
                else:
                    g = T._bare_gelu(u)
                o = T._affine(g, w2, b2)
                h = np.add(h, o, out=o)
                # and the FFN's before the next block allocates its own
                del f, ln2, u, g
    except FloatingPointError as err:
        raise NumericDomainError(f"encoder forward left the finite range ({err})") from None
    h.flags.writeable = False
    if not taped:
        return h

    def pullback(dh: np.ndarray) -> list:
        return _blocks_vjp(dh, weights, saved, ids, positions, tail_from, tail)

    return h, pullback


def _layer(i: int) -> slice:
    """Where block i's parameters sit, in ``_LAYER_PARAMS`` order, in a list
    of the block stack's inputs, which starts with the two tables."""
    n = len(_LAYER_PARAMS)
    return slice(2 + n * i, 2 + n * (i + 1))


def _blocks_vjp(dh, weights, saved, ids, positions, tail_from, tail) -> list:
    """The gradients of every input of a taped :func:`_blocks` call for the
    gradient dh of its output, in input order.

    Blocks run last to first, and within a block the ops' vjps in reverse
    op order, each as its own taped op computed it. A tensor that feeds two
    ops sums its gradients in the order the tape reached them: the block's
    middle residual dh + d(ln2), the first layer norm's output
    (dv Wv^T + dk Wk^T) + dq Wq^T, and the block input dh1 + d(ln1). In the
    narrowed last block the query rows and the residual rows are gathers,
    whose gradients are dense scatters of 0.0 + rows, taken before d(ln1)
    is added. The tables get the one gather's rows each, as row gradients.
    """
    grads: list = [None] * len(weights)
    for i in reversed(range(len(saved))):
        g1, c1, wq, bq, wk, bk, wv, bv, wo, bo, g2, c2, w1, b1, w2, b2 = weights[_layer(i)]
        ln1, a, a_q, attn, mixed, ln2, f, u, t, g = saved[i]
        dg, dw2, db2 = T._affine_vjp(dh, g, w2)
        df, dw1, db1 = T._affine_vjp(T._gelu_vjp(dg, u, t), f, w1)
        dh1, dg2, dc2 = T._layer_norm_vjp(df, *ln2, g2)
        dh1 += dh
        dmixed, dwo, dbo = T._affine_vjp(dh1, mixed, wo)
        dq, dk, dv = T._attention_vjp(dmixed, *attn)
        da, dwv, dbv = T._affine_vjp(dv, a, wv)
        da_k, dwk, dbk = T._affine_vjp(dk, a, wk)
        da += da_k
        da_q, dwq, dbq = T._affine_vjp(dq, a_q, wq)
        if i == tail_from:
            da += T.scatter_rows(a.shape, tail, da_q)
            dh1 = T.scatter_rows(a.shape, tail, dh1)
        else:
            da += da_q
        dh, dg1, dc1 = T._layer_norm_vjp(da, *ln1, g1)
        dh += dh1
        grads[_layer(i)] = (
            dg1, dc1, dwq, dbq, dwk, dbk, dwv, dbv, dwo, dbo, dg2, dc2, dw1, db1, dw2, db2
        )
    grads[0] = T.RowGrad.scatter(weights[0].shape, ids, dh)
    grads[1] = T.RowGrad.scatter(weights[1].shape, positions, dh)
    return grads


def forward(encoder: Encoder, tokens: TokenSequence, upto: int) -> np.ndarray:
    """Hidden states after ``upto`` pre-norm blocks, shape (len, d_model),
    as a read-only array.

    No final layer norm is applied: intermediate-depth extraction reads the
    residual stream directly.
    """
    return _blocks(encoder, [tokens], upto, False)


forward_raw = forward


def length_groups(seqs: Sequence[TokenSequence]) -> list[list[int]]:
    """Positions of ``seqs`` grouped by sequence length, groups in order of
    each length's first appearance and positions ascending within a group."""
    groups: dict[int, list[int]] = {}
    for i, tokens in enumerate(seqs):
        groups.setdefault(len(tokens), []).append(i)
    return list(groups.values())


def _embed(
    encoder: Encoder, batch: Sequence[TokenSequence], upto: int, taped: bool
) -> tuple[np.ndarray, Callable] | np.ndarray:
    """[RET] rows after ``upto`` blocks of ``batch``, sequences of any
    lengths, as a read-only array of shape (len(batch), d_model), row i for
    ``batch[i]``, un-normalized; ``taped``, with ``pullback(dy)``, the
    gradients of the stack's inputs for the gradient dy of those rows.

    One :func:`_blocks` call per prompt length, over that length's
    sequences in batch order, in the order of each length's first
    appearance; each stack's last block computes only the last two rows of
    each sequence, and each group's [RET] rows are copied straight into
    their rows of the result. Row i is bitwise equal to the [RET] row of
    ``forward(encoder, batch[i], upto)`` wherever a GEMM row does not
    depend on the rows beside it, since a batch only adds rows to each op
    and two rows keep every GEMM a gemm; gradients agree with per-sequence
    ones to roundoff, since weight-gradient row sums run over a stack's
    rows in one order.

    The pullback runs each stack's pullback, last stack first, on its
    group's rows of dy scattered into its [RET] rows, and sums each input's
    gradients a pair at a time in that order. Those are the bytes, and the
    order of sums, of a tape of one node per stack behind a concatenation
    and a dense-scatter gather of the [RET] rows.
    """
    if not batch:
        raise ContractError("no sequences to embed")
    groups = length_groups(batch)
    stacks = [_blocks(encoder, [batch[i] for i in rows], upto, taped, ret_tail=True) for rows in groups]
    hidden = [stack[0] for stack in stacks] if taped else stacks
    ret, tails = np.empty((len(batch), encoder.config.d_model)), []
    for rows, h in zip(groups, hidden):
        # each sequence's [RET] row is the last of its m tail rows
        m = min(RET_TAIL_ROWS, len(batch[rows[0]]))
        tails.append(slice(m - 1, None, m))
        ret[rows] = h[tails[-1]]
    ret.flags.writeable = False
    if not taped:
        return ret

    def pullback(dy: np.ndarray) -> list:
        grads = None
        for rows, (h, stack), tail in zip(groups[::-1], stacks[::-1], tails[::-1]):
            g = stack(T.scatter_rows(h.shape, tail, dy[rows]))
            grads = g if grads is None else list(map(T.sum_grads, grads, g))
        return grads

    return ret, pullback


def embed_taped(
    encoder: Encoder, batch: Sequence[TokenSequence], upto: int
) -> tuple[np.ndarray, Callable]:
    """[RET] embeddings of ``batch`` with their pullback: a (B, d_model)
    read-only array, row i for ``batch[i]``, and ``pullback(dy)``, the
    gradient of every input of the block stack, in the encoder's params
    order, for the gradient dy of those rows; the taped twin of
    :func:`embed_raw`. Nothing is recorded on the tape: a caller
    backpropagates to the rows and calls the pullback. See :func:`_embed`."""
    return _embed(encoder, batch, upto, True)


def embed_raw(encoder: Encoder, batch: Sequence[TokenSequence], upto: int) -> np.ndarray:
    """Tape-free [RET] embeddings of ``batch`` as a read-only array, shape
    (B, d_model), row i for ``batch[i]``, un-normalized; see :func:`_embed`."""
    return _embed(encoder, batch, upto, False)


def prune(encoder: Encoder, k: int) -> Encoder:
    """Keep only the first k layers; weights are copied, never shared."""
    cfg = encoder.config
    if not 1 <= k <= cfg.n_layers:
        raise ContractError(f"prune depth {k} outside 1..{cfg.n_layers}")
    new_cfg = replace(cfg, n_layers=k, k=min(cfg.k, k))
    params: dict[str, np.ndarray] = {}
    for name in parameter_shapes(new_cfg):
        params[name] = encoder.params[name].copy()
        params[name].flags.writeable = False
    return Encoder(new_cfg, params)


def estimate_flops(config: EncoderConfig, k: int, seq_len: int) -> int:
    """Analytic forward-pass FLOP count through k layers.

    Per layer: 2*s*d*(3d + d) for the q/k/v/output projections,
    2*2*s^2*d for attention scores and value mixing, and 2*s*2*d*4d for the
    feed-forward block. The embedding lookup-add contributes 2*s*d once.
    Multiply-accumulates count as 2 operations. Every block counts every
    row, as :func:`forward` computes them; :func:`embed_flops` counts the
    fewer an embed runs.
    """
    if not 0 <= k <= config.n_layers:
        raise ContractError(f"k {k} outside 0..{config.n_layers}")
    if not 1 <= seq_len <= config.max_seq:
        raise ContractError(f"seq_len {seq_len} outside 1..{config.max_seq}")
    s, d = seq_len, config.d_model
    per_layer = 2 * s * d * (3 * d + d) + 2 * 2 * s * s * d + 2 * s * 2 * d * (FFN_MULT * d)
    return k * per_layer + 2 * s * d


def embed_flops(config: EncoderConfig, k: int, seq_len: int) -> int:
    """Analytic FLOP count of one sequence's [RET] row through
    k layers: :func:`estimate_flops`' count, less what the last block skips.
    That block runs its key and value projections on every row, but its
    query projection (2*d*d per row), attention (2*2*s*d per query row),
    output projection (2*d*d) and FFN (2*2*d*4d) on only
    m = min(RET_TAIL_ROWS, s) rows.
    """
    flops = estimate_flops(config, k, seq_len)
    if k == 0:
        return flops
    s, d = seq_len, config.d_model
    per_query_row = 2 * d * d + 2 * 2 * s * d + 2 * d * d + 2 * 2 * d * (FFN_MULT * d)
    return flops - (s - min(RET_TAIL_ROWS, s)) * per_query_row


def layer_stack_ratio(config: EncoderConfig, k: int, seq_len: int) -> float:
    """Ratio of the k-layer stack cost to the full-depth stack cost."""
    emb = estimate_flops(config, 0, seq_len)
    full = estimate_flops(config, config.n_layers, seq_len) - emb
    return (estimate_flops(config, k, seq_len) - emb) / full
