"""A small layer-stacked transformer retriever.

Pre-norm blocks with bidirectional multi-head attention. The retrieval
embedding is the [RET] token's hidden state, read at any layer depth. The
first k layers of the full model and the pruned-to-k model are bit-identical
by construction, which is what makes teacher/student weight surgery exact.

Every forward runs one block stack, :func:`_blocks`, over a batch of
equal-length sequences stacked as rows, which shares each op's call cost
across the batch. It picks its op set once per call: the taped
:mod:`~umrlab.tensor` ops over the parameter tensors while tracing, and
under ``no_grad`` the bare kernels of those same ops, ``tensor.bare``, over
the parameters' arrays, which build no tape node and no Tensor. Both run
the same arithmetic, so their hidden states are equal bit for bit.
:func:`embed_batch` is the one place that reads [RET] rows: one
:func:`_blocks` call per prompt length. :func:`embed` (one sequence) and
:func:`embed_raw` (tape-free, as an array) are calls of it.
:func:`forward` and :func:`forward_raw` return every hidden state of one
sequence, taped and tape-free.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from . import tensor as T
from .errors import ContractError, LengthError, NumericDomainError
from .prompts import TokenSequence
from .tensor import Tensor

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


def parameter_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Parameter shapes in canonical order; checkpoints serialize in exactly
    this order and are checked against these shapes on load."""
    d = config.d_model
    shapes = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.max_seq, d)}
    for i in range(config.n_layers):
        for name, shape in _layer_param_shapes(d):
            shapes[f"layers.{i}.{name}"] = shape
    return shapes


def parameter_names(config: EncoderConfig) -> list[str]:
    """Canonical parameter order; checkpoints serialize in exactly this order."""
    return list(parameter_shapes(config))


class Encoder:
    """Immutable weight bundle; training produces new Encoders.

    ``params`` maps each name to its Tensor and ``arrays`` to that Tensor's
    data; both are read-only views.
    """

    def __init__(self, config: EncoderConfig, params: dict[str, Tensor]):
        expected = parameter_shapes(config)
        if list(params) != list(expected):
            raise ContractError("encoder parameter names/order do not match config")
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise ContractError(
                    f"parameter {name!r} has shape {params[name].shape}, config implies {shape}"
                )
        self.config = config
        self.params = MappingProxyType(dict(params))
        self.arrays = MappingProxyType({name: t.data for name, t in params.items()})

    @classmethod
    def init(cls, config: EncoderConfig, seed: int) -> "Encoder":
        """Matrices ~ N(0, 0.02^2), drawn in canonical order; gains one,
        biases zero."""
        rng = np.random.default_rng(seed)
        params: dict[str, Tensor] = {}
        for name, shape in parameter_shapes(config).items():
            if len(shape) == 2:
                data = rng.normal(0.0, 0.02, size=shape)
            elif name.endswith(".gain"):
                data = np.ones(shape)
            else:
                data = np.zeros(shape)
            params[name] = Tensor(data, grad_tracked=True)
        return cls(config, params)

    def with_params(self, params: dict[str, Tensor]) -> "Encoder":
        return Encoder(self.config, params)

    def param_bytes(self) -> bytes:
        """Concatenated raw weight bytes, for bitwise comparisons."""
        return b"".join(self.params[n].data.tobytes() for n in parameter_names(self.config))


def _op_set(encoder: Encoder):
    """The ops and weights a forward runs on: the taped tensor ops over
    ``encoder.params`` while tracing, else ``tensor.bare`` over
    ``encoder.arrays``, which records and wraps nothing."""
    return (T, encoder.params) if T.tracing() else (T.bare, encoder.arrays)


def _as_tensor(h: Tensor | np.ndarray) -> Tensor:
    """A forward's result as a Tensor; a tape-free one arrives as an array."""
    return h if isinstance(h, Tensor) else Tensor._wrap(h, False)


# forward_raw and embed_batch call this, not forward, so profilers that
# wrap forward see single-sequence calls of forward only. The op set is
# chosen once, at entry; the loop body is the same for both.
def _blocks(encoder: Encoder, batch: Sequence[TokenSequence], upto: int) -> Tensor | np.ndarray:
    """Hidden states of B equal-length sequences stacked in order, (B*len, d_model),
    as a Tensor while tracing and as an array under ``no_grad``.

    The sequences share every op as rows of one 2-D array; only attention
    needs the sequence length, to keep each sequence to its own rows.
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
    ids = [i for tokens in batch for i in tokens.ids]
    if max(ids) >= cfg.vocab_size or min(ids) < 0:
        raise ContractError(f"token id outside vocab of size {cfg.vocab_size}")
    ops, p = _op_set(encoder)
    positions = list(range(s)) * len(batch)
    try:
        with np.errstate(over="raise", invalid="raise"):
            h = ops.add(ops.take_rows(p["tok_emb"], ids), ops.take_rows(p["pos_emb"], positions))
            for i in range(upto):
                base = f"layers.{i}."
                a = ops.layer_norm_rows(h, p[base + "ln1.gain"], p[base + "ln1.bias"])
                q = ops.affine(a, p[base + "attn.wq"], p[base + "attn.bq"])
                k = ops.affine(a, p[base + "attn.wk"], p[base + "attn.bk"])
                v = ops.affine(a, p[base + "attn.wv"], p[base + "attn.bv"])
                mixed = ops.attention(q, k, v, cfg.n_heads, s)
                h = ops.add(h, ops.affine(mixed, p[base + "attn.wo"], p[base + "attn.bo"]))
                f = ops.layer_norm_rows(h, p[base + "ln2.gain"], p[base + "ln2.bias"])
                f = ops.gelu(ops.affine(f, p[base + "ffn.w1"], p[base + "ffn.b1"]))
                h = ops.add(h, ops.affine(f, p[base + "ffn.w2"], p[base + "ffn.b2"]))
    except FloatingPointError as err:
        raise NumericDomainError(f"encoder forward left the finite range ({err})") from None
    return h


def forward(encoder: Encoder, tokens: TokenSequence, upto: int) -> Tensor:
    """Hidden states after ``upto`` pre-norm blocks, shape (len, d_model).

    No final layer norm is applied: intermediate-depth extraction reads the
    residual stream directly.
    """
    return _as_tensor(_blocks(encoder, [tokens], upto))


def forward_raw(encoder: Encoder, tokens: TokenSequence, upto: int) -> np.ndarray:
    """:func:`forward` without a tape: the single-sequence hidden states,
    shape (len, d_model), as a read-only array."""
    with T.no_grad():
        return _as_tensor(_blocks(encoder, [tokens], upto)).data


def length_groups(seqs: Sequence[TokenSequence]) -> list[list[int]]:
    """Positions of ``seqs`` grouped by sequence length, groups in order of
    each length's first appearance and positions ascending within a group."""
    groups: dict[int, list[int]] = {}
    for i, tokens in enumerate(seqs):
        groups.setdefault(len(tokens), []).append(i)
    return list(groups.values())


def embed_batch(
    encoder: Encoder, seqs: Sequence[TokenSequence], upto: int | None = None
) -> Tensor:
    """[RET] embeddings of sequences of any lengths, shape (N, d_model), row i
    for ``seqs[i]``, un-normalized.

    One :func:`_blocks` call per length group; the [RET] rows are gathered
    back into input order by one ``take_rows``. Taped, and tape-free under
    ``no_grad``. Row i is bitwise equal to the [RET] row of
    ``forward(encoder, seqs[i], upto)``, since a batch only adds rows to each
    op; gradients agree with per-sequence ones to roundoff, since
    weight-gradient row sums run over the group's rows in one order.
    ``upto`` defaults to config.k.
    """
    if not seqs:
        raise ContractError("no sequences to embed")
    depth = encoder.config.k if upto is None else upto
    ops, _ = _op_set(encoder)
    groups = length_groups(seqs)
    hidden = [_blocks(encoder, [seqs[i] for i in rows], depth) for rows in groups]
    ret_row = [0] * len(seqs)
    offset = 0
    for rows in groups:
        s = len(seqs[rows[0]])
        for b, i in enumerate(rows):
            ret_row[i] = offset + b * s + seqs[i].ret_position
        offset += len(rows) * s
    stacked = hidden[0] if len(hidden) == 1 else ops.concat_rows(hidden)
    return _as_tensor(ops.take_rows(stacked, ret_row))


def embed(encoder: Encoder, tokens: TokenSequence, upto: int | None = None) -> Tensor:
    """Taped [RET] embedding of one sequence, shape (1, d_model)."""
    return embed_batch(encoder, [tokens], upto)


def embed_raw(
    encoder: Encoder, batch: Sequence[TokenSequence], upto: int | None = None
) -> np.ndarray:
    """Tape-free :func:`embed_batch` rows as a read-only array, shape (B, d_model)."""
    with T.no_grad():
        return embed_batch(encoder, batch, upto).data


def prune(encoder: Encoder, k: int) -> Encoder:
    """Keep only the first k layers; weights are copied, never shared."""
    cfg = encoder.config
    if not 1 <= k <= cfg.n_layers:
        raise ContractError(f"prune depth {k} outside 1..{cfg.n_layers}")
    new_cfg = replace(cfg, n_layers=k, k=min(cfg.k, k))
    params: dict[str, Tensor] = {}
    for name in parameter_names(new_cfg):
        src = encoder.params[name]
        params[name] = Tensor(src.data.copy(), grad_tracked=src.grad_tracked)
    return Encoder(new_cfg, params)


def estimate_flops(config: EncoderConfig, k: int, seq_len: int) -> int:
    """Analytic forward-pass FLOP count through k layers.

    Per layer: 2*s*d*(3d + d) for the q/k/v/output projections,
    2*2*s^2*d for attention scores and value mixing, and 2*s*2*d*4d for the
    feed-forward block. The embedding lookup-add contributes 2*s*d once.
    Multiply-accumulates count as 2 operations.
    """
    if not 0 <= k <= config.n_layers:
        raise ContractError(f"k {k} outside 0..{config.n_layers}")
    if not 1 <= seq_len <= config.max_seq:
        raise ContractError(f"seq_len {seq_len} outside 1..{config.max_seq}")
    s, d = seq_len, config.d_model
    per_layer = 2 * s * d * (3 * d + d) + 2 * 2 * s * s * d + 2 * s * 2 * d * (FFN_MULT * d)
    return k * per_layer + 2 * s * d


def layer_stack_ratio(config: EncoderConfig, k: int, seq_len: int) -> float:
    """Ratio of the k-layer stack cost to the full-depth stack cost."""
    emb = estimate_flops(config, 0, seq_len)
    full = estimate_flops(config, config.n_layers, seq_len) - emb
    return (estimate_flops(config, k, seq_len) - emb) / full
