"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records one node on an implicit tape. ``backward`` replays
the tape for a scalar root in reverse record order, which fixes the gradient
accumulation order and makes gradients bitwise reproducible. Tensor data is
immutable after construction; training code produces new tensors instead of
updating in place.

The forward arithmetic of the ops a transformer block uses lives in plain
array kernels (``_affine``, ``_layer_norm``, ``_gelu``, ``_attention``). The
taped ops call them, and ``bare`` exposes them under the ops' names for
tape-free callers, so both compute the same bytes.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Sequence
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from .errors import ContractError, DimensionError, NumericDomainError

_seq = itertools.count()
_state = threading.local()

# tanh-form GELU constant sqrt(2/pi)
_GELU_C = 0.7978845608028654
_GELU_A = 0.044715


def tracing() -> bool:
    """Whether ops record tape nodes here: true unless inside ``no_grad``."""
    return getattr(_state, "tracing", True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (teacher/eval forwards)."""
    prev = tracing()
    _state.tracing = False
    try:
        yield
    finally:
        _state.tracing = prev


class _Node:
    """One primitive application: op id, input refs, output id, vjp.

    The node keeps only the id of its output, never a reference: the output
    owns the node, so a reference back would make every tape a reference
    cycle that lives until the cyclic collector runs. Dropping a step's root
    then frees its whole tape at once.
    """

    __slots__ = ("op", "inputs", "output_id", "vjp", "seq")

    def __init__(self, op, inputs, output, vjp):
        self.op = op
        self.inputs = inputs
        self.output_id = id(output)
        self.vjp = vjp
        self.seq = next(_seq)


class Tensor:
    """Immutable dense array, optionally tracked for gradients."""

    __slots__ = ("_data", "grad_tracked", "_node", "__weakref__")

    def __init__(self, data, grad_tracked: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.base is not None or arr.flags.writeable:
            arr = arr.copy()
        arr.flags.writeable = False
        self._data = arr
        self.grad_tracked = bool(grad_tracked)
        self._node: _Node | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, grad_tracked: bool) -> "Tensor":
        """Take ownership of a freshly allocated float64 array, no copy."""
        t = cls.__new__(cls)
        if arr.dtype != np.float64 or arr.base is not None:
            arr = arr.astype(np.float64)
        arr.flags.writeable = False
        t._data = arr
        t.grad_tracked = grad_tracked
        t._node = None
        return t

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    def item(self) -> float:
        if self._data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.shape}")
        return float(self._data)

    def detach(self) -> "Tensor":
        return Tensor(self._data)

    def __repr__(self) -> str:
        tag = ", tracked" if self.grad_tracked else ""
        return f"Tensor(shape={self.shape}{tag})"


def constant(data) -> Tensor:
    return Tensor(data)


def _result(op, out_data, inputs, vjp) -> Tensor:
    tracked = tracing() and any(t.grad_tracked for t in inputs)
    out = Tensor._wrap(np.asarray(out_data), tracked)
    if tracked:
        out._node = _Node(op, tuple(inputs), out, vjp)
    return out


def _require_2d(op: str, *xs: Tensor) -> None:
    for x in xs:
        if x.ndim != 2:
            raise DimensionError(f"{op} expects 2-D operands, got shape {x.shape}")


class ComputeGraph:
    """Topologically ordered record of the primitives behind one tensor."""

    def __init__(self, nodes: list[_Node]):
        self.nodes = nodes

    @classmethod
    def of(cls, root: Tensor) -> "ComputeGraph":
        seen: set[int] = set()
        nodes: list[_Node] = []
        stack = [root]
        while stack:
            t = stack.pop()
            node = t._node
            if node is None or id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.inputs)
        nodes.sort(key=lambda n: n.seq)
        return cls(nodes)


class _RowGrad:
    """The gradient of one gather: ``rows[j]`` flows to table row ``idx[j]``.

    ``backward`` adds it into the table's gradient buffer instead of
    materializing a dense table per gather.
    """

    __slots__ = ("idx", "rows")

    def __init__(self, idx: np.ndarray, rows: np.ndarray):
        self.idx = idx
        self.rows = rows


def backward(root: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate d(root)/d(leaf) for every grad-tracked leaf under root.

    Returns a map keyed by tensor identity. Contributions to a tensor are
    summed in reverse tape order. A tensor reached only through gathers
    keeps one dense buffer: its first gather scatters into zeros, and each
    later gather sums its rows per distinct row first and adds those sums
    into the buffer's rows. That is bitwise equal to adding one dense
    scatter per gather, since rows a gather does not touch would only have
    0.0 added, and a buffer built from sums never holds -0.0.
    """
    if root.ndim != 0:
        raise ContractError(f"backward root must be a scalar, got shape {root.shape}")
    graph = ComputeGraph.of(root)
    # every node's output is alive here (the root, or an input of a later
    # node), so its id cannot have been reused
    grads: dict[int, np.ndarray] = {id(root): np.ones((), dtype=np.float64)}
    holders: dict[int, Tensor] = {id(root): root}
    gathered: set[int] = set()  # gradients so far built by gathers alone
    for node in reversed(graph.nodes):
        out_grad = grads.get(node.output_id)
        if out_grad is None:
            continue
        for inp, g in zip(node.inputs, node.vjp(out_grad)):
            if g is None or not (inp.grad_tracked or inp._node is not None):
                continue
            key = id(inp)
            holders[key] = inp
            prev = grads.get(key)
            if isinstance(g, _RowGrad):
                if key in gathered:
                    _add_row_sums(prev, g)
                    continue
                dense = np.zeros(inp.shape)
                np.add.at(dense, g.idx, g.rows)
                if prev is None:
                    grads[key] = dense
                    gathered.add(key)
                    continue
                g = dense
            grads[key] = g if prev is None else prev + g
            gathered.discard(key)
    return {holders[key]: g for key, g in grads.items() if holders[key].grad_tracked}


def _add_row_sums(buf: np.ndarray, g: _RowGrad) -> None:
    """Sum a gather's rows per distinct row, in gather order, then add the
    sums into those rows of ``buf``."""
    uniq, inverse = np.unique(g.idx, return_inverse=True)
    sums = np.zeros((len(uniq),) + g.rows.shape[1:])
    np.add.at(sums, inverse, g.rows)
    buf[uniq] += sums


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_2d("matmul", a, b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(dy):
        return dy @ b.data.T, a.data.T @ dy

    return _result("matmul", out, (a, b), vjp)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w + b


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with a broadcast bias row; one fused node."""
    _require_2d("affine", x, w)
    if x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise DimensionError(f"affine shapes disagree: {x.shape} x {w.shape} + {b.shape}")
    out = _affine(x.data, w.data, b.data)

    def vjp(dy):
        return dy @ w.data.T, x.data.T @ dy, dy.sum(axis=0)

    return _result("affine", out, (x, w, b), vjp)


def transpose(x: Tensor) -> Tensor:
    _require_2d("transpose", x)

    def vjp(dy):
        return (dy.T,)

    return _result("transpose", x.data.T, (x,), vjp)


# ---------------------------------------------------------------------------
# elementwise kernels


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op} operand shapes disagree: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)

    def vjp(dy):
        return dy, dy

    return _result("add", a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)

    def vjp(dy):
        return dy, -dy

    return _result("sub", a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)

    def vjp(dy):
        return dy * b.data, dy * a.data

    return _result("mul", a.data * b.data, (a, b), vjp)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(dy):
        return (dy * c,)

    return _result("scale", x.data * c, (x,), vjp)


def add_scalar(x: Tensor, c: float) -> Tensor:
    def vjp(dy):
        return (dy,)

    return _result("add_scalar", x.data + float(c), (x,), vjp)


def _gelu(x: np.ndarray):
    """GELU of x, and the tanh term its vjp reuses."""
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu(x: Tensor) -> Tensor:
    """tanh-form GELU: 0.5*x*(1 + tanh(c*(x + a*x^3)))."""
    out, t = _gelu(x.data)

    def vjp(dy):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x.data**2)
        return (dy * (0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t**2) * du),)

    return _result("gelu", out, (x,), vjp)


# ---------------------------------------------------------------------------
# reductions


def mean(x: Tensor) -> Tensor:
    """Mean over every element, as a scalar."""
    n = x.size

    def vjp(dy):
        return (np.full(x.shape, float(dy) / n),)

    return _result("mean", np.asarray(x.data.mean()), (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    def vjp(dy):
        return (np.full(x.shape, float(dy)),)

    return _result("sum_all", np.asarray(x.data.sum()), (x,), vjp)


def sum_rows(x: Tensor) -> Tensor:
    """Row sums of a 2-D tensor, shape (m,)."""
    _require_2d("sum_rows", x)

    def vjp(dy):
        return (np.repeat(dy[:, None], x.shape[1], axis=1),)

    return _result("sum_rows", x.data.sum(axis=1), (x,), vjp)


# ---------------------------------------------------------------------------
# structure


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_rows needs at least one part")
    _require_2d("concat_rows", *parts)
    width = parts[0].shape[1]
    for p in parts:
        if p.shape[1] != width:
            raise DimensionError(
                f"concat_rows widths disagree: {parts[0].shape} vs {p.shape}"
            )
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(dy):
        return tuple(dy[offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return _result("concat_rows", np.concatenate([p.data for p in parts], axis=0), tuple(parts), vjp)


def take_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Gather rows by index; scatter-add on backward (embedding lookup)."""
    _require_2d("take_rows", table)
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"take_rows indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError(f"take_rows index out of range for table {table.shape}")

    def vjp(dy):
        return (_RowGrad(idx, dy),)

    return _result("take_rows", table.data[idx], (table,), vjp)


# ---------------------------------------------------------------------------
# row-structured kernels


def softmax_rows(x: Tensor) -> Tensor:
    """Stable per-row softmax (max subtraction before exponentiation)."""
    _require_2d("softmax_rows", x)
    if not np.isfinite(x.data).all():
        raise NumericDomainError("softmax_rows input contains non-finite entries")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(dy):
        inner = (dy * out).sum(axis=1, keepdims=True)
        return ((dy - inner) * out,)

    return _result("softmax_rows", out, (x,), vjp)


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Layer norm of each row, then the normalized rows and 1/sqrt(var + eps)
    its vjp reuses. Mean and variance are numpy's own ``mean``/``var``
    arithmetic, a row sum divided by the width, without their Python-level
    wrappers; the centred rows are made once."""
    n = x.shape[1]
    centred = x - x.sum(axis=1, keepdims=True) / n
    inv = 1.0 / np.sqrt((centred * centred).sum(axis=1, keepdims=True) / n + eps)
    xhat = centred * inv
    return xhat * gain + bias, xhat, inv


def layer_norm_rows(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row (x - mean)/sqrt(var + eps) * gain + bias, population variance."""
    _require_2d("layer_norm_rows", x)
    n = x.shape[1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise DimensionError(
            f"layer_norm_rows gain/bias must be ({n},), got {gain.shape} and {bias.shape}"
        )
    if eps <= 0:
        raise ContractError("layer_norm_rows eps must be positive")
    out, xhat, inv = _layer_norm(x.data, gain.data, bias.data, eps)

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

    return _result("layer_norm_rows", out, (x, gain, bias), vjp)


def l2_normalize_rows(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row to unit norm; rows with norm < eps are scaled by 1/eps."""
    _require_2d("l2_normalize_rows", x)
    if eps <= 0:
        raise ContractError("l2_normalize_rows eps must be positive")
    norms = np.linalg.norm(x.data, axis=1, keepdims=True)
    denom = np.maximum(norms, eps)
    out = x.data / denom

    def vjp(dy):
        small = norms < eps
        inner = (dy * out).sum(axis=1, keepdims=True)
        dx = np.where(small, dy / eps, (dy - out * inner) / denom)
        return (dx,)

    return _result("l2_normalize_rows", out, (x,), vjp)


def cross_entropy_rows(scores: Tensor, target_probs: np.ndarray) -> Tensor:
    """Mean over rows of cross-entropy between row-softmaxed scores and targets.

    ``target_probs`` is a constant row-stochastic matrix; the common case is
    one-hot rows. Computed through a stable log-softmax.
    """
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

    return _result("cross_entropy_rows", np.asarray(loss), (scores,), vjp)


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int, seq_len: int):
    """Attention output, then the per-head q, k, v and weights its vjp reuses."""
    rows, d = q.shape
    # (B*seq, d) -> (B, heads, seq, dh) through this shape and a transpose
    split_shape = (rows // seq_len, seq_len, n_heads, d // n_heads)
    q4, k4, v4 = (t.reshape(split_shape).transpose(0, 2, 1, 3) for t in (q, k, v))
    z = (q4 @ k4.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(split_shape[3]))
    z -= z.max(axis=3, keepdims=True)
    e = np.exp(z)
    a = e / e.sum(axis=3, keepdims=True)
    return (a @ v4).transpose(0, 2, 1, 3).reshape(rows, d), q4, k4, v4, a


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, seq_len: int) -> Tensor:
    """Bidirectional multi-head scaled dot-product attention, one fused node.

    q, k, v are (B*seq_len, d_model): B sequences of seq_len rows stacked in
    order. Attention is block-diagonal, so each sequence attends only to its
    own rows; columns are split into n_heads equal slices.
    """
    _require_2d("attention", q, k, v)
    if not (q.shape == k.shape == v.shape):
        raise DimensionError(
            f"attention operand shapes disagree: {q.shape}, {k.shape}, {v.shape}"
        )
    rows, d = q.shape
    if n_heads < 1 or d % n_heads != 0:
        raise ContractError(f"n_heads {n_heads} must divide d_model {d}")
    if seq_len < 1 or rows % seq_len != 0:
        raise ContractError(f"seq_len {seq_len} must divide the row count {rows}")
    out, q4, k4, v4, a = _attention(q.data, k.data, v.data, n_heads, seq_len)
    split_shape = (rows // seq_len, seq_len, n_heads, d // n_heads)
    inv_scale = 1.0 / np.sqrt(split_shape[3])

    def vjp(dy):
        dy4 = dy.reshape(split_shape).transpose(0, 2, 1, 3)
        dv4 = a.transpose(0, 1, 3, 2) @ dy4
        da = dy4 @ v4.transpose(0, 1, 3, 2)
        dz = (da - (da * a).sum(axis=3, keepdims=True)) * a * inv_scale
        dq4 = dz @ k4
        dk4 = dz.transpose(0, 1, 3, 2) @ q4

        def merge(t4):
            return t4.transpose(0, 2, 1, 3).reshape(rows, d)

        return merge(dq4), merge(dk4), merge(dv4)

    return _result("attention", out, (q, k, v), vjp)


# ---------------------------------------------------------------------------
# tape-free forward

# The forward kernels of the ops above, under the same names, on bare float64
# arrays: no operand checks, no vjp and no Tensor. add, take_rows and
# concat_rows are the one numpy call their taped op makes. A caller that has
# checked its operands runs these when not tracing; each returns the bytes of
# the taped op of the same name.
bare = SimpleNamespace(
    add=np.add,
    take_rows=lambda table, ids: table[ids],
    concat_rows=lambda parts: np.concatenate(parts, axis=0),
    affine=_affine,
    gelu=lambda x: _gelu(x)[0],
    layer_norm_rows=lambda x, gain, bias: _layer_norm(x, gain, bias)[0],
    attention=lambda q, k, v, n_heads, seq_len: _attention(q, k, v, n_heads, seq_len)[0],
)
