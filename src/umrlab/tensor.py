"""Dense float64 tensors with reverse-mode automatic differentiation.

An op records one node on an implicit tape exactly when one of its inputs
is grad-tracked, and its output is then tracked too; an op of untracked
inputs records nothing. Only the losses run on the tape: a training step
backpropagates each loss to the gathered embeddings, its two tracked
leaves, and hands their gradient to the encoder's block-stack pullback,
which records nothing; no weight is a tensor. ``backward`` replays the tape
for a scalar root in reverse record order, which fixes the gradient
accumulation order and makes gradients bitwise reproducible.

A tensor's data is a read-only float64 array that never changes after
construction. Weights are not tensors: the encoder and the optimizer's
parameter store (:mod:`~umrlab.optim`) hold them as read-only arrays, and
the block stack's kernels read those arrays directly.

The arithmetic of a transformer block lives in plain array kernels, a
forward and a vjp for each of affine, layer norm, GELU and attention
(``_affine``/``_affine_vjp`` and so on). They take and return arrays and
record nothing; the encoder's block stack and its pullback run them.
Each kernel runs its elementwise steps in place, in buffers it allocated
itself and in the operation order of the out-of-place formula it replaced
(up to swapping the two operands of one product or sum, which IEEE
arithmetic ignores), so it writes that formula's bytes through fewer fresh
arrays. ``softmax_rows`` is an array kernel with no taped op: its one
caller takes it of constant scores. Layer norm and the L2 row normalizers
read their epsilons from module constants, not from callers.

``backward`` returns a dense gradient for every grad-tracked leaf it
reached and none for an intermediate. The block stack's pullback gives each
embedding table a :class:`RowGrad`, the sorted rows it touched and their
summed gradients, with the dense gradient's bytes through ``dense()``, so a
step never builds a dense 5,400-row table on its way to Adam. Its gathers
of its own rows scatter densely (:func:`scatter_rows`), since their
gradient feeds a vjp at once.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericDomainError

_seq = itertools.count()

# tanh-form GELU constant sqrt(2/pi)
_GELU_C = 0.7978845608028654
_GELU_A = 0.044715
# layer norm's variance offset, and the norm floor of every L2 row normalizer
LAYER_NORM_EPS = 1e-5
NORM_EPS = 1e-12


class _Node:
    """One primitive application: input refs, output id, vjp.

    The node keeps only the id of its output, never a reference: the output
    owns the node, so a reference back would make every tape a reference
    cycle that lives until the cyclic collector runs. Dropping a step's root
    then frees its whole tape at once.
    """

    __slots__ = ("inputs", "output_id", "vjp", "seq")

    def __init__(self, inputs, output, vjp):
        self.inputs = inputs
        self.output_id = id(output)
        self.vjp = vjp
        self.seq = next(_seq)


class Tensor:
    """Read-only dense float64 array, optionally tracked for gradients."""

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
        """Wrap a float64 array that nothing else writes as it is, no copy,
        and make ``arr`` read-only."""
        t = cls.__new__(cls)
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


def _result(out_data, inputs, vjp) -> Tensor:
    tracked = any(t.grad_tracked for t in inputs)
    out = Tensor._wrap(np.asarray(out_data), tracked)
    if tracked:
        out._node = _Node(tuple(inputs), out, vjp)
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


class RowGrad:
    """The gradient of a table that only gathers read, as rows.

    ``ids`` holds the table rows with a gradient, sorted and unique, and
    ``rows[j]`` the gradient of row ``ids[j]``; every other row's is 0.0.
    Each row is a sum begun at 0.0, which is never -0.0, so adding it to
    0.0 or adding 0.0 to it leaves its bytes. That is why a sum of row
    gradients over the union of their rows, as :meth:`sum` takes it, has
    the bytes of the dense sum, in which an untouched row adds 0.0.
    """

    __slots__ = ("ids", "rows", "shape")

    def __init__(self, ids: np.ndarray, rows: np.ndarray, shape: tuple[int, ...]):
        self.ids = ids
        self.rows = rows
        self.shape = shape

    @classmethod
    def scatter(cls, shape: tuple[int, ...], idx: np.ndarray, rows: np.ndarray) -> "RowGrad":
        """The gradient of one gather: ``rows[j]`` flows to table row
        ``idx[j]``, summed per distinct row from 0.0 in gather order, as
        ``np.add.at`` into a zero table sums them."""
        ids, inverse = np.unique(idx, return_inverse=True)
        sums = np.zeros((len(ids),) + shape[1:])
        np.add.at(sums, inverse, rows)
        return cls(ids, sums, shape)

    @classmethod
    def sum(cls, parts: Sequence["RowGrad"]) -> "RowGrad":
        """Row-wise sum of ``parts`` in the given order, over the union of
        their rows: each row starts at 0.0 and adds the parts that hold it."""
        ids = row_union(*(p.ids for p in parts))
        rows = np.zeros((len(ids),) + parts[0].shape[1:])
        for p in parts:
            rows[np.searchsorted(ids, p.ids)] += p.rows
        return cls(ids, rows, parts[0].shape)

    def dense(self) -> np.ndarray:
        """The gradient as a fresh array of the table's shape."""
        out = np.zeros(self.shape)
        out[self.ids] = self.rows
        return out


def row_union(*ids: np.ndarray) -> np.ndarray:
    """The distinct row ids of ``ids``, sorted. A sort and a neighbour
    compare: numpy 2's ``np.unique`` of plain values takes a hash path that
    costs several times more on a few thousand ids."""
    s = np.sort(np.concatenate(ids))
    keep = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def scatter_rows(shape: tuple[int, ...], idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A zero table of ``shape`` with ``rows[j]`` added to row ``idx[j]``,
    for distinct ids: one assignment of 0.0 + rows, the bytes of
    ``np.add.at`` into zeros, which also turns -0.0 into 0.0. Its callers,
    in the block stack's backward, scatter into each sequence's tail rows
    and [RET] row, which are distinct."""
    out = np.zeros(shape)
    out[idx] = rows + 0.0
    return out


def dense_grad(g: np.ndarray | RowGrad) -> np.ndarray:
    """A gradient as an array: a :class:`RowGrad` densified, an array as is."""
    return g.dense() if isinstance(g, RowGrad) else g


def sum_grads(parts: Sequence[np.ndarray | RowGrad]) -> np.ndarray | RowGrad:
    """The sum of one weight's gradients, in the given order. One part is
    returned as it is. Parts that are all :class:`RowGrad` sum row by row
    (:meth:`RowGrad.sum`), which has the bytes of the dense sum, since a
    row a part does not hold would only have 0.0 added. Arrays sum into a
    fresh array, first + second and then each later part added in, and no
    part is written into. A mix of the two kinds raises ContractError: one
    weight's gradients are all rows (a table's) or all arrays."""
    if len(parts) == 1:
        return parts[0]
    rows = sum(isinstance(g, RowGrad) for g in parts)
    if rows == len(parts):
        return RowGrad.sum(parts)
    if rows:
        raise ContractError(f"sum_grads got {rows} row gradients among {len(parts)} parts")
    first, second, *rest = parts
    total = first + second
    for g in rest:
        total += g
    return total


def backward(root: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate d(root)/d(leaf) for every grad-tracked leaf under root.

    Returns a map keyed by tensor identity that holds the grad-tracked
    leaves reached, and a tracked root with no node, which maps to 1.0.
    An intermediate's gradient is dropped once its node's vjp has read it.
    Contributions to a tensor are summed in reverse tape order, each added
    to the sum so far into a fresh array.
    """
    if root.ndim != 0:
        raise ContractError(f"backward root must be a scalar, got shape {root.shape}")
    graph = ComputeGraph.of(root)
    # every node's output is alive here (the root, or an input of a later
    # node), so its id cannot have been reused
    grads: dict[int, np.ndarray] = {id(root): np.ones((), dtype=np.float64)}
    holders: dict[int, Tensor] = {id(root): root}
    for node in reversed(graph.nodes):
        # every use of the output comes later on the tape, so its gradient
        # is complete here and no later node adds to it
        out_grad = grads.pop(node.output_id, None)
        if out_grad is None:
            continue
        for inp, g in zip(node.inputs, node.vjp(out_grad)):
            if g is None or not inp.grad_tracked:
                continue
            key = id(inp)
            holders[key] = inp
            prev = grads.get(key)
            grads[key] = g if prev is None else prev + g
    return {holders[key]: g for key, g in grads.items() if holders[key].grad_tracked}


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _require_2d("matmul", a, b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def vjp(dy):
        return dy @ b.data.T, a.data.T @ dy

    return _result(out, (a, b), vjp)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = x @ w
    out += b
    return out


def _affine_vjp(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    """The gradients of ``_affine(x, w, b)`` for an output gradient dy: of
    x, of w and of b."""
    return dy @ w.T, x.T @ dy, dy.sum(axis=0)


def transpose(x: Tensor) -> Tensor:
    _require_2d("transpose", x)

    def vjp(dy):
        return (dy.T,)

    return _result(x.data.T, (x,), vjp)


# ---------------------------------------------------------------------------
# elementwise kernels


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op} operand shapes disagree: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)

    def vjp(dy):
        return dy, dy

    return _result(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)

    def vjp(dy):
        return dy, -dy

    return _result(a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)

    def vjp(dy):
        return dy * b.data, dy * a.data

    return _result(a.data * b.data, (a, b), vjp)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(dy):
        return (dy * c,)

    return _result(x.data * c, (x,), vjp)


def add_scalar(x: Tensor, c: float) -> Tensor:
    def vjp(dy):
        return (dy,)

    return _result(x.data + float(c), (x,), vjp)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The tanh term t = tanh(c*(x + a*(x*x*x))) of GELU, which its vjp
    reuses, in one buffer and in that expression's operation order."""
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu(x: np.ndarray, one_plus_t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """GELU of x, 0.5*x*(1 + t), from 1 + t, written into ``out``, which may
    be x itself."""
    np.multiply(x, 0.5, out=out)
    out *= one_plus_t
    return out


def _gelu_vjp(dy: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The gradient of GELU at x for an output gradient dy, from its tanh
    term t: dy * (0.5*(1 + t) + 0.5*x*(1 - t**2) * c*(1 + 3a*x**2)), in a
    fresh buffer. Products and sums are taken in that expression's order,
    up to the order of two operands, which IEEE rounding ignores."""
    du = np.square(x)
    du *= 3.0 * _GELU_A
    du += 1.0
    du *= _GELU_C
    out = np.square(t)
    np.subtract(1.0, out, out=out)
    half_x = 0.5 * x
    half_x *= out
    half_x *= du
    np.add(t, 1.0, out=out)
    out *= 0.5
    out += half_x
    out *= dy
    return out


# ---------------------------------------------------------------------------
# reductions


def mean(x: Tensor) -> Tensor:
    """Mean over every element, as a scalar."""
    n = x.size

    def vjp(dy):
        return (np.full(x.shape, float(dy) / n),)

    return _result(np.asarray(x.data.mean()), (x,), vjp)


def sum_rows(x: Tensor) -> Tensor:
    """Row sums of a 2-D tensor, shape (m,)."""
    _require_2d("sum_rows", x)

    def vjp(dy):
        return (np.repeat(dy[:, None], x.shape[1], axis=1),)

    return _result(x.data.sum(axis=1), (x,), vjp)


# ---------------------------------------------------------------------------
# row-structured kernels


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Stable per-row softmax of a 2-D array (max subtraction before
    exponentiation). Tape-free: its one caller, the ``kl`` distill loss,
    takes it of the teacher's constant scores."""
    if x.ndim != 2:
        raise DimensionError(f"softmax_rows expects a 2-D array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NumericDomainError("softmax_rows input contains non-finite entries")
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm of each row, then the normalized rows and
    1/sqrt(var + LAYER_NORM_EPS) its vjp reuses. Mean and variance are
    numpy's own ``mean``/``var`` arithmetic, a row sum divided by the width,
    without their Python-level wrappers. Two (rows, width) buffers: the
    centred rows, scaled in place into the normalized ones, and the squares,
    overwritten by the output once the variance is taken."""
    n = x.shape[1]
    mu = x.sum(axis=1, keepdims=True)
    mu /= n
    xhat = x - mu
    out = xhat * xhat
    inv = out.sum(axis=1, keepdims=True)
    inv /= n
    inv += LAYER_NORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain, out=out)
    out += bias
    return out, xhat, inv


def _layer_norm_vjp(dy: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: np.ndarray):
    """The gradients of layer norm for an output gradient dy, from the
    normalized rows and 1/sqrt(var + eps) of :func:`_layer_norm`: of x, of
    the gain and of the bias. The x gradient is
    inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
    dxhat = dy * gain, each mean a row sum divided by the width, written
    in place into dxhat's buffer."""
    n = xhat.shape[1]
    dgain = (dy * xhat).sum(axis=0)
    dbias = dy.sum(axis=0)
    dx = dy * gain
    centre = dx.sum(axis=1, keepdims=True)
    centre /= n
    prod = dx * xhat
    along = prod.sum(axis=1, keepdims=True)
    along /= n
    np.multiply(xhat, along, out=prod)
    dx -= centre
    dx -= prod
    dx *= inv
    return dx, dgain, dbias


def l2_normalize_rows(x: Tensor) -> Tensor:
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

    return _result(out, (x,), vjp)


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

    return _result(np.asarray(loss), (scores,), vjp)


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int, seq_len: int):
    """Attention output, then the per-head q, k, v and weights its vjp reuses.

    k and v hold B sequences of ``seq_len`` rows; q holds the same number of
    rows for each of the B sequences. The scores are scaled, shifted,
    exponentiated and normalized in their own buffer, and the mixed values
    are written through a head-major view of the fresh output, so the
    output owns its data."""
    rows, d = k.shape
    # (B*m, d) -> (B, heads, m, dh) through this shape and a transpose
    head_shape = (rows // seq_len, -1, n_heads, d // n_heads)
    q4, k4, v4 = (t.reshape(head_shape).transpose(0, 2, 1, 3) for t in (q, k, v))
    a = q4 @ k4.transpose(0, 1, 3, 2)
    a *= 1.0 / np.sqrt(head_shape[3])
    a -= a.max(axis=3, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=3, keepdims=True)
    out = np.empty(q.shape)
    np.matmul(a, v4, out=out.reshape(head_shape).transpose(0, 2, 1, 3))
    return out, q4, k4, v4, a


def _attention_vjp(dy: np.ndarray, q4: np.ndarray, k4: np.ndarray, v4: np.ndarray, a: np.ndarray):
    """The gradients of q, k and v for an attention output gradient dy,
    from the per-head q, k, v and weights of :func:`_attention`. The
    softmax's vjp, (da - sum(da * a)) * a / sqrt(dh), is written in place
    into da's buffer."""
    batch, heads, m, dh = q4.shape
    dy4 = dy.reshape(batch, m, heads, dh).transpose(0, 2, 1, 3)
    dv4 = a.transpose(0, 1, 3, 2) @ dy4
    da = dy4 @ v4.transpose(0, 1, 3, 2)
    da -= (da * a).sum(axis=3, keepdims=True)
    da *= a
    da *= 1.0 / np.sqrt(dh)
    dq4 = da @ k4
    dk4 = da.transpose(0, 1, 3, 2) @ q4

    def merge(t4):
        # (B, heads, rows, dh) -> (B*rows, d)
        return t4.transpose(0, 2, 1, 3).reshape(-1, heads * dh)

    return merge(dq4), merge(dk4), merge(dv4)


# ---------------------------------------------------------------------------
# tape-free forward


def _bare_gelu(x: np.ndarray) -> np.ndarray:
    """GELU written over x; the tanh term, which no vjp reads here, holds 1 + t."""
    t = _gelu_tanh(x)
    t += 1.0
    return _gelu(x, t, x)
