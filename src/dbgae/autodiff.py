"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

Operations build a computation record dynamically as they execute (each
output tensor keeps references to its inputs and a closure computing the
vector-Jacobian product); ``backward`` walks the record in reverse
topological order and accumulates gradients additively across fan-out.
``backward`` consumes the record: once a node's closure has run, the node
drops its gradient, closure and inputs, so the record is freed as the walk
goes and only the leaves keep gradients.

``propagate`` aggregates a path's constant node features with a kernel of
``kernels``, one tensor per side of the path: the messages into instances
and those into labels.  ``edge_attention`` reads each side's scores
through the two halves of the path's one target index.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import AutodiffError, DimensionError

if TYPE_CHECKING:
    from .kernels import DenseBlockPath, SparsePath


class Tensor:
    """A 2-D float64 value with an optional gradient slot."""

    __slots__ = ("value", "grad", "parents", "backward_fn", "requires_grad", "op")

    def __init__(self, value, parents=(), backward_fn=None, requires_grad=False, op="leaf"):
        v = np.asarray(value, dtype=np.float64)
        if v.ndim == 0:
            v = v.reshape(1, 1)
        elif v.ndim == 1:
            v = v.reshape(1, -1)
        elif v.ndim != 2:
            raise DimensionError(f"{op}: tensors are 2-D, got ndim={v.ndim}")
        self.value = v
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.requires_grad = requires_grad
        self.op = op

    @property
    def shape(self):
        return self.value.shape

    @property
    def rows(self):
        return self.value.shape[0]

    @property
    def cols(self):
        return self.value.shape[1]

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.shape}, requires_grad={self.requires_grad})"


def constant(value) -> Tensor:
    return Tensor(value, op="const")


def parameter(value) -> Tensor:
    return Tensor(value, requires_grad=True, op="param")


def _result(value, parents, backward_fn, op) -> Tensor:
    needs = any(p.requires_grad for p in parents)
    return Tensor(
        value,
        parents=tuple(parents),
        backward_fn=backward_fn if needs else None,
        requires_grad=needs,
        op=op,
    )


def _accum(t: Tensor, g):
    if not t.requires_grad:
        return
    t.grad = np.array(g, dtype=np.float64) if t.grad is None else t.grad + g


def _accum_rows(t: Tensor, lo: int, g):
    """``_accum`` of a gradient of ``t``'s rows ``[lo, lo + len(g))`` alone:
    the others' is zero, so only these rows are added to."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros(t.shape)
    t.grad[lo : lo + len(g)] += g


def _consumed(g):
    """Closure of a node whose own closure ``backward`` has already run."""
    raise AutodiffError("backward: graph already consumed by an earlier backward")


def backward(loss: Tensor):
    """Accumulate d(loss)/d(tensor) into every reachable leaf's grad slot.

    Consumes the graph: each interior node drops its gradient, closure and
    inputs once its closure has run, and a second ``backward`` through any of
    them raises ``AutodiffError``.
    """
    if loss.shape != (1, 1):
        raise AutodiffError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node.backward_fn is _consumed:
            _consumed(None)  # fail before any gradient is written
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones((1, 1))
    while topo:
        node = topo.pop()
        if node.backward_fn is None:
            continue
        if node.grad is not None:
            node.backward_fn(node.grad)
        node.grad, node.backward_fn, node.parents = None, _consumed, ()


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


def grad_or_zeros(t: Tensor) -> np.ndarray:
    return t.grad if t.grad is not None else np.zeros_like(t.value)


# ---------------------------------------------------------------------------
# broadcasting helpers (row/column vectors and scalars only)
# ---------------------------------------------------------------------------


def _broadcast_ok(a, b, op):
    sa, sb = a.shape, b.shape
    for da, db in zip(sa, sb):
        if da != db and da != 1 and db != 1:
            raise DimensionError(f"{op}: incompatible shapes {sa} and {sb}")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise DimensionError(f"matmul: inner dims {a.shape} x {b.shape}")
    av, bv = a.value, b.value

    def bwd(g):
        if a.requires_grad:
            _accum(a, g @ bv.T)
        if b.requires_grad:
            _accum(b, av.T @ g)

    return _result(av @ bv, (a, b), bwd, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_ok(a, b, "add")

    def bwd(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _result(a.value + b.value, (a, b), bwd, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_ok(a, b, "mul")
    av, bv = a.value, b.value

    def bwd(g):
        _accum(a, _unbroadcast(g * bv, a.shape))
        _accum(b, _unbroadcast(g * av, b.shape))

    return _result(av * bv, (a, b), bwd, "mul")


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def bwd(g):
        _accum(a, g * s)

    return _result(a.value * s, (a,), bwd, "scale")


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0.0

    def bwd(g):
        _accum(a, g * mask)

    return _result(np.where(mask, a.value, 0.0), (a,), bwd, "relu")


def concat_cols(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise DimensionError("concat_cols: needs at least one tensor")
    rows = parts[0].rows
    if any(p.rows != rows for p in parts):
        raise DimensionError("concat_cols: row counts differ")
    offsets = np.cumsum([0] + [p.cols for p in parts])

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[:, lo:hi])

    return _result(np.hstack([p.value for p in parts]), tuple(parts), bwd, "concat_cols")


class RowIndex:
    """A fixed row-index list with cached sort/segment structure.

    Shared by gather (forward) / scatter-add (backward) pairs so the sort is
    amortized across training epochs; segment reductions use ``reduceat``
    over the stable-sorted order.
    """

    __slots__ = ("idx", "order", "starts", "uniq", "segment_of")

    def __init__(self, idx):
        self.idx = np.asarray(idx, dtype=np.intp).ravel()
        self.order = np.argsort(self.idx, kind="stable")
        sorted_idx = self.idx[self.order]
        if len(sorted_idx):
            firsts = np.empty(len(sorted_idx), dtype=bool)
            firsts[0] = True
            firsts[1:] = sorted_idx[1:] != sorted_idx[:-1]
            self.starts = np.flatnonzero(firsts)
            self.uniq = sorted_idx[self.starts]
            segment_sorted = np.cumsum(firsts) - 1
            self.segment_of = np.empty(len(sorted_idx), dtype=np.intp)
            self.segment_of[self.order] = segment_sorted
        else:
            self.starts = np.zeros(0, dtype=np.intp)
            self.uniq = np.zeros(0, dtype=np.intp)
            self.segment_of = np.zeros(0, dtype=np.intp)

    def __len__(self):
        return len(self.idx)

    def sum_into(self, values: np.ndarray, num_rows: int) -> np.ndarray:
        out = np.zeros((num_rows, values.shape[1]))
        if len(self.idx):
            out[self.uniq] = np.add.reduceat(values[self.order], self.starts, axis=0)
        return out

    def segment_reduce(self, values: np.ndarray, ufunc) -> np.ndarray:
        """Per-segment reduction of a 1-D array, in uniq order."""
        return ufunc.reduceat(values[self.order], self.starts)


def _as_rowindex(idx) -> RowIndex:
    return idx if isinstance(idx, RowIndex) else RowIndex(idx)


def gather_rows(a: Tensor, idx) -> Tensor:
    ri = _as_rowindex(idx)
    if len(ri) and (ri.idx.min() < 0 or ri.idx.max() >= a.rows):
        raise DimensionError(f"gather_rows: index out of range for {a.rows} rows")
    rows = a.rows

    def bwd(g):
        _accum(a, ri.sum_into(g, rows))

    return _result(a.value[ri.idx], (a,), bwd, "gather_rows")


def slice_rows(a: Tensor, lo: int, hi: int) -> Tensor:
    """Rows ``[lo, hi)`` of ``a``; backward adds into those rows of ``a``'s
    gradient alone."""
    if not 0 <= lo <= hi <= a.rows:
        raise DimensionError(f"slice_rows: rows [{lo}, {hi}) of {a.rows}")

    def bwd(g):
        _accum_rows(a, lo, g)

    return _result(a.value[lo:hi], (a,), bwd, "slice_rows")


def propagate(
    coef: Tensor, path: DenseBlockPath | SparsePath, weight: np.ndarray | None = None
) -> tuple[Tensor, Tensor]:
    """Fused message passing of the path's constant node features ``X``:
    ``out[t] = sum over edges e with dst_e = t of coef_e * weight_e *
    X[src_e]``, ``A·X``, where ``weight`` is a constant (edges, 1) column,
    or 1 when None.  Returns one tensor per side (see ``kernels``): the
    instances' messages (n x C), from the first half of the edges, and the
    labels' (m x d), from the second.

    Each side is one tape node holding only ``coef`` and ``weight``: no
    per-edge row and no coefficient block.  ``X`` is constant, so backward
    gives only the coefficients' gradient, the per-edge ``<g[dst_e],
    X[src_e]>`` (g-SDDMM), times ``weight_e``, in that side's half."""
    if coef.shape != (len(path), 1):
        raise DimensionError(f"propagate: coefficients {coef.shape} for {len(path)} edges")
    if weight is not None and weight.shape != (len(path), 1):
        raise DimensionError(f"propagate: weights {weight.shape} for {len(path)} edges")
    coefficients = coef.value[:, 0] if weight is None else coef.value[:, 0] * weight[:, 0]
    half = len(path) // 2

    def side(messages, coef_grad, edges: slice) -> Tensor:
        def bwd(g):
            g_coef = coef_grad(g)
            if weight is not None:
                g_coef *= weight[edges, 0]
            _accum_rows(coef, edges.start, g_coef.reshape(-1, 1))

        return _result(messages(coefficients[edges]), (coef,), bwd, "propagate")

    return (
        side(path.into_instances, path.instance_grad, slice(0, half)),
        side(path.into_labels, path.label_grad, slice(half, len(path))),
    )


def row_sum(a: Tensor) -> Tensor:
    shape = a.shape

    def bwd(g):
        _accum(a, np.broadcast_to(g, shape))

    return _result(a.value.sum(axis=1, keepdims=True), (a,), bwd, "row_sum")


def mean_all(a: Tensor) -> Tensor:
    size = a.value.size
    if size == 0:
        raise DimensionError("mean_all: empty tensor")
    shape = a.shape

    def bwd(g):
        _accum(a, np.broadcast_to(g / size, shape))

    return _result(a.value.mean().reshape(1, 1), (a,), bwd, "mean_all")


def edge_attention(s_inst: Tensor, s_lab: Tensor, targets, slope: float) -> Tensor:
    """Per-edge attention of a bipartite path, as one op: the softmax, over
    each target's in-edges, of ``leaky_relu`` of the target's score plus
    the source's.  ``s_inst`` (n x 2) and ``s_lab`` (m x 2) hold each
    node's score as an edge's target (column 0) and as its source (column
    1).  ``targets`` is the path's index ``[inst | lab + n]`` (see
    ``kernels``): an edge into an instance takes ``s_inst[inst, 0] +
    s_lab[lab, 1]``, an edge into a label ``s_lab[lab, 0] + s_inst[inst, 1]``.

    The arithmetic, order included, of the unfused chain (gather both score
    columns, add, LeakyReLU, softmax over each target's edges), so values
    and gradients are those of that chain; the chain's four intermediate
    per-edge columns are neither kept nor put on the tape.  Backward keeps
    only the coefficients and the LeakyReLU sign mask.  It sums the score
    gradients through ``targets`` as they are, and with their halves
    swapped for the sources: no row occurs in both halves, so that is the
    order, and the floats, of a ``RowIndex`` of the sources.
    """
    targets = _as_rowindex(targets)
    if s_inst.cols != 2 or s_lab.cols != 2:
        raise DimensionError(
            f"edge_attention: expected two score columns, got {s_inst.shape} and {s_lab.shape}"
        )
    if len(targets) % 2:
        raise DimensionError(f"edge_attention: {len(targets)} targets, not a path's two halves")
    if len(targets) == 0:
        return _result(np.zeros((0, 1)), (s_inst, s_lab), lambda g: None, "edge_attention")
    n, m, half = s_inst.rows, s_lab.rows, len(targets) // 2
    inst, lab = targets.idx[:half], targets.idx[half:] - n
    if inst.min() < 0 or inst.max() >= n or lab.min() < 0 or lab.max() >= m:
        raise DimensionError(
            f"edge_attention: every edge must join one of {n} instance rows"
            f" and one of {m} label rows"
        )
    si, sl = s_inst.value, s_lab.value
    x = np.concatenate([si[inst, 0] + sl[lab, 1], sl[lab, 0] + si[inst, 1]])
    del lab
    mask = x > 0.0
    v = np.where(mask, x, slope * x)
    del x
    seg_max = targets.segment_reduce(v, np.maximum)
    e = np.exp(v - seg_max[targets.segment_of])
    seg_sum = targets.segment_reduce(e, np.add)
    out = (e / seg_sum[targets.segment_of]).reshape(-1, 1)

    def bwd(g):
        gs = g[:, 0]
        s = out[:, 0]
        inner = targets.segment_reduce(s * gs, np.add)
        g_scores = (s * (gs - inner[targets.segment_of]) * np.where(mask, 1.0, slope)).reshape(-1, 1)
        as_target = targets.sum_into(g_scores, n + m)
        as_source = targets.sum_into(np.roll(g_scores, half, axis=0), n + m)
        _accum(s_inst, np.hstack([as_target[:n], as_source[:n]]))
        _accum(s_lab, np.hstack([as_target[n:], as_source[n:]]))

    return _result(out, (s_inst, s_lab), bwd, "edge_attention")


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Per-row negative log softmax probability of the target column.

    Computed through log-sum-exp so extreme logits stay finite.
    """
    t = np.asarray(targets, dtype=np.intp).ravel()
    if len(t) != logits.rows:
        raise DimensionError(f"cross_entropy: {len(t)} targets for {logits.rows} rows")
    if len(t) and (t.min() < 0 or t.max() >= logits.cols):
        raise DimensionError("cross_entropy: target outside logit columns")
    v = logits.value
    rowmax = v.max(axis=1, keepdims=True)
    lse = rowmax[:, 0] + np.log(np.exp(v - rowmax).sum(axis=1))
    picked = v[np.arange(len(t)), t]
    out = (lse - picked).reshape(-1, 1)

    def bwd(g):
        soft = np.exp(v - rowmax)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(len(t)), t] -= 1.0
        _accum(logits, g * soft)

    return _result(out, (logits,), bwd, "cross_entropy")
