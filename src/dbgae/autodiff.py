"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

Operations build a computation record dynamically as they execute (each
output tensor keeps references to its inputs and a closure computing the
vector-Jacobian product); ``backward`` walks the record in reverse
topological order and accumulates gradients additively across fan-out.
``backward`` consumes the record: once a node's closure has run, the node
drops its gradient, closure and inputs, so the record is freed as the walk
goes and only the leaves keep gradients.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import AutodiffError, DimensionError


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
# kink tracing (used by the gradient checker to skip ReLU-family kinks)
# ---------------------------------------------------------------------------

_kink_trace: list[np.ndarray] | None = None


@contextmanager
def record_kink_signs():
    """Collect sign patterns of every ReLU/LeakyReLU input evaluated inside."""
    global _kink_trace
    previous = _kink_trace
    _kink_trace = []
    try:
        yield _kink_trace
    finally:
        _kink_trace = previous


def _trace_signs(mask: np.ndarray):
    if _kink_trace is not None:
        _kink_trace.append(mask.copy())


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
        _accum(a, g @ bv.T)
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
    _trace_signs(mask)

    def bwd(g):
        _accum(a, g * mask)

    return _result(np.where(mask, a.value, 0.0), (a,), bwd, "relu")


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    mask = a.value > 0.0
    _trace_signs(mask)

    def bwd(g):
        _accum(a, g * np.where(mask, 1.0, slope))

    return _result(np.where(mask, a.value, slope * a.value), (a,), bwd, "leaky_relu")


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


class _BipartiteEdges:
    """Directed edges ``src -> dst`` between the first ``num_left`` rows
    ("left") and the next ``num_right`` rows ("right") of a node table.

    Base of the two propagation kernels below.  A kernel turns per-edge
    coefficients into a linear operator (``operator``), applies it and its
    transpose to node rows (``apply``, ``apply_transpose``) and takes the
    per-edge row dot ``<g[dst_e], t[src_e]>`` (``edge_dot``).
    """

    def __init__(self, src, dst, num_left: int, num_right: int):
        self.src = np.asarray(src, dtype=np.intp).ravel()
        self.dst = np.asarray(dst, dtype=np.intp).ravel()
        self.num_left, self.num_right = int(num_left), int(num_right)
        self.num_nodes = self.num_left + self.num_right
        if len(self.src) != len(self.dst):
            raise DimensionError(f"propagate: {len(self.src)} sources for {len(self.dst)} targets")
        if len(self.src) and (
            min(self.src.min(), self.dst.min()) < 0
            or max(self.src.max(), self.dst.max()) >= self.num_nodes
        ):
            raise DimensionError(f"propagate: edge endpoint outside {self.num_nodes} rows")
        if np.any((self.src < self.num_left) == (self.dst < self.num_left)):
            raise DimensionError("propagate: every edge must join a left row and a right row")

    def __len__(self):
        return len(self.src)


class DenseBlockPath(_BipartiteEdges):
    """Propagation through the two dense coefficient blocks of a bipartite path.

    ``operator`` builds the left<-right block (num_left x num_right) and the
    right<-left block (num_right x num_left) with one ``np.bincount`` each
    (duplicate edges add up); applying them is two BLAS matmuls.  Costs
    O(num_left * num_right * width) whatever the edge count, so it pays only
    on dense paths.
    """

    def __init__(self, src, dst, num_left: int, num_right: int):
        super().__init__(src, dst, num_left, num_right)
        n, m = self.num_left, self.num_right
        into_left = self.dst < n
        self.left_edges = np.flatnonzero(into_left)
        self.right_edges = np.flatnonzero(~into_left)
        # Flat positions of each edge in its block.
        self.left_flat = self.dst[self.left_edges] * m + (self.src[self.left_edges] - n)
        self.right_flat = (self.dst[self.right_edges] - n) * n + self.src[self.right_edges]

    def operator(self, coef: np.ndarray):
        n, m = self.num_left, self.num_right
        to_left = np.bincount(
            self.left_flat, weights=coef[self.left_edges], minlength=n * m
        ).reshape(n, m)
        to_right = np.bincount(
            self.right_flat, weights=coef[self.right_edges], minlength=m * n
        ).reshape(m, n)
        return to_left, to_right

    def apply(self, op, t: np.ndarray) -> np.ndarray:
        to_left, to_right = op
        n = self.num_left
        return np.concatenate([to_left @ t[n:], to_right @ t[:n]])

    def apply_transpose(self, op, g: np.ndarray) -> np.ndarray:
        to_left, to_right = op
        n = self.num_left
        return np.concatenate([to_right.T @ g[n:], to_left.T @ g[:n]])

    def edge_dot(self, g: np.ndarray, t: np.ndarray) -> np.ndarray:
        n = self.num_left
        out = np.empty(len(self))
        out[self.left_edges] = (g[:n] @ t[n:].T).ravel()[self.left_flat]
        out[self.right_edges] = (g[n:] @ t[:n].T).ravel()[self.right_flat]
        return out


class SparsePath(_BipartiteEdges):
    """Propagation over the edge list with flattened ``np.bincount``.

    Costs O(edges * width).  The flat (row * width + column) indices of both
    edge ends and two edges x width work buffers are built once per width
    and reused by every call; filling kept buffers in place instead of
    allocating fresh per-edge arrays halved the kernel's time.
    """

    def __init__(self, src, dst, num_left: int, num_right: int):
        super().__init__(src, dst, num_left, num_right)
        self._per_width: dict[int, tuple] = {}

    def _for_width(self, width: int):
        """(flat src, flat dst, buffer, buffer) for rows of ``width`` columns."""
        if width not in self._per_width:
            cols = np.arange(width)
            self._per_width[width] = (
                (self.src[:, None] * width + cols).ravel(),
                (self.dst[:, None] * width + cols).ravel(),
                np.empty((len(self), width)),
                np.empty((len(self), width)),
            )
        return self._per_width[width]

    def operator(self, coef: np.ndarray):
        return coef[:, None]

    def _gather_scale_sum(self, values, rows_from, flat_into, buf, op) -> np.ndarray:
        np.take(values, rows_from, axis=0, out=buf)
        buf *= op
        width = values.shape[1]
        return np.bincount(
            flat_into, weights=buf.reshape(-1), minlength=self.num_nodes * width
        ).reshape(self.num_nodes, width)

    def apply(self, op, t: np.ndarray) -> np.ndarray:
        _, flat_dst, buf, _ = self._for_width(t.shape[1])
        return self._gather_scale_sum(t, self.src, flat_dst, buf, op)

    def apply_transpose(self, op, g: np.ndarray) -> np.ndarray:
        flat_src, _, buf, _ = self._for_width(g.shape[1])
        return self._gather_scale_sum(g, self.dst, flat_src, buf, op)

    def edge_dot(self, g: np.ndarray, t: np.ndarray) -> np.ndarray:
        _, _, g_rows, t_rows = self._for_width(g.shape[1])
        np.take(g, self.dst, axis=0, out=g_rows)
        np.take(t, self.src, axis=0, out=t_rows)
        return (g_rows[:, None, :] @ t_rows[:, :, None]).reshape(-1)


def propagate(t: Tensor, coef: Tensor, path: DenseBlockPath | SparsePath) -> Tensor:
    """Fused message passing: ``out[d] = sum over edges e with dst_e = d of
    coef_e * t[src_e]``.

    One tape node per call, holding only the coefficient vector and ``t``'s
    value: no per-edge row of width ``t.cols`` and no coefficient block is
    kept.  Backward rebuilds the operator from the coefficients (the same
    ``np.bincount``, so the same floats; gradient checkpointing of one op)
    and takes the transposed propagation for ``t`` (g-SpMM) and the per-edge
    row dot ``<g[dst_e], t[src_e]>`` for ``coef`` (g-SDDMM).
    """
    if t.rows != path.num_nodes:
        raise DimensionError(f"propagate: {t.rows} rows for a path over {path.num_nodes} nodes")
    if coef.shape != (len(path), 1):
        raise DimensionError(f"propagate: coefficients {coef.shape} for {len(path)} edges")
    tv, cv = t.value, coef.value[:, 0]

    def bwd(g):
        if t.requires_grad:
            _accum(t, path.apply_transpose(path.operator(cv), g))
        if coef.requires_grad:
            _accum(coef, path.edge_dot(g, tv).reshape(-1, 1))

    return _result(path.apply(path.operator(cv), tv), (t, coef), bwd, "propagate")


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


def segment_softmax(a: Tensor, idx) -> Tensor:
    """Softmax of a column vector within segments given by ``idx``.

    Each row of ``a`` belongs to segment ``idx[row]``; probabilities are
    normalized over rows sharing a segment.  Used for masked graph
    attention, where a segment is one node's neighborhood on one path.
    """
    ri = _as_rowindex(idx)
    if a.cols != 1:
        raise DimensionError(f"segment_softmax: expected a column vector, got {a.shape}")
    if len(ri) != a.rows:
        raise DimensionError(f"segment_softmax: {len(ri)} indices for {a.rows} rows")
    v = a.value[:, 0]
    if len(ri) == 0:
        return _result(a.value.copy(), (a,), lambda g: None, "segment_softmax")
    seg_max = ri.segment_reduce(v, np.maximum)
    e = np.exp(v - seg_max[ri.segment_of])
    seg_sum = ri.segment_reduce(e, np.add)
    out = (e / seg_sum[ri.segment_of]).reshape(-1, 1)

    def bwd(g):
        gs = g[:, 0]
        s = out[:, 0]
        inner = ri.segment_reduce(s * gs, np.add)
        _accum(a, (s * (gs - inner[ri.segment_of])).reshape(-1, 1))

    return _result(out, (a,), bwd, "segment_softmax")


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


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckEntry:
    name: str
    checked: int
    skipped: int
    max_rel_error: float


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    def passes(self, tolerance: float) -> bool:
        return self.max_rel_error <= tolerance


def grad_check(
    loss_fn,
    params: dict[str, Tensor],
    step: float = 1e-4,
    samples_per_param: int = 64,
    seed: int = 0,
) -> GradCheckReport:
    """Central finite differences vs analytic gradients on sampled coordinates.

    ``loss_fn`` must rebuild the computation from the current parameter
    values and return the scalar loss tensor.  Coordinates whose +/- step
    evaluations cross a ReLU-family kink are excluded from the report.
    Relative error is |a - n| / max(|a|, |n|, 1e-8).
    """
    rng = np.random.default_rng(seed)
    zero_grads(params.values())
    loss = loss_fn()
    backward(loss)
    analytic = {name: grad_or_zeros(p).copy() for name, p in params.items()}
    zero_grads(params.values())

    def eval_with_signs(_):
        with record_kink_signs() as signs:
            value = float(loss_fn().value[0, 0])
        return value, signs

    report = GradCheckReport()
    for name, p in params.items():
        size = p.value.size
        n_samples = min(samples_per_param, size)
        coords = rng.choice(size, size=n_samples, replace=False)
        flat = p.value.reshape(-1)
        checked = skipped = 0
        worst = 0.0
        for c in coords:
            original = flat[c]
            flat[c] = original + step
            up, signs_up = eval_with_signs(c)
            flat[c] = original - step
            down, signs_down = eval_with_signs(c)
            flat[c] = original
            same_pattern = len(signs_up) == len(signs_down) and all(
                su.shape == sd.shape and np.array_equal(su, sd)
                for su, sd in zip(signs_up, signs_down)
            )
            if not same_pattern:
                skipped += 1
                continue
            numeric = (up - down) / (2.0 * step)
            a = analytic[name].reshape(-1)[c]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
            checked += 1
        report.entries.append(
            GradCheckEntry(name=name, checked=checked, skipped=skipped, max_rel_error=worst)
        )
    return report
