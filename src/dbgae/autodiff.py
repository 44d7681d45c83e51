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

import ctypes
import os
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import pairwise

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
# the helper thread (used by model.train on large graphs)
# ---------------------------------------------------------------------------


class _Calls:
    """A queue of calls for the helper thread (``queue.SimpleQueue`` would
    cost every run 128 KB of RSS for its import)."""

    def __init__(self):
        self.items = deque()
        self.ready = threading.Semaphore(0)

    def put(self, call):
        self.items.append(call)
        self.ready.release()

    def get(self):
        self.ready.acquire()
        return self.items.popleft()


_helper: _Calls | None = None  # calls for the helper thread, while one runs


def usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def helper_thread():
    """Run the body with one helper thread beside this one.

    ``share`` hands it pieces of work: ``DenseBlockPath`` its row chunks,
    and ``model.train`` the epoch's diagnostic decode.  Work given to the
    helper must not touch ``SparsePath`` (its work buffers are shared) or
    any function a tracer may wrap.  The thread is joined on exit, after
    the calls queued for it have run.
    """
    global _helper
    calls = _Calls()
    thread = threading.Thread(target=_serve, args=(calls,), name="dbgae-helper", daemon=True)
    thread.start()
    previous, _helper = _helper, calls
    try:
        yield
    finally:
        _helper = previous
        calls.put(None)
        thread.join()


def _serve(calls: _Calls):
    while (call := calls.get()) is not None:
        call()
        del call  # hold nothing of it while waiting for the next


def share(fn, count: int, meanwhile=None):
    """Call ``fn(k)`` for k in range(count), each once, on this thread and on
    the helper, if one runs and is free in time: both take pieces from one
    counter.  ``meanwhile``, if given, is called on this thread first, while
    the helper starts on the pieces; this thread then takes the pieces left
    and waits for the helper's.  An error raised on either thread is raised
    here, with its own type."""
    _Shared(fn, count).run(meanwhile)


class _Shared:
    """One ``share`` call: its pieces, the counter and the helper's error."""

    def __init__(self, fn, count: int):
        self.fn, self.count, self.next = fn, count, 0
        self.lock = threading.Lock()
        self.helping = False
        self.helped = threading.Event()
        self.error = None

    def _take(self) -> int | None:
        with self.lock:
            if self.next >= self.count:
                return None
            self.next += 1
            return self.next - 1

    def _work(self):
        while (k := self._take()) is not None:
            self.fn(k)

    def _help(self):
        """The helper's share; a helper that comes late finds no piece left
        and returns without touching anything."""
        with self.lock:
            if self.next >= self.count:
                return
            self.helping = True
        try:
            self._work()
        except BaseException as exc:  # raised again by run(), on the caller's thread
            self.error = exc
        finally:
            self.helped.set()

    def run(self, meanwhile=None):
        if _helper is not None:
            _helper.put(self._help)
        try:
            if meanwhile is not None:
                meanwhile()
            self._work()
        finally:
            with self.lock:
                self.next = self.count  # after an error, hand out no more pieces
                helping = self.helping
            if helping:
                self.helped.wait()
            self.fn = None  # its closure holds the call's arrays; a late helper never reads it
        if self.error is not None:
            raise self.error


# ---------------------------------------------------------------------------
# freed memory kept between epochs (used by model.train)
# ---------------------------------------------------------------------------

# glibc's mallopt parameters, and its default trim threshold.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_DEFAULT_TRIM_THRESHOLD = 128 << 10
# Inside ``keep_freed_memory``, blocks below KEEP_MMAP_THRESHOLD come from the
# heap, and free memory at the heap's top is returned to the kernel only
# beyond KEEP_TRIM_THRESHOLD.  Each epoch frees its tape before the next
# builds its own; with glibc's defaults that memory went back to the kernel
# and was faulted in again, about 1,000 minor faults an epoch at 200 groups
# and 4,400-4,900 at 800, against none with these values after the first
# epoch.  The trim threshold alone left 200 groups 5,700 faults in 60
# epochs and 0.4 MB more peak RSS; the mmap threshold costs the 1600-group
# train 4 MB of peak RSS (201 -> 205 MB).  Over perfbench scale800 runs an
# 8 MiB mmap threshold raised peak RSS by 2.5-3.1 MB, and these values set
# for the whole process (GLIBC_TUNABLES) by 1.3-1.9 MB; these values,
# scoped to training, moved its median by -0.1 MB over ten runs.
KEEP_MMAP_THRESHOLD = 32 << 20
KEEP_TRIM_THRESHOLD = 128 << 20


def _c_library():
    """The C library's ``(mallopt, malloc_trim)``, or None where it has no
    ``mallopt``: both are glibc's."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    return mallopt, malloc_trim


@contextmanager
def keep_freed_memory():
    """Run the body with freed memory kept in the process, for reuse.

    On entry, glibc's mmap threshold becomes ``KEEP_MMAP_THRESHOLD`` and its
    trim threshold ``KEEP_TRIM_THRESHOLD``.  On exit, also after an error,
    the trim threshold goes back to glibc's default and ``malloc_trim(0)``
    returns the free memory, so later code frees to the kernel as before.
    The mmap threshold stays fixed: glibc cannot turn its dynamic threshold
    back on.  Where the C library has no ``mallopt`` this does nothing.
    """
    libc = _c_library()
    if libc is None:
        yield
        return
    mallopt, malloc_trim = libc
    mallopt(_M_MMAP_THRESHOLD, KEEP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, KEEP_TRIM_THRESHOLD)
    try:
        yield
    finally:
        mallopt(_M_TRIM_THRESHOLD, _DEFAULT_TRIM_THRESHOLD)
        malloc_trim(0)


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
    _trace_signs(mask)

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


def _swap_halves(a: np.ndarray) -> np.ndarray:
    half = len(a) // 2
    return np.concatenate([a[half:], a[:half]])


class MirroredRowIndex:
    """The row index of ``base``'s list with its two halves swapped, read
    through ``base`` instead of stored: ``idx`` is built when read, and
    ``sum_into`` sums the values, halves swapped, with ``base``'s sort.

    A bipartite path's directed edges are its undirected pairs twice,
    targets ``[inst | lab + n]`` and sources ``[lab + n | inst]``, so the
    sources are the targets mirrored.  No row occurs in both halves, so each
    row's values are summed in the order a ``RowIndex`` of the swapped list
    would sum them: the same floats.
    """

    __slots__ = ("base",)

    def __init__(self, base: RowIndex):
        half = len(base) // 2
        if len(base) % 2 or (half and base.idx[:half].max() >= base.idx[half:].min()):
            raise DimensionError(
                "mirrored index: the first half's rows must all lie below the second half's"
            )
        self.base = base

    def __len__(self):
        return len(self.base)

    @property
    def idx(self) -> np.ndarray:
        return _swap_halves(self.base.idx)

    def sum_into(self, values: np.ndarray, num_rows: int) -> np.ndarray:
        return self.base.sum_into(_swap_halves(values), num_rows)


def _as_rowindex(idx) -> RowIndex | MirroredRowIndex:
    return idx if isinstance(idx, (RowIndex, MirroredRowIndex)) else RowIndex(idx)


def gather_rows(a: Tensor, idx) -> Tensor:
    ri = _as_rowindex(idx)
    if len(ri) and (ri.idx.min() < 0 or ri.idx.max() >= a.rows):
        raise DimensionError(f"gather_rows: index out of range for {a.rows} rows")
    rows = a.rows

    def bwd(g):
        _accum(a, ri.sum_into(g, rows))

    return _result(a.value[ri.idx], (a,), bwd, "gather_rows")


class _BipartiteEdges:
    """A bipartite path's directed edges between the first ``num_left`` rows
    ("left") and the next ``num_right`` rows ("right") of a node table, given
    by the path's target ``RowIndex``: ``[inst | lab + n]``, its ``k``
    undirected pairs into left rows, then into right rows.  The sources are
    the targets with their halves swapped (``MirroredRowIndex``), so edge
    ``e < k`` is ``lab_e + n -> inst_e`` and edge ``k + e`` its reverse.

    Base of the two propagation kernels below.  A kernel applies the linear
    operator that per-edge coefficients define, and its transpose, to node
    rows (``apply``, ``apply_transpose``) and takes the per-edge row dot
    ``<g[dst_e], t[src_e]>`` (``edge_dot``).  ``apply_transpose`` calls its
    ``meanwhile`` argument, if given, on the calling thread before that
    thread takes its share of the product; ``propagate``'s backward passes
    the coefficients' gradient there, so on chunked blocks it overlaps the
    helper's chunks.  The edge list is checked here, and ``_index`` keeps
    what its kernel needs of it.
    """

    def __init__(self, dst: RowIndex, num_left: int, num_right: int):
        self.num_left, self.num_right = int(num_left), int(num_right)
        self.num_nodes = self.num_left + self.num_right
        idx, half = dst.idx, len(dst) // 2
        if len(idx) % 2:
            raise DimensionError(f"propagate: {len(idx)} targets, not a path's two halves")
        if len(idx) and (idx.min() < 0 or idx.max() >= self.num_nodes):
            raise DimensionError(f"propagate: edge endpoint outside {self.num_nodes} rows")
        if np.any(idx[:half] >= self.num_left) or np.any(idx[half:] < self.num_left):
            raise DimensionError("propagate: every edge must join a left row and a right row")
        self.targets = dst
        self._index()

    def __len__(self):
        return len(self.targets)


# Bytes of one row chunk of a dense coefficient block.  ``DenseBlockPath``
# builds and multiplies a block of more than two chunks in row chunks of at
# most this size, and ``model.train`` runs a helper thread only when some
# block is that large.  Milliseconds a call at 800 groups (two 1,210 x 1,168
# blocks of 11.3 MB, width 32, one BLAS thread, 2-core Xeon VM, best of 60,
# two rounds):
#                                   apply     apply_transpose
#   whole blocks                    6.1-8.3   6.2-8.4
#   256 KB chunks, with the helper  5.4-6.3   5.7-6.7
#   512 KB                          4.7-4.8   4.5-4.9
#   1 MB                            3.8-4.3   4.2-4.3
#   2 MB                            4.2-4.8   3.8-4.7
# 512 KB rather than 1 MB: over six perfbench scale800 samples the peak RSS
# was 84.9 MB (median) against 86.2 MB with 1 MB chunks and 84.0 MB with
# whole blocks, at the same speed.  A block of at most two chunks is one
# chunk, as at 200 groups (0.7 MB blocks): there, smaller chunks and a
# helper gave 200 epochs no speed-up (2.3-2.7 s either way) and 0.5 MB more
# RSS.
DENSE_CHUNK_BYTES = 1 << 19


def row_chunks(rows: int, cols: int) -> list[int]:
    """Bounds of the row chunks of a (rows, cols) float block: one chunk for
    a block of at most two ``DENSE_CHUNK_BYTES``, else chunks as even as
    they can be, each at most ``DENSE_CHUNK_BYTES`` but at least 4 rows.

    A chunk's product has the whole block's floats in its rows only if BLAS
    takes it by the same path.  Even chunks keep every product as large as
    the block allows: OpenBLAS (0.3.31, SkylakeX kernels) takes a product of
    at most 10**6 multiply-adds by small-matrix kernels, and numpy takes one
    of a single row or column as a matrix-vector product.  A block of more
    than two chunks has chunks of more than two thirds of
    ``DENSE_CHUNK_BYTES``, so more than 10**6 multiply-adds at width 24 and
    up.
    """
    if 8 * rows * cols <= 2 * DENSE_CHUNK_BYTES:
        return [0, rows]
    count = -(-rows // max(4, DENSE_CHUNK_BYTES // (8 * cols)))
    return [rows * c // count for c in range(count + 1)]


class DenseBlockPath(_BipartiteEdges):
    """Propagation through the two dense coefficient blocks of a bipartite path.

    ``apply`` and ``apply_transpose`` build the left<-right block
    (num_left x num_right) and the right<-left block (num_right x num_left)
    in row chunks (``row_chunks``), each with one ``np.bincount`` (duplicate
    edges add up), and apply each chunk with one BLAS matmul into its rows
    of the output.  Costs O(num_left * num_right * width) whatever the edge
    count, so it pays only on dense paths.

    Only the flat position of each edge in its block is kept.  The edges
    into left rows are the first half of the list and the edges into right
    rows the second, so a chunk of a whole side takes that half by slice.  A
    chunk of part of a side takes the edges into its rows from the target
    index's sort; the stable sort keeps each cell's edges in list order, so
    a chunk holds the block's floats.  The calling thread and the helper, if
    one runs, take chunks from one counter (``share``), so at most two
    chunks are alive.  The transposed blocks come from the same chunks: the
    right half of the list holds the left half's pairs reversed, so row i of
    the right block's transpose is row i of the left block built from the
    mirrored coefficients.
    """

    def _index(self):
        n, m = self.num_left, self.num_right
        half = len(self) // 2
        inst, lab = self.targets.idx[:half], self.targets.idx[half:] - n
        self.left_flat = inst * m + lab
        self.right_flat = lab * n + inst

    @property
    def chunked(self) -> bool:
        """Whether a block is applied in more than one row chunk."""
        n, m = self.num_left, self.num_right
        return len(row_chunks(n, m)) + len(row_chunks(m, n)) > 4

    def apply(self, coef: np.ndarray, t: np.ndarray) -> np.ndarray:
        return self._in_chunks(coef, t, mirror=False)

    def apply_transpose(self, coef: np.ndarray, g: np.ndarray, meanwhile=None) -> np.ndarray:
        return self._in_chunks(coef, g, mirror=True, meanwhile=meanwhile)

    def _edges_into(self, lo: int, hi: int) -> np.ndarray:
        """The edges into rows [lo, hi) of one side, as positions in their
        half of the list, in the target index's sort."""
        t = self.targets
        a, b = np.searchsorted(t.uniq, (lo, hi))
        first = t.starts[a] if a < len(t.starts) else len(t.order)
        last = t.starts[b] if b < len(t.starts) else len(t.order)
        edges = t.order[first:last]
        return edges - len(self) // 2 if lo >= self.num_left else edges

    def _in_chunks(self, coef: np.ndarray, x: np.ndarray, mirror: bool, meanwhile=None):
        """The blocks (their transposes when ``mirror``) applied to ``x``,
        one row chunk at a time: rows of the left block's shape
        (num_left x num_right), then of the right block's."""
        n, m = self.num_left, self.num_right
        half = len(self) // 2
        first, second = coef[:half], coef[half:]
        # Per side: its first row, rows and columns, its edges' flat
        # positions and coefficients, and the rows its blocks multiply.
        sides = (
            (0, n, m, self.left_flat, second if mirror else first, x[n:]),
            (n, m, n, self.right_flat, first if mirror else second, x[:n]),
        )
        spans = [
            (side, base + lo, base + hi)
            for side, (base, rows, cols, *_) in enumerate(sides)
            for lo, hi in pairwise(row_chunks(rows, cols))
        ]
        out = np.empty((self.num_nodes, x.shape[1]))

        def chunk(c: int):
            side, lo, hi = spans[c]
            base, rows, cols, flat, weights, rows_from = sides[side]
            if hi - lo < rows:
                edges = self._edges_into(lo, hi)
                flat, weights = flat[edges] - (lo - base) * cols, weights[edges]
            block = np.bincount(flat, weights=weights, minlength=(hi - lo) * cols)
            np.matmul(block.reshape(hi - lo, cols), rows_from, out=out[lo:hi])

        share(chunk, len(spans), meanwhile)
        return out

    def edge_dot(self, g: np.ndarray, t: np.ndarray) -> np.ndarray:
        n, half = self.num_left, len(self) // 2
        out = np.empty(len(self))
        out[:half] = (g[:n] @ t[n:].T).ravel()[self.left_flat]
        out[half:] = (g[n:] @ t[:n].T).ravel()[self.right_flat]
        return out


class SparsePath(_BipartiteEdges):
    """Propagation over the edge list with flattened ``np.bincount``.

    Costs O(edges * width).  The flat (row * width + column) indices of both
    edge ends and two edges x width work buffers are built once per width
    and reused by every call; filling kept buffers in place instead of
    allocating fresh per-edge arrays halved the kernel's time.
    """

    def _index(self):
        self.dst = self.targets.idx
        self.src = _swap_halves(self.dst)
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

    def _gather_scale_sum(self, values, rows_from, flat_into, buf, coef) -> np.ndarray:
        np.take(values, rows_from, axis=0, out=buf)
        buf *= coef[:, None]
        width = values.shape[1]
        return np.bincount(
            flat_into, weights=buf.reshape(-1), minlength=self.num_nodes * width
        ).reshape(self.num_nodes, width)

    def apply(self, coef: np.ndarray, t: np.ndarray) -> np.ndarray:
        _, flat_dst, buf, _ = self._for_width(t.shape[1])
        return self._gather_scale_sum(t, self.src, flat_dst, buf, coef)

    def apply_transpose(self, coef: np.ndarray, g: np.ndarray, meanwhile=None) -> np.ndarray:
        if meanwhile is not None:
            meanwhile()
        flat_src, _, buf, _ = self._for_width(g.shape[1])
        return self._gather_scale_sum(g, self.dst, flat_src, buf, coef)

    def edge_dot(self, g: np.ndarray, t: np.ndarray) -> np.ndarray:
        _, _, g_rows, t_rows = self._for_width(g.shape[1])
        np.take(g, self.dst, axis=0, out=g_rows)
        np.take(t, self.src, axis=0, out=t_rows)
        return (g_rows[:, None, :] @ t_rows[:, :, None]).reshape(-1)


def propagate(
    t: Tensor, coef: Tensor, path: DenseBlockPath | SparsePath, weight: np.ndarray | None = None
) -> Tensor:
    """Fused message passing: ``out[d] = sum over edges e with dst_e = d of
    coef_e * weight_e * t[src_e]``, where ``weight`` is a constant
    (edges, 1) column, or 1 when None.

    One tape node per call, holding only ``coef``, ``weight`` and ``t``'s
    values: no per-edge row of width ``t.cols``, no coefficient block and
    not the product ``coef * weight``, which forward and backward each form
    with the same multiply.  Backward applies the transposed operator,
    rebuilt from the coefficients by the same ``np.bincount`` (so the same
    floats; gradient checkpointing of one op), for ``t`` (g-SpMM) and takes
    the per-edge row dot ``<g[dst_e], t[src_e]>``, times ``weight_e``, for
    ``coef`` (g-SDDMM).
    """
    if t.rows != path.num_nodes:
        raise DimensionError(f"propagate: {t.rows} rows for a path over {path.num_nodes} nodes")
    if coef.shape != (len(path), 1):
        raise DimensionError(f"propagate: coefficients {coef.shape} for {len(path)} edges")
    if weight is not None and weight.shape != (len(path), 1):
        raise DimensionError(f"propagate: weights {weight.shape} for {len(path)} edges")
    tv = t.value

    def coefficients():
        return coef.value[:, 0] if weight is None else coef.value[:, 0] * weight[:, 0]

    def coef_grad(g):
        g_coef = path.edge_dot(g, tv)
        if weight is not None:
            g_coef *= weight[:, 0]
        _accum(coef, g_coef.reshape(-1, 1))

    def bwd(g):
        if not t.requires_grad:
            coef_grad(g)
            return
        # The coefficients' gradient is taken on this thread while the helper,
        # if one runs, starts on the transposed product's row chunks.
        meanwhile = (lambda: coef_grad(g)) if coef.requires_grad else None
        _accum(t, path.apply_transpose(coefficients(), g, meanwhile))

    return _result(path.apply(coefficients(), tv), (t, coef), bwd, "propagate")


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


def edge_attention(s_dst: Tensor, s_src: Tensor, dst, src, slope: float) -> Tensor:
    """Per-edge attention ``softmax over e with dst_e = d of
    leaky_relu(s_dst[dst_e] + s_src[src_e])``, as one op.

    The arithmetic, order included, of the unfused chain (gather both score
    columns, add, LeakyReLU, softmax over each target's edges), so values
    and gradients are those of that chain; the chain's four intermediate
    per-edge columns are neither kept nor put on the tape.  Backward keeps
    only the coefficients and the LeakyReLU sign mask.  ``src`` may be a
    ``MirroredRowIndex`` of ``dst``, as for a path's edges.
    """
    dst, src = _as_rowindex(dst), _as_rowindex(src)
    if s_dst.cols != 1 or s_src.cols != 1:
        raise DimensionError(
            f"edge_attention: expected column vectors, got {s_dst.shape} and {s_src.shape}"
        )
    if len(dst) != len(src):
        raise DimensionError(f"edge_attention: {len(dst)} targets for {len(src)} sources")
    if len(dst) == 0:
        return _result(np.zeros((0, 1)), (s_dst, s_src), lambda g: None, "edge_attention")
    dst_idx, src_idx = dst.idx, src.idx
    for idx, scores in ((dst_idx, s_dst), (src_idx, s_src)):
        if idx.min() < 0 or idx.max() >= scores.rows:
            raise DimensionError(f"edge_attention: index out of range for {scores.rows} rows")
    x = s_dst.value[dst_idx] + s_src.value[src_idx]
    del src_idx
    mask = x > 0.0
    _trace_signs(mask)
    v = np.where(mask, x, slope * x)[:, 0]
    del x
    seg_max = dst.segment_reduce(v, np.maximum)
    e = np.exp(v - seg_max[dst.segment_of])
    seg_sum = dst.segment_reduce(e, np.add)
    out = (e / seg_sum[dst.segment_of]).reshape(-1, 1)
    dst_rows, src_rows = s_dst.rows, s_src.rows

    def bwd(g):
        gs = g[:, 0]
        s = out[:, 0]
        inner = dst.segment_reduce(s * gs, np.add)
        g_scores = (s * (gs - inner[dst.segment_of])).reshape(-1, 1) * np.where(mask, 1.0, slope)
        _accum(s_dst, dst.sum_into(g_scores, dst_rows))
        _accum(s_src, src.sum_into(g_scores, src_rows))

    return _result(out, (s_dst, s_src), bwd, "edge_attention")


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
