"""The two propagation kernels of a bipartite path, and when a helper pays.

``autodiff.propagate`` applies a path's per-edge coefficients through one
of these: ``DenseBlockPath`` (dense coefficient blocks, BLAS matmuls, in
row chunks shared with the helper thread) or ``SparsePath`` (flattened
``np.bincount`` over the edge list).  ``helper_pays`` decides whether
``model.train`` runs the helper thread for a graph's kernels.
"""

from __future__ import annotations

from itertools import pairwise

import numpy as np

from . import runtime
from .autodiff import RowIndex, _swap_halves
from .errors import DimensionError


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
# most this size, and ``helper_pays`` asks for a helper thread only when
# some block is that large.  Milliseconds a call at 800 groups (two
# 1,210 x 1,168 blocks of 11.3 MB, width 32, one BLAS thread, 2-core Xeon
# VM, best of 60, two rounds):
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
    one runs, take chunks from one counter (``runtime.share``), so at most
    two chunks are alive.  The transposed blocks come from the same chunks:
    the right half of the list holds the left half's pairs reversed, so row
    i of the right block's transpose is row i of the left block built from
    the mirrored coefficients.
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

        runtime.share(chunk, len(spans), meanwhile)
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


def helper_pays(paths) -> bool:
    """Whether a helper thread pays for these propagation kernels: only with
    a second core and a dense block of more than one row chunk."""
    chunked = any(isinstance(p, DenseBlockPath) and p.chunked for p in paths)
    return chunked and runtime.usable_cores() >= 2
