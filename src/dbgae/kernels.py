"""The two propagation kernels of a bipartite path.

A path's kernel owns the path's one edge index, the target ``RowIndex``
``[inst | lab + n]``: the model reads the pairs from it (``pairs``), and
``autodiff.edge_attention`` its halves and segments.
``autodiff.propagate`` aggregates the constant node features through a
path's per-edge coefficients, ``A·X``, one side at a time: the label
one-hots into instances, the instance features into labels with
``DenseBlockPath`` (BLAS matmuls in row chunks, shared with a second
thread by ``runtime.share``) or ``SparsePath`` (flattened ``np.bincount``).
"""

from __future__ import annotations

from itertools import pairwise

import numpy as np

from . import runtime
from .autodiff import RowIndex
from .errors import DimensionError


class _BipartiteEdges:
    """A bipartite path's directed edges between ``n`` instances and ``m``
    labels, given by the path's target ``RowIndex``: ``[inst | lab + n]``,
    its ``k`` undirected pairs into instances, then into labels.  The
    sources are the targets with their halves swapped, so edge ``e < k`` is
    ``lab_e -> inst_e`` and edge ``k + e`` its reverse.

    An instance's features are its row of ``x`` (n x d); a label's are the
    one-hot of its class, ``classes[l]`` of ``num_classes``.  So only
    one-hots arrive into instances (``into_instances``, n x C) and only
    features into labels (``into_labels``, m x d, which the subclasses
    take); each takes its half of the coefficients, and its ``_grad`` gives
    that half's gradient for an upstream gradient of its output.
    """

    def __init__(self, targets: RowIndex, x: np.ndarray, classes: np.ndarray, num_classes: int):
        self.x = x
        self.num_instances, self.feature_dim = x.shape
        self.num_labels, self.num_classes = len(classes), int(num_classes)
        n, idx = self.num_instances, targets.idx
        rows = n + self.num_labels
        if len(idx) % 2:
            raise DimensionError(f"propagate: {len(idx)} targets, not a path's two halves")
        if len(idx) and (idx.min() < 0 or idx.max() >= rows):
            raise DimensionError(f"propagate: edge endpoint outside {rows} rows")
        self.targets = targets
        inst, lab = self.pairs()
        if np.any(inst >= n) or np.any(lab < n):
            raise DimensionError("propagate: every edge must join an instance row and a label row")
        # Each edge into an instance, as its flat position in the n x C messages.
        self.into_instance = inst * self.num_classes + classes[lab - n]

    def __len__(self):
        return len(self.targets)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The path's undirected pairs as the target index's two halves,
        views that copy nothing: (instance rows, label rows + n)."""
        half = len(self) // 2
        return self.targets.idx[:half], self.targets.idx[half:]

    def into_instances(self, coef: np.ndarray) -> np.ndarray:
        """The instances' messages (n x C) for the edges into them."""
        n, C = self.num_instances, self.num_classes
        return np.bincount(self.into_instance, coef, n * C).reshape(n, C)

    def instance_grad(self, g: np.ndarray) -> np.ndarray:
        """The gradient of ``into_instances``' coefficients for an upstream
        gradient ``g`` (n x C) of its output."""
        return g.ravel()[self.into_instance]


# Bytes of one row chunk of a dense label x instance block larger than two
# (``row_chunks``); the timings and peak RSS behind it are in CHANGES.md.
DENSE_CHUNK_BYTES = 1 << 19


def row_chunks(rows: int, cols: int) -> list[int]:
    """Bounds of the row chunks of a (rows, cols) float block: one chunk for
    a block of at most two ``DENSE_CHUNK_BYTES``, else chunks as even as
    they can be, each at most ``DENSE_CHUNK_BYTES`` but at least 4 rows.

    A chunk's product has the whole product's floats only if BLAS takes it
    by the same path.  Even chunks keep every product as large as the block
    allows: OpenBLAS (0.3.31) takes a product of at most 10**6 multiply-adds
    by small-matrix kernels, and numpy one of a single row or column as a
    matrix-vector product.  Chunks of a block of more than two chunks hold
    over two thirds of ``DENSE_CHUNK_BYTES``: over 10**6 multiply-adds at
    width 24 and up."""
    if 8 * rows * cols <= 2 * DENSE_CHUNK_BYTES:
        return [0, rows]
    count = -(-rows // max(4, DENSE_CHUNK_BYTES // (8 * cols)))
    return [rows * c // count for c in range(count + 1)]


class DenseBlockPath(_BipartiteEdges):
    """The label side through the dense label x instance coefficient block.

    ``R·x`` builds ``R`` (m x n) in row chunks (``row_chunks``), one
    ``np.bincount`` each, and multiplies each chunk by ``x`` into its rows
    of the output.  The edge dots read their cells of ``x @ g.T`` (n x m),
    taken in the same chunks, of its columns.  Costs O(m * n * d) whatever
    the edge count, so it pays only on dense paths.

    Both ends of an edge are read from the target index: a chunk of all
    label rows takes the second half of the list by slice, any other chunk
    the edges into its rows from the index's stable sort, in list order.
    So a chunk's rows of ``R·x`` and columns of the product are the whole
    product's floats, with OpenBLAS (its rows of that product are not).
    The calling thread and, inside ``runtime.sharing(True)``, one thread
    that ``runtime.share`` starts for the call take chunks from one counter,
    so at most two chunks are alive."""

    def _edges_into(self, lo: int, hi: int) -> np.ndarray:
        """The edges into label rows [lo, hi), in the target index's sort."""
        t, n = self.targets, self.num_instances
        a, b = np.searchsorted(t.uniq, (n + lo, n + hi))
        first = t.starts[a] if a < len(t.starts) else len(t.order)
        last = t.starts[b] if b < len(t.starts) else len(t.order)
        return t.order[first:last] - len(self) // 2

    def _in_chunks(self, piece, by_label: bool):
        """Call ``piece(lo, hi, edges, flat)`` on every row chunk [lo, hi):
        its edges (a slice or positions in the second half) and their cells
        in its rows of the block (``by_label``) or its columns of x @ g.T."""
        m, n = self.num_labels, self.num_instances
        inst, lab = self.pairs()
        spans = list(pairwise(row_chunks(m, n)))

        def chunk(c: int):
            lo, hi = spans[c]
            edges = slice(None) if hi - lo == m else self._edges_into(lo, hi)
            if by_label:
                flat = (lab[edges] - (n + lo)) * n + inst[edges]
            else:
                flat = inst[edges] * (hi - lo) + (lab[edges] - (n + lo))
            piece(lo, hi, edges, flat)

        runtime.share(chunk, len(spans))

    def into_labels(self, coef: np.ndarray) -> np.ndarray:
        """The labels' messages ``R·x`` (m x d) for the edges into them."""
        n = self.num_instances
        out = np.empty((self.num_labels, self.feature_dim))

        def piece(lo, hi, edges, flat):
            block = np.bincount(flat, weights=coef[edges], minlength=(hi - lo) * n)
            np.matmul(block.reshape(hi - lo, n), self.x, out=out[lo:hi])

        self._in_chunks(piece, by_label=True)
        return out

    def label_grad(self, g: np.ndarray) -> np.ndarray:
        """The edge dots ``<g[lab], x[inst]>`` for an upstream gradient
        ``g`` (m x d) of ``into_labels``."""
        out = np.empty(len(self) // 2)

        def piece(lo, hi, edges, flat):
            out[edges] = (self.x @ g[lo:hi].T).ravel()[flat]

        self._in_chunks(piece, by_label=False)
        return out


class SparsePath(_BipartiteEdges):
    """The label side over the edge list with flattened ``np.bincount``.

    Costs O(edges * d).  The flat (label * d + column) index of every edge
    into a label, its source's feature row and one edges x d work buffer
    are built by the first call and reused by every later one.
    """

    _kept = None

    def _label_side(self):
        """(label, flat indices, source features, buffer) of edges into labels."""
        if self._kept is None:
            inst, lab = self.pairs()
            lab, d = lab - self.num_instances, self.feature_dim
            x_src = self.x[inst]
            flat = (lab[:, None] * d + np.arange(d)).ravel()
            self._kept = lab, flat, x_src, np.empty_like(x_src)
        return self._kept

    def into_labels(self, coef: np.ndarray) -> np.ndarray:
        m, d = self.num_labels, self.feature_dim
        _, flat, x_src, buf = self._label_side()
        np.multiply(x_src, coef[:, None], out=buf)
        return np.bincount(flat, weights=buf.reshape(-1), minlength=m * d).reshape(m, d)

    def label_grad(self, g: np.ndarray) -> np.ndarray:
        lab, _, x_src, buf = self._label_side()
        np.take(g, lab, axis=0, out=buf)
        return (buf[:, None, :] @ x_src[:, :, None]).reshape(-1)

