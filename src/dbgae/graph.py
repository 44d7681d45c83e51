"""Dual bipartite graph construction.

Within-group candidate links are clustered by their concatenated
instance/one-hot-label tuple features (DBSCAN) to estimate co-occurrence
counts, then normalized against contradictory links to get weights in
(0, 1].  Cross-group links are induced through homogeneous neighbors:
instances within a feature-distance threshold in other groups donate
their within-link weights.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import jsonl
from .data import GpllDataset
from .errors import ConfigError, SchemaError

NOISE = -1
_UNVISITED = -2


@dataclass
class ClusterAssignment:
    """Per-point cluster ids (NOISE = -1) with per-cluster sizes."""

    labels: np.ndarray
    sizes: np.ndarray

    @property
    def num_clusters(self) -> int:
        return len(self.sizes)


# Squared distances ``radius_neighbors`` holds at once: RADIUS_BLOCK_VALUES // n
# rows of the n x n matrix (fewer columns for later blocks), plus one
# temporary of that size.  On benchmark seed 0 (one BLAS thread, 2-core Xeon
# VM), 2**15 to 2**17 values ran equally fast within the machine's noise; at
# 1600 groups 2**16 took dbscan 160 ms and homogeneous_neighbors 43 ms (whole
# matrix: 344 and 86 ms) at a tracemalloc peak of 6.3 and 6.7 MiB (whole
# matrix: 243 and 90 MiB).
RADIUS_BLOCK_VALUES = 1 << 16


def radius_neighbors(
    points: np.ndarray, radius: float, parts: np.ndarray | None = None
) -> list[np.ndarray]:
    """Per point, the ascending indices of the points at squared distance
    <= radius**2 (closed ball, self included).

    Each close pair is decided once (``_close_pairs``) and given to both
    points, so the relation is symmetric.  ``parts``, when given, is a part
    id per point for a caller that knows points of different parts to be
    farther than ``radius`` apart: the search then runs within each part,
    and gives the lists of a search over all points.
    """
    n = len(points)
    if n == 0:
        return []
    if parts is None:
        i, j = _close_pairs(points, radius)
    else:
        # Each part is one slice of a copy sorted by part.  (One gathered
        # copy per part left 1 MB more of the heap resident at 800 groups.)
        order = np.argsort(parts, kind="stable")
        ordered = parts[order]
        bounds = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True]).tolist()
        points = points[order]
        found = [
            np.stack(_close_pairs(points[lo:hi], radius)) + lo
            for lo, hi in zip(bounds, bounds[1:])
        ]
        i, j = order[np.concatenate(found, axis=1)]
    key = np.concatenate([i * n + j, (j * n + i)[i != j]])
    key.sort()
    return np.split(key % n, np.searchsorted(key, np.arange(1, n) * n))


def _close_pairs(points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``(i, j)``, ``i <= j``, at squared distance <= radius**2.

    Squared distances are ``|p|^2 + |q|^2 - 2 p.q``, taken one block of rows
    at a time against the columns from the block's first row on, so no n x n
    matrix is ever built, and each pair is read from its upper-triangle
    entry alone, whatever the rounding of the block products.
    """
    n = len(points)
    sq = np.einsum("ij,ij->i", points, points)
    rows = max(1, RADIUS_BLOCK_VALUES // n)
    upper: list[np.ndarray] = []  # keys i * n + j of the close pairs with i <= j
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        d2 = points[lo:hi] @ points[lo:].T
        d2 *= 2.0
        np.subtract(sq[lo:hi, None] + sq[None, lo:], d2, out=d2)
        i, j = np.nonzero(d2 <= radius * radius)
        del d2
        keep = j >= i
        upper.append((i[keep] + lo) * n + (j[keep] + lo))
    return np.divmod(np.concatenate(upper), n)


def dbscan(
    points: np.ndarray, eps: float, min_pts: int, parts: np.ndarray | None = None
) -> ClusterAssignment:
    """Density-based clustering with deterministic border assignment.

    Points are processed in ascending index order and border points join
    the first core cluster whose expansion reaches them, so clusters are
    numbered in scan order.  A core point has at least ``min_pts`` points
    (itself included) within ``eps``.

    ``parts`` is passed to ``radius_neighbors``: a part id per point, for a
    caller that knows points of different parts to be farther than ``eps``
    apart.
    """
    if eps <= 0:
        raise ConfigError("eps must be > 0")
    if min_pts < 1:
        raise ConfigError("min_pts must be >= 1")
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n == 0:
        return ClusterAssignment(labels=np.zeros(0, dtype=int), sizes=np.zeros(0, dtype=int))

    neighbors = radius_neighbors(points, eps, parts)
    # The expansion works on Python lists and ints, which it indexes at half
    # the cost of numpy arrays.  A core point's neighbours become a list only
    # when it is expanded, so the ints of one cluster are alive at a time.
    core = [len(near) >= min_pts for near in neighbors]
    labels = [_UNVISITED] * n
    cluster = 0
    for start in range(n):
        if labels[start] != _UNVISITED:
            continue
        if not core[start]:
            labels[start] = NOISE
            continue
        labels[start] = cluster
        queue = neighbors[start].tolist()
        for q in queue:  # breadth first: the loop reaches what it appends
            if labels[q] == NOISE:
                labels[q] = cluster  # border point
            if labels[q] != _UNVISITED:
                continue
            labels[q] = cluster
            if core[q]:
                queue.extend(neighbors[q].tolist())
        cluster += 1

    labels = np.asarray(labels, dtype=int)
    sizes = np.bincount(labels[labels >= 0], minlength=cluster).astype(int)
    return ClusterAssignment(labels=labels, sizes=sizes)


# ---------------------------------------------------------------------------
# graph containers
# ---------------------------------------------------------------------------


@dataclass
class WithinLinks:
    """All within-group candidate links with co-occurrence counts."""

    inst: np.ndarray  # (E,) instance row index
    lab: np.ndarray  # (E,) label row index
    count: np.ndarray  # (E,) cluster size, noise links get 1


@dataclass
class WithinGraph:
    inst: np.ndarray
    lab: np.ndarray
    weight: np.ndarray
    count: np.ndarray


@dataclass
class CrossGraph:
    inst: np.ndarray
    lab: np.ndarray
    weight: np.ndarray
    via: np.ndarray  # homogeneous neighbor donating the weight


def _onehot(classes: np.ndarray, num_classes: int) -> np.ndarray:
    """One row per entry of ``classes``: 1.0 in that class's column."""
    onehot = np.zeros((len(classes), num_classes))
    onehot[np.arange(len(classes)), classes] = 1.0
    return onehot


@dataclass
class DualBipartiteGraph:
    """Instance and label-occurrence nodes with within/cross weighted edges.

    Instance rows follow dataset iteration order; label rows follow
    (group, slot) order.  In the unified node id space instances occupy
    [0, N) and label nodes [N, N + M).
    """

    instance_ids: np.ndarray
    instance_group: np.ndarray
    instance_features: np.ndarray
    label_group: np.ndarray
    label_class: np.ndarray
    label_slot: np.ndarray
    num_classes: int
    within: WithinGraph
    cross: CrossGraph

    @property
    def num_instances(self) -> int:
        return len(self.instance_ids)

    @property
    def num_label_nodes(self) -> int:
        return len(self.label_class)

    @property
    def feature_dim(self) -> int:
        return self.instance_features.shape[1]

    def label_onehot(self) -> np.ndarray:
        return _onehot(self.label_class, self.num_classes)


@dataclass
class DatasetIndex:
    """A dataset's node rows in the layout of ``DualBipartiteGraph``, plus
    each group's instance rows and label rows."""

    instance_ids: np.ndarray
    instance_group: np.ndarray
    instance_features: np.ndarray
    label_group: np.ndarray
    label_class: np.ndarray
    label_slot: np.ndarray
    num_classes: int
    group_inst_rows: list[np.ndarray]
    group_lab_rows: list[np.ndarray]


def index_dataset(ds: GpllDataset) -> DatasetIndex:
    inst_ids, inst_group, feats = [], [], []
    lab_group, lab_class, lab_slot = [], [], []
    group_inst_rows, group_lab_rows = [], []
    for group in ds.groups:
        rows = []
        for inst in group.instances:
            rows.append(len(inst_ids))
            inst_ids.append(inst.instance_id)
            inst_group.append(group.group_id)
            feats.append(inst.features)
        group_inst_rows.append(np.asarray(rows, dtype=int))
        rows = []
        for lab in sorted(group.labels, key=lambda l: l.slot):
            rows.append(len(lab_class))
            lab_group.append(group.group_id)
            lab_class.append(lab.class_id)
            lab_slot.append(lab.slot)
        group_lab_rows.append(np.asarray(rows, dtype=int))
    features = (
        np.asarray(feats, dtype=np.float64) if feats else np.zeros((0, ds.feature_dim))
    )
    return DatasetIndex(
        instance_ids=np.asarray(inst_ids, dtype=int),
        instance_group=np.asarray(inst_group, dtype=int),
        instance_features=features,
        label_group=np.asarray(lab_group, dtype=int),
        label_class=np.asarray(lab_class, dtype=int),
        label_slot=np.asarray(lab_slot, dtype=int),
        num_classes=ds.num_classes,
        group_inst_rows=group_inst_rows,
        group_lab_rows=group_lab_rows,
    )


def count_cooccurrence(index: DatasetIndex, eps: float = 1.0, min_pts: int = 2) -> WithinLinks:
    """Cluster all within-group link tuples [x_i ; onehot(l_j)] and assign
    each link the size of its cluster; noise links count themselves (1)."""
    inst_rows, lab_rows = [], []
    for gi, gl in zip(index.group_inst_rows, index.group_lab_rows):
        if len(gi) == 0 or len(gl) == 0:
            continue
        ii, ll = np.meshgrid(gi, gl, indexing="ij")
        inst_rows.append(ii.ravel())
        lab_rows.append(ll.ravel())
    if not inst_rows:
        empty = np.zeros(0, dtype=int)
        return WithinLinks(inst=empty, lab=empty.copy(), count=empty.copy())
    inst = np.concatenate(inst_rows)
    lab = np.concatenate(lab_rows)

    lab_class = index.label_class
    onehot = _onehot(lab_class, index.num_classes)
    tuples = np.hstack([index.instance_features[inst], onehot[lab]])
    # Tuples of different label classes are sqrt(2) or more apart, so below
    # that radius the neighbour search runs per class.
    parts = lab_class[lab] if eps * eps < 2 else None
    assignment = dbscan(tuples, eps=eps, min_pts=min_pts, parts=parts)
    if assignment.num_clusters:
        count = np.where(
            assignment.labels >= 0,
            assignment.sizes[np.maximum(assignment.labels, 0)],
            1,
        ).astype(int)
    else:
        count = np.ones(len(inst), dtype=int)
    return WithinLinks(inst=inst, lab=lab, count=count)


def within_weights(links: WithinLinks) -> WithinGraph:
    """Normalize counts against contradictory links.

    For link (i, j): w = c_ij / ((sum_u c_iu + sum_v c_vj) - c_ij), where the
    sums run over all links sharing instance i resp. label node j (both
    include c_ij itself, de-duplicated by the subtraction).  A link with no
    contradictory links gets weight exactly 1.
    """
    if len(links.inst) == 0:
        return WithinGraph(inst=links.inst, lab=links.lab, weight=np.zeros(0), count=links.count)
    sum_by_inst = np.bincount(links.inst, weights=links.count)
    sum_by_lab = np.bincount(links.lab, weights=links.count)
    denom = sum_by_inst[links.inst] + sum_by_lab[links.lab] - links.count
    weight = links.count / denom
    return WithinGraph(inst=links.inst, lab=links.lab, weight=weight, count=links.count.copy())


def homogeneous_neighbors(
    features: np.ndarray, groups: np.ndarray, threshold: float
) -> list[np.ndarray]:
    """Per-instance list of cross-group instances within ``threshold`` (closed,
    Euclidean); self excluded, symmetric by construction."""
    if threshold <= 0:
        raise ConfigError("threshold must be > 0")
    return [
        near[groups[near] != groups[i]]
        for i, near in enumerate(radius_neighbors(features, threshold))
    ]


def cross_links(within: WithinGraph, neighbors: list[np.ndarray]) -> CrossGraph:
    """Donate each neighbor's within-link weights as cross links.

    Duplicate (instance, label) pairs keep the maximum weight; equal weights
    keep the lowest-index donating neighbor.
    """
    n = len(neighbors)
    # (instance, donor) pairs in instance order, then each donor's order
    recipient = np.repeat(np.arange(n), np.fromiter(map(len, neighbors), dtype=int, count=n))
    donor = np.concatenate(neighbors).astype(int) if n else np.zeros(0, dtype=int)
    # a donor's within edges are one range of positions in ``order``
    order = np.argsort(within.inst, kind="stable")
    bounds = np.searchsorted(within.inst[order], np.arange(n + 1))
    degree = np.diff(bounds)[donor]
    pair = np.repeat(np.arange(len(donor)), degree)  # per candidate edge
    rank = np.arange(len(pair)) - (np.cumsum(degree) - degree)[pair]  # within its pair
    eids = order[bounds[donor][pair] + rank]
    if len(eids) == 0:
        empty = np.zeros(0, dtype=int)
        return CrossGraph(inst=empty, lab=empty.copy(), weight=np.zeros(0), via=empty.copy())

    inst = recipient[pair]
    lab = within.lab[eids]
    weight = within.weight[eids]
    via = donor[pair]
    order = np.lexsort((via, -weight, lab, inst))
    inst, lab, weight, via = inst[order], lab[order], weight[order], via[order]
    first = np.ones(len(inst), dtype=bool)
    first[1:] = (inst[1:] != inst[:-1]) | (lab[1:] != lab[:-1])
    return CrossGraph(inst=inst[first], lab=lab[first], weight=weight[first], via=via[first])


def build_dual_graph(
    ds: GpllDataset, eps: float = 1.0, min_pts: int = 2, threshold: float = 1.0
) -> DualBipartiteGraph:
    """Full construction: co-occurrence counts, within weights, cross links."""
    index = index_dataset(ds)
    within = within_weights(count_cooccurrence(index, eps=eps, min_pts=min_pts))
    neighbors = homogeneous_neighbors(index.instance_features, index.instance_group, threshold)
    return DualBipartiteGraph(
        instance_ids=index.instance_ids,
        instance_group=index.instance_group,
        instance_features=index.instance_features,
        label_group=index.label_group,
        label_class=index.label_class,
        label_slot=index.label_slot,
        num_classes=index.num_classes,
        within=within,
        cross=cross_links(within, neighbors),
    )


# ---------------------------------------------------------------------------
# serialization (JSON Lines with "nodes" and "edges" sections)
# ---------------------------------------------------------------------------


def graph_file(graph: DualBipartiteGraph) -> tuple[dict, list]:
    """The header and the parts ``save_graph`` hands to ``jsonl.write``."""
    n, m = graph.num_instances, graph.num_label_nodes
    w, x = graph.within, graph.cross
    meta = {
        "section": "nodes",
        "num_instances": n,
        "num_label_nodes": m,
        "num_classes": graph.num_classes,
        "feature_dim": graph.feature_dim,
    }
    instances = {
        "node_id": np.arange(n),
        "kind": np.full(n, "instance"),
        "instance_id": graph.instance_ids,
        "group_id": graph.instance_group,
        "features": graph.instance_features,
    }
    labels = {
        "node_id": n + np.arange(m),
        "kind": np.full(m, "label"),
        "group_id": graph.label_group,
        "class_id": graph.label_class,
        "slot": graph.label_slot,
    }
    within = {
        "src": w.inst,
        "dst": w.lab + n,
        "w": w.weight,
        "kind": np.broadcast_to("within", len(w.inst)),
        "c": w.count,
    }
    cross = {
        "src": x.inst,
        "dst": x.lab + n,
        "w": x.weight,
        "kind": np.broadcast_to("cross", len(x.inst)),
        "via": x.via,
    }
    return meta, [
        jsonl.Columns(instances),
        jsonl.Columns(labels),
        jsonl.records([{"section": "edges"}]),
        jsonl.Columns(within),
        jsonl.Columns(cross),
    ]


def save_graph(graph: DualBipartiteGraph, path):
    header, parts = graph_file(graph)
    jsonl.write(path, header, *parts)


def load_graph(path) -> DualBipartiteGraph:
    nodes: dict = {}  # node fields of DualBipartiteGraph, sized by the header
    edge_fields = ((int, ()), (int, ()), (float, ()), (int, ()))  # src, dst, w, c or via
    within, cross = jsonl.Blocks(*edge_fields), jsonl.Blocks(*edge_fields)
    in_edges = False
    seen = np.zeros(0, dtype=bool)  # per node_id: has its node line been read
    size = os.path.getsize(path)

    def on_meta(meta):
        nonlocal seen
        if meta.get("section") != "nodes":
            raise SchemaError("first line must open the nodes section")
        n, m = int(meta["num_instances"]), int(meta["num_label_nodes"])
        dim, classes = int(meta["feature_dim"]), int(meta["num_classes"])
        if classes < 1:
            raise SchemaError(f"num_classes {classes} below 1")
        if dim < 0:
            raise SchemaError(f"feature_dim {dim} below 0")
        # Every node has a line and every feature value at least one byte,
        # so sizes beyond the file's are rejected before anything is sized.
        if n + m > size or n * dim > size:
            raise SchemaError(
                f"num_instances {n}, num_label_nodes {m} and feature_dim {dim} "
                f"need more than the file's {size} bytes"
            )
        seen = np.zeros(n + m, dtype=bool)
        nodes.update(
            instance_ids=np.zeros(n, dtype=int),
            instance_group=np.zeros(n, dtype=int),
            instance_features=np.zeros((n, dim)),
            label_group=np.zeros(m, dtype=int),
            label_class=np.zeros(m, dtype=int),
            label_slot=np.zeros(m, dtype=int),
            num_classes=classes,
        )

    def mark_seen(node_id):
        if seen[node_id]:
            raise SchemaError(f"duplicate node_id {node_id}")
        seen[node_id] = True

    def on_record(rec):
        nonlocal in_edges
        n, m = len(nodes["instance_ids"]), len(nodes["label_class"])
        if rec.get("section") == "edges":
            in_edges = True
        elif in_edges:
            src, dst = int(rec["src"]), int(rec["dst"]) - n
            if not (0 <= src < n and 0 <= dst < m):
                raise SchemaError("edge endpoint out of range")
            if rec["kind"] not in ("within", "cross"):
                raise SchemaError(f"unknown edge kind {rec['kind']!r}")
            w = float(rec["w"])
            if not math.isfinite(w):
                raise SchemaError(f"non-finite edge weight {w!r}")
            if rec["kind"] == "within":
                count = int(rec["c"])
                if count < 1:
                    raise SchemaError(f"within edge count {count} below 1")
                within.add(src, dst, w, count)
            else:
                via = int(rec["via"])
                if not 0 <= via < n:
                    raise SchemaError(f"cross edge via {via} out of range [0, {n})")
                cross.add(src, dst, w, via)
        elif rec["kind"] == "instance":
            i = int(rec["node_id"])
            feats = np.asarray(rec["features"], dtype=np.float64)
            dim = nodes["instance_features"].shape[1]
            if not 0 <= i < n:
                raise SchemaError("instance node_id out of range")
            if feats.shape != (dim,):
                raise SchemaError(f"features of shape {feats.shape}, expected dimension {dim}")
            if not np.all(np.isfinite(feats)):
                raise SchemaError(f"instance node_id {i} has non-finite features")
            mark_seen(i)
            nodes["instance_ids"][i] = int(rec["instance_id"])
            nodes["instance_group"][i] = int(rec["group_id"])
            nodes["instance_features"][i] = feats
        elif rec["kind"] == "label":
            j = int(rec["node_id"]) - n
            cls = int(rec["class_id"])
            if not 0 <= j < m:
                raise SchemaError("label node_id out of range")
            if not 0 <= cls < nodes["num_classes"]:
                raise SchemaError("class_id out of range")
            mark_seen(n + j)
            nodes["label_group"][j] = int(rec["group_id"])
            nodes["label_class"][j] = cls
            nodes["label_slot"][j] = int(rec["slot"])
        else:
            raise SchemaError(f"unknown node kind {rec['kind']!r}")

    jsonl.read(path, on_meta, on_record)
    if not seen.all():
        raise SchemaError(f"{path}: no node line for node_id {int(np.argmin(seen))}")
    wi, wl, ww, wc = within.arrays()
    xi, xl, xw, xv = cross.arrays()
    return DualBipartiteGraph(
        **nodes,
        within=WithinGraph(inst=wi, lab=wl, weight=ww, count=wc),
        cross=CrossGraph(inst=xi, lab=xl, weight=xw, via=xv),
    )


def graphs_equal(a: DualBipartiteGraph, b: DualBipartiteGraph) -> bool:
    return (
        a.num_classes == b.num_classes
        and np.array_equal(a.instance_ids, b.instance_ids)
        and np.array_equal(a.instance_group, b.instance_group)
        and np.array_equal(a.instance_features, b.instance_features)
        and np.array_equal(a.label_group, b.label_group)
        and np.array_equal(a.label_class, b.label_class)
        and np.array_equal(a.label_slot, b.label_slot)
        and all(
            np.array_equal(getattr(a.within, f), getattr(b.within, f))
            for f in ("inst", "lab", "weight", "count")
        )
        and all(
            np.array_equal(getattr(a.cross, f), getattr(b.cross, f))
            for f in ("inst", "lab", "weight", "via")
        )
    )
