"""Independent reference implementations used as test oracles.

These deliberately take different algorithmic routes from the library:
density clustering via explicit core-graph connected components, link
weights via literal contradictory-link enumeration, message passing via a
per-edge loop.  The per-record JSON writer, the cross-link double loop,
the per-rating pooling loop, the per-link count loop, the per-link
pair-clustering score loop, the per-instance prediction and vote loops, the
per-pair metric counts and the whole-block dense product are the
library's earlier implementations, kept as the references its
whole-column and row-chunk versions must match exactly; so are the LeakyReLU and segment-softmax ops of the attention chain that the
fused ``edge_attention`` replaced.
"""

from __future__ import annotations

import json

import numpy as np

from dbgae import autodiff as ad
from dbgae.data import NULL_CLASS, class_ambiguity_ratios, class_frequencies
from dbgae.errors import DimensionError, SchemaError
from dbgae.evaluation import AMBIGUITY_BINS, FREQUENCY_EDGES, BinMetric
from dbgae.graph import dbscan
from dbgae.inference import Prediction


def dbscan_reference(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """O(n^2) density clustering oracle.

    Core points: at least min_pts points (self included) within eps.
    Clusters: connected components of the core-core closeness graph,
    numbered by ascending smallest core index (matching scan order).
    Border points join the lowest-numbered cluster with a core within eps;
    everything else is noise (-1).
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    labels = np.full(n, -1, dtype=int)
    if n == 0:
        return labels
    close = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            close[i, j] = np.linalg.norm(points[i] - points[j]) <= eps
    core = close.sum(axis=1) >= min_pts

    # connected components over core points
    comp = {}
    next_comp = {}
    cluster_of_core = np.full(n, -1, dtype=int)
    cluster = 0
    for i in range(n):
        if not core[i] or cluster_of_core[i] != -1:
            continue
        frontier = [i]
        cluster_of_core[i] = cluster
        while frontier:
            u = frontier.pop()
            for v in range(n):
                if core[v] and close[u, v] and cluster_of_core[v] == -1:
                    cluster_of_core[v] = cluster
                    frontier.append(v)
        cluster += 1

    labels[core] = cluster_of_core[core]
    for i in range(n):
        if core[i]:
            continue
        reachable = [cluster_of_core[j] for j in range(n) if core[j] and close[i, j]]
        if reachable:
            labels[i] = min(reachable)
    return labels


def link_tables_reference(ds) -> tuple[dict[int, int], dict[int, int]]:
    """Link-count oracle via a loop over every within-group (instance, label)
    pair: (correct links per class, wrong links touching each class)."""
    s_t: dict[int, int] = {}
    s_f: dict[int, int] = {}
    for group in ds.groups:
        for inst in group.instances:
            ic = inst.true_class
            for lab in group.labels:
                if ic == lab.class_id:
                    s_t[ic] = s_t.get(ic, 0) + 1
                else:
                    s_f[ic] = s_f.get(ic, 0) + 1
                    s_f[lab.class_id] = s_f.get(lab.class_id, 0) + 1
    return s_t, s_f


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Equality of clusterings up to relabeling; noise (-1) must match exactly."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if not np.array_equal(a == -1, b == -1):
        return False
    forward, backward = {}, {}
    for x, y in zip(a, b):
        if x == -1:
            continue
        if forward.setdefault(x, y) != y or backward.setdefault(y, x) != x:
            return False
    return True


def within_weights_reference(
    inst: np.ndarray, lab: np.ndarray, count: np.ndarray
) -> np.ndarray:
    """Weight oracle via literal contradictory-link enumeration.

    A contradictory link shares exactly one endpoint; the weight divides a
    link's count by the summed counts of itself and its contradictory set.
    """
    n = len(inst)
    weights = np.zeros(n)
    for k in range(n):
        contradictory = 0.0
        for other in range(n):
            if other == k:
                continue
            shares_inst = inst[other] == inst[k]
            shares_lab = lab[other] == lab[k]
            if shares_inst != shares_lab:
                contradictory += count[other]
        weights[k] = count[k] / (count[k] + contradictory)
    return weights


def softmax_reference(values: np.ndarray) -> np.ndarray:
    e = np.exp(values - values.max())
    return e / e.sum()


def propagate_reference(
    t: np.ndarray, coef: np.ndarray, src: np.ndarray, dst: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Message passing oracle via an explicit loop over edges.

    Returns the forward ``out[dst_e] += coef_e * t[src_e]`` and, for an
    upstream gradient ``g`` of ``out``, the gradients for ``t`` and ``coef``.
    """
    out = np.zeros_like(t)
    grad_t = np.zeros_like(t)
    grad_coef = np.zeros(len(src))
    for e in range(len(src)):
        s, d = src[e], dst[e]
        for k in range(t.shape[1]):
            out[d, k] += coef[e] * t[s, k]
            grad_t[s, k] += coef[e] * g[d, k]
            grad_coef[e] += g[d, k] * t[s, k]
    return out, grad_t, grad_coef


def dense_blocks_reference(coef, x, src, dst, n: int, m: int, transpose=False) -> np.ndarray:
    """``DenseBlockPath``'s product with whole blocks: the left<-right
    (n x m) and right<-left (m x n) coefficient blocks, each one
    ``np.bincount`` over its edges in list order, applied to ``x`` with one
    matmul each; with ``transpose``, their transposes.

    The chunked kernel must give these floats: a chunk holds its rows of the
    block, and a whole side is one chunk."""
    into_left = dst < n
    left = np.bincount(
        dst[into_left] * m + (src[into_left] - n), weights=coef[into_left], minlength=n * m
    ).reshape(n, m)
    right = np.bincount(
        (dst[~into_left] - n) * n + src[~into_left], weights=coef[~into_left], minlength=m * n
    ).reshape(m, n)
    if transpose:
        return np.concatenate([right.T @ x[n:], left.T @ x[:n]])
    return np.concatenate([left @ x[n:], right @ x[:n]])


def decode_probs_reference(U, V, Q, src, dst) -> np.ndarray:
    """Decoder oracle: per level ``r``, the row dots of ``(U @ Q[r])[src]``
    with ``V[dst]``, then a row softmax, in the decoder's order of operations."""
    logits = np.stack([np.einsum("ek,ek->e", (U @ q)[src], V[dst]) for q in Q], axis=1)
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def write_records_reference(path, header: dict, records) -> None:
    """JSON Lines writer oracle: ``json.dumps`` per record, compact separators."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def graph_records(graph):
    """The graph file's records after its header, one dict per line."""
    offset = graph.num_instances
    instances = zip(
        graph.instance_ids.tolist(),
        graph.instance_group.tolist(),
        graph.instance_features.tolist(),
    )
    for i, (iid, g, x) in enumerate(instances):
        yield {"node_id": i, "kind": "instance", "instance_id": iid, "group_id": g, "features": x}
    labels = zip(graph.label_group.tolist(), graph.label_class.tolist(), graph.label_slot.tolist())
    for j, (g, c, s) in enumerate(labels):
        yield {"node_id": offset + j, "kind": "label", "group_id": g, "class_id": c, "slot": s}
    yield {"section": "edges"}
    w, x = graph.within, graph.cross
    for src, dst, weight, c in zip(
        w.inst.tolist(), (w.lab + offset).tolist(), w.weight.tolist(), w.count.tolist()
    ):
        yield {"src": src, "dst": dst, "w": weight, "kind": "within", "c": c}
    for src, dst, weight, via in zip(
        x.inst.tolist(), (x.lab + offset).tolist(), x.weight.tolist(), x.via.tolist()
    ):
        yield {"src": src, "dst": dst, "w": weight, "kind": "cross", "via": via}


def ratings_records(ratings):
    """The ratings file's records after its header, one dict per line."""
    columns = zip(
        ratings.src.tolist(),
        (ratings.dst + ratings.num_instances).tolist(),
        ratings.kind.tolist(),
        ratings.probs.tolist(),
    )
    for src, dst, kind, p in columns:
        yield {"src": src, "dst": dst, "kind": kind, "p": p}


def table_records(table: dict) -> list[dict]:
    """The rows of a ``{key: array}`` table as dicts of ``tolist()`` values."""
    values = {key: np.asarray(col).tolist() for key, col in table.items()}
    rows = len(next(iter(values.values()))) if values else 0
    return [{key: col[r] for key, col in values.items()} for r in range(rows)]


def cross_links_reference(within, neighbors):
    """Cross-link oracle via a double loop over (instance, donor) pairs.

    Returns ``(inst, lab, weight, via)`` in the library's order.
    """
    n = len(neighbors)
    edges_by_inst = [np.zeros(0, dtype=int) for _ in range(n)]
    if len(within.inst):
        order = np.argsort(within.inst, kind="stable")
        bounds = np.searchsorted(within.inst[order], np.arange(n + 1))
        for i in range(n):
            edges_by_inst[i] = order[bounds[i] : bounds[i + 1]]

    inst_parts, lab_parts, w_parts, via_parts = [], [], [], []
    for i in range(n):
        for j in neighbors[i]:
            eids = edges_by_inst[j]
            if len(eids) == 0:
                continue
            inst_parts.append(np.full(len(eids), i, dtype=int))
            lab_parts.append(within.lab[eids])
            w_parts.append(within.weight[eids])
            via_parts.append(np.full(len(eids), j, dtype=int))
    if not inst_parts:
        empty = np.zeros(0, dtype=int)
        return empty, empty.copy(), np.zeros(0), empty.copy()

    inst = np.concatenate(inst_parts)
    lab = np.concatenate(lab_parts)
    weight = np.concatenate(w_parts)
    via = np.concatenate(via_parts)
    order = np.lexsort((via, -weight, lab, inst))
    inst, lab, weight, via = inst[order], lab[order], weight[order], via[order]
    first = np.ones(len(inst), dtype=bool)
    first[1:] = (inst[1:] != inst[:-1]) | (lab[1:] != lab[:-1])
    return inst[first], lab[first], weight[first], via[first]


def pool_labels_reference(ratings, graph, tau: float) -> list:
    """Pooling oracle via a loop over ratings with a dict of cross-edge donors.

    Raises ``SchemaError`` naming the first cross rating without a graph edge.
    """
    via_by_edge = {
        (int(i), int(j)): int(v)
        for i, j, v in zip(graph.cross.inst, graph.cross.lab, graph.cross.via)
    }
    vectors = graph.instance_features
    norms = np.linalg.norm(vectors, axis=1)
    scores = np.zeros((graph.num_instances, graph.num_classes))
    for k in range(len(ratings)):
        i, j = int(ratings.src[k]), int(ratings.dst[k])
        value = float(ratings.m_hat[k])
        if ratings.kind[k] == "cross":
            if (i, j) not in via_by_edge:
                raise SchemaError(f"cross rating ({i}, {j}) has no matching graph edge")
            v = via_by_edge[(i, j)]
            denom = norms[i] * norms[v]
            cosine = float(vectors[i] @ vectors[v] / denom) if denom > 0 else 0.0
            value = value * cosine
        scores[i, graph.label_class[j]] += max(0.0, value - tau)

    predictions = []
    for i in range(graph.num_instances):
        positive = scores[i].size and scores[i].max() > 0.0
        predictions.append(
            Prediction(
                instance_id=int(graph.instance_ids[i]),
                predicted_class=int(np.argmax(scores[i])) if positive else NULL_CLASS,
                scores={int(c): float(s) for c, s in enumerate(scores[i]) if s > 0},
            )
        )
    return predictions


def predictions_reference(instance_ids, scores: np.ndarray) -> list:
    """Prediction oracle via a loop over the rows of an (instances, classes)
    score matrix: the lowest class id among a row's maxima, null when
    nothing is positive."""
    predictions = []
    for i, instance_id in enumerate(instance_ids):
        row = scores[i]
        cls = NULL_CLASS if row.size == 0 or row.max() <= 0.0 else int(np.argmax(row))
        nz = {int(c): float(s) for c, s in enumerate(scores[i]) if s > 0}
        predictions.append(Prediction(instance_id=instance_id, predicted_class=cls, scores=nz))
    return predictions


def cluster_voting_reference(ds, eps: float, min_pts: int) -> list:
    """Cluster-voting oracle: a vote vector per group and per cluster, summed
    over each cluster's set of groups, and one vote vector per instance."""
    instances = list(ds.iter_instances())
    if not instances:
        return []
    features = np.stack([inst.features for inst in instances])
    assignment = dbscan(features, eps=eps, min_pts=min_pts)

    group_votes: dict[int, np.ndarray] = {}
    for group in ds.groups:
        votes = np.zeros(ds.num_classes)
        for lab in group.labels:
            votes[lab.class_id] += 1
        group_votes[group.group_id] = votes

    cluster_groups: dict[int, set[int]] = {}
    for inst, cid in zip(instances, assignment.labels):
        if cid >= 0:
            cluster_groups.setdefault(int(cid), set()).add(inst.group_id)
    cluster_votes = {
        cid: sum((group_votes[g] for g in groups), np.zeros(ds.num_classes))
        for cid, groups in cluster_groups.items()
    }
    votes = [
        cluster_votes[int(cid)] if cid >= 0 else group_votes[inst.group_id]
        for inst, cid in zip(instances, assignment.labels)
    ]
    return predictions_reference([inst.instance_id for inst in instances], votes)


def accuracy_f1_reference(pairs: list[tuple[int, int]]) -> tuple[float, float, dict[int, float]]:
    """(accuracy, macro_f1, per-class f1) over (truth, predicted) pairs, each
    count taken by a generator over the pairs."""
    if not pairs:
        return 0.0, 0.0, {}
    correct = sum(1 for t, p in pairs if t == p)
    classes = sorted({t for t, _ in pairs})
    per_class = {}
    for c in classes:
        tp = sum(1 for t, p in pairs if t == c and p == c)
        fp = sum(1 for t, p in pairs if t != c and p == c)
        fn = sum(1 for t, p in pairs if t == c and p != c)
        per_class[c] = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    macro = float(np.mean(list(per_class.values())))
    return correct / len(pairs), macro, per_class


def bins_reference(predictions, ds) -> tuple[list, list]:
    """(ambiguity bins, frequency bins) of ``evaluate``, each bin's members
    gathered by a list comprehension over the (truth, predicted) pairs."""
    truth = {inst.instance_id: inst.true_class for inst in ds.iter_instances()}
    pairs = [(truth[p.instance_id], p.predicted_class) for p in predictions]
    ratios = class_ambiguity_ratios(ds)
    edges = np.linspace(0.0, 1.0, AMBIGUITY_BINS + 1)
    ambiguity_bins = []
    for b in range(AMBIGUITY_BINS):
        lo, hi = float(edges[b]), float(edges[b + 1])
        last = b == AMBIGUITY_BINS - 1
        members = [
            (t, p)
            for (t, p) in pairs
            if lo <= ratios.get(t, 0.0) and (ratios.get(t, 0.0) < hi or last)
        ]
        acc, f1, _ = accuracy_f1_reference(members)
        ambiguity_bins.append(BinMetric(low=lo, high=hi, count=len(members), accuracy=acc, f1=f1))
    freq = {**class_frequencies(ds), NULL_CLASS: 0}
    lo_edge, hi_edge = FREQUENCY_EDGES
    frequency_bins = []
    for lo, hi in [(0, lo_edge), (lo_edge + 1, hi_edge), (hi_edge + 1, np.inf)]:
        members = [(t, p) for (t, p) in pairs if lo <= freq[t] <= hi]
        acc, f1, _ = accuracy_f1_reference(members)
        frequency_bins.append(
            BinMetric(
                low=float(lo), high=float(min(hi, 10**9)), count=len(members), accuracy=acc, f1=f1
            )
        )
    return ambiguity_bins, frequency_bins


def pair_clustering_reference(graph) -> list:
    """Pair-clustering oracle: a lexsort for each instance's best link and a
    loop over the links for each (instance, class) score."""
    links = graph.within
    best_class = {}
    best_scores: dict[int, dict[int, float]] = {}
    if len(links.inst):
        link_class = graph.label_class[links.lab]
        order = np.lexsort((link_class, -links.count, links.inst))
        inst_sorted = links.inst[order]
        firsts = np.ones(len(order), dtype=bool)
        firsts[1:] = inst_sorted[1:] != inst_sorted[:-1]
        for pos in np.flatnonzero(firsts):
            best_class[int(inst_sorted[pos])] = int(link_class[order[pos]])
        for row in range(len(links.inst)):
            per = best_scores.setdefault(int(links.inst[row]), {})
            c = int(link_class[row])
            per[c] = max(per.get(c, 0.0), float(links.count[row]))
    return [
        Prediction(
            instance_id=instance_id,
            predicted_class=best_class.get(row, NULL_CLASS),
            scores=best_scores.get(row, {}),
        )
        for row, instance_id in enumerate(graph.instance_ids.tolist())
    ]


# The unfused attention chain that ``autodiff.edge_attention`` must equal bit
# for bit: the library's earlier LeakyReLU and segment-softmax ops, on the
# tape like any op.


def leaky_relu(a: ad.Tensor, slope: float = 0.2) -> ad.Tensor:
    mask = a.value > 0.0
    ad._trace_signs(mask)

    def bwd(g):
        ad._accum(a, g * np.where(mask, 1.0, slope))

    return ad._result(np.where(mask, a.value, slope * a.value), (a,), bwd, "leaky_relu")


def segment_softmax(a: ad.Tensor, idx) -> ad.Tensor:
    """Softmax of a column vector within segments given by ``idx``.

    Each row of ``a`` belongs to segment ``idx[row]``; probabilities are
    normalized over rows sharing a segment.
    """
    ri = ad._as_rowindex(idx)
    if a.cols != 1:
        raise DimensionError(f"segment_softmax: expected a column vector, got {a.shape}")
    if len(ri) != a.rows:
        raise DimensionError(f"segment_softmax: {len(ri)} indices for {a.rows} rows")
    v = a.value[:, 0]
    if len(ri) == 0:
        return ad._result(a.value.copy(), (a,), lambda g: None, "segment_softmax")
    seg_max = ri.segment_reduce(v, np.maximum)
    e = np.exp(v - seg_max[ri.segment_of])
    seg_sum = ri.segment_reduce(e, np.add)
    out = (e / seg_sum[ri.segment_of]).reshape(-1, 1)

    def bwd(g):
        gs = g[:, 0]
        s = out[:, 0]
        inner = ri.segment_reduce(s * gs, np.add)
        ad._accum(a, (s * (gs - inner[ri.segment_of])).reshape(-1, 1))

    return ad._result(out, (a,), bwd, "segment_softmax")


def attention_chain(s_dst, s_src, dst, src, slope):
    """Gather both score columns, add, LeakyReLU, softmax per target."""
    e = leaky_relu(ad.add(ad.gather_rows(s_dst, dst), ad.gather_rows(s_src, src)), slope)
    return segment_softmax(e, dst)
