"""Independent reference implementations used as test oracles.

These deliberately take different algorithmic routes from the library:
density clustering via explicit core-graph connected components, link
weights via literal contradictory-link enumeration, message passing via a
per-edge loop.  The per-record JSON writer, the cross-link double loop,
the per-rating pooling loop, the per-link count loop, the per-link
pair-clustering score loop, the per-instance prediction and vote loops, the
per-pair metric counts and the whole-block dense products are the
library's earlier implementations, kept as the references its
whole-column and row-chunk versions must match exactly; so are the
LeakyReLU and segment-softmax ops of the attention chain that the fused
``edge_attention`` replaced, and the ``mul``, ``scale`` and ``row_sum`` ops
of the heads' aggregation and level decoder chains that the fused
``head_mean_relu`` and ``bilinear_logits`` replaced.  The hidden-width
message passing, which transformed the features before it propagated
them, is the reference the feature-width ``propagate`` must match to
rounding, and the encoder over one zero-padded node table the reference
of the two-sided one.  The
gradient checker, with the kink recorder it needs, serves the tests only
and lives here too.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from dbgae import autodiff as ad
from dbgae.data import NULL_CLASS, class_ambiguity_ratios, class_frequencies
from dbgae.errors import DimensionError, SchemaError
from dbgae.evaluation import AMBIGUITY_BINS, FREQUENCY_EDGES, BinMetric
from dbgae.graph import dbscan
from dbgae.inference import Prediction
from dbgae.model import ATTENTION_SLOPE


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
    """A path's propagation with whole blocks, as the hidden-width dense
    kernel took it: the instance<-label (n x m) and label<-instance (m x n)
    coefficient blocks, each one ``np.bincount`` over its edges in list
    order, applied to the rows ``x`` with one matmul each; with
    ``transpose``, their transposes."""
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


def hidden_width_reference(feats, W, coef, src, dst, n: int, m: int, g):
    """Message passing as the encoder took it before it aggregated the
    features first: transform every node's features, ``T = feats @ W``, then
    propagate ``T`` at the hidden width with whole dense blocks
    (``dense_blocks_reference``), ``A·(X·W)``.

    For an upstream gradient ``g`` of the output, the coefficients' gradient
    is the per-edge row dot ``<g[dst_e], T[src_e]>`` and ``W``'s gradient
    ``feats.T @ (A^T g)``.  Returns (output, coefficients' gradient, W's
    gradient)."""
    T = feats @ W
    out = dense_blocks_reference(coef, T, src, dst, n, m)
    grad_coef = np.einsum("ek,ek->e", g[dst], T[src])
    grad_W = feats.T @ dense_blocks_reference(coef, g, src, dst, n, m, transpose=True)
    return out, grad_coef, grad_W


def encode_reference(graph, prep, params, config) -> tuple:
    """The encoder as it was before instance rows and label rows were kept
    apart, on the tape: one zero-padded node table ``X`` of rows ``[x | 0]``
    over ``[0 | onehot]``; per head, attention scores from the projection
    ``X·Wa`` and the unfused ``attention_chain``, and each path's messages
    ``(A·X)·W`` with ``A·X`` scattered by a per-edge incidence matrix; the
    heads' mean through ReLU per path, then the instance and label rows
    taken back out with ``gather_rows``.  The edges and weights are
    ``prep``'s paths: each kernel's targets, and as sources the targets
    with their halves swapped (``swap_halves``).  Returns (U, V)."""
    n, m = graph.num_instances, graph.num_label_nodes
    d, H = graph.feature_dim, params.gcn_hidden
    feats = np.zeros((n + m, d + graph.num_classes))
    feats[:n, :d] = graph.instance_features
    feats[n:, d:] = graph.label_onehot()
    X = ad.constant(feats)
    sums = {}
    for head in range(config.num_heads):
        A = ad.matmul(X, params[f"Wa.{head}"])
        s_self = ad.matmul(A, params[f"a_self.{head}"])
        s_neigh = ad.matmul(A, params[f"a_neigh.{head}"])
        for name, path in prep.paths.items():
            dst = path.edges.targets.idx
            if len(dst) == 0:
                continue
            src = swap_halves(dst)
            if config.variant == "no_attention":
                coef = path.weight
            else:
                alpha = attention_chain(s_self, s_neigh, dst, src, ATTENTION_SLOPE)
                coef = mul(alpha, path.weight)
            incidence = np.zeros((n + m, len(dst)))
            incidence[dst, np.arange(len(dst))] = 1.0
            sent = mul(ad.gather_rows(X, src), coef)
            messages = ad.matmul(ad.constant(incidence), sent)
            out = ad.matmul(messages, params[f"W.{head}"])
            sums[name] = out if name not in sums else ad.add(sums[name], out)
    hidden = {
        name: ad.relu(scale(sums[name], 1.0 / config.num_heads))
        if name in sums
        else ad.constant(np.zeros((n + m, H)))
        for name in prep.paths
    }
    within, cross = hidden["within"], hidden["cross"]
    inst, lab = np.arange(n), np.arange(n, n + m)
    f = ad.relu(ad.add(ad.matmul(ad.constant(graph.instance_features), params["Wf"]), params["b"]))
    c = ad.relu(ad.add(ad.matmul(ad.constant(graph.label_onehot()), params["Wn"]), params["b"]))
    u_in = ad.concat_cols([ad.gather_rows(within, inst), ad.gather_rows(cross, inst), f])
    v_in = ad.concat_cols([ad.gather_rows(within, lab), ad.gather_rows(cross, lab), c])
    return ad.relu(ad.matmul(u_in, params["Wu"])), ad.relu(ad.matmul(v_in, params["Wv"]))


def label_block_reference(coef, x, inst, lab, m: int, g=None) -> np.ndarray:
    """``DenseBlockPath``'s label side with the whole block: the label x
    instance block ``R`` (m x n), one ``np.bincount`` over the edges into
    labels in list order, applied to ``x`` with one matmul (``R·x``); with
    ``g`` (m x d), the edge dots ``<g[lab_e], x[inst_e]>`` read from the
    whole product ``x @ g.T``.

    The chunked kernel must give these floats: a chunk holds its rows of the
    block and of ``R·x`` and its columns of the edge-dot product, and all
    rows are one chunk."""
    n = len(x)
    if g is not None:
        return (x @ g.T).ravel()[inst * m + lab]
    return np.bincount(lab * n + inst, weights=coef, minlength=m * n).reshape(m, n) @ x


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


def save_predictions_reference(predictions, method: str, path) -> None:
    """Predictions writer oracle: one ``json.dumps`` per record, the scores
    keyed by class id as a string, by ascending class id."""
    records = (
        {
            "instance_id": pred.instance_id,
            "predicted_class": pred.predicted_class,
            "scores": {str(c): float(s) for c, s in sorted(pred.scores.items())},
        }
        for pred in predictions
    )
    write_records_reference(path, {"method": method}, records)


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


# The library's earlier elementwise ops, on the tape like any op: the
# unfused chains below, the reference encoder and the tests build on them.


def mul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    ad._broadcast_ok(a, b, "mul")
    av, bv = a.value, b.value

    def bwd(g):
        ad._accum(a, ad._unbroadcast(g * bv, a.shape))
        ad._accum(b, ad._unbroadcast(g * av, b.shape))

    return ad._result(av * bv, (a, b), bwd, "mul")


def scale(a: ad.Tensor, s: float) -> ad.Tensor:
    s = float(s)

    def bwd(g):
        ad._accum(a, g * s)

    return ad._result(a.value * s, (a,), bwd, "scale")


def row_sum(a: ad.Tensor) -> ad.Tensor:
    shape = a.shape

    def bwd(g):
        ad._accum(a, np.broadcast_to(g, shape))

    return ad._result(a.value.sum(axis=1, keepdims=True), (a,), bwd, "row_sum")


# The unfused chains that ``autodiff.head_mean_relu`` and
# ``autodiff.bilinear_logits`` must equal bit for bit: the encoder's and the
# decoder's chains of ops as they were before each was fused.


def head_mean_relu_chain(pairs) -> ad.Tensor:
    """A ``matmul`` per head, their sum by ``add`` in head order, ``scale``
    by ``1/heads``, then ReLU."""
    total = None
    for A, W in pairs:
        product = ad.matmul(A, W)
        total = product if total is None else ad.add(total, product)
    return ad.relu(scale(total, 1.0 / len(pairs)))


def bilinear_logits_chain(U, V, Q, src, dst) -> ad.Tensor:
    """Gather both rows, then per level ``row_sum(mul(matmul(Ug, Q_r),
    Vg))``, and the levels' columns side by side."""
    Ug, Vg = ad.gather_rows(U, src), ad.gather_rows(V, dst)
    return ad.concat_cols([row_sum(mul(ad.matmul(Ug, q), Vg)) for q in Q])


# The unfused attention chain that ``autodiff.edge_attention`` must equal bit
# for bit: the library's earlier LeakyReLU and segment-softmax ops, on the
# tape like any op.


def leaky_relu(a: ad.Tensor, slope: float = 0.2) -> ad.Tensor:
    mask = a.value > 0.0
    _record_kink_signs(mask)

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


def swap_halves(targets):
    """A path's sources: its targets with the two halves swapped."""
    half = len(targets) // 2
    return np.concatenate([targets[half:], targets[:half]])


def attention_chain(s_dst, s_src, dst, src, slope):
    """Gather both score columns, add, LeakyReLU, softmax per target.  For a
    path, ``dst`` is its target list and ``src`` that list's ``swap_halves``,
    each indexing the rows of both sides stacked."""
    e = leaky_relu(ad.add(ad.gather_rows(s_dst, dst), ad.gather_rows(s_src, src)), slope)
    return segment_softmax(e, dst)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

_kink_signs: list[np.ndarray] | None = None  # masks of the evaluation being recorded


def _record_kink_signs(mask: np.ndarray):
    if _kink_signs is not None:
        _kink_signs.append(mask)


@contextmanager
def record_kink_signs():
    """Collect, in call order, the sign mask of every ``ad.relu``,
    ``ad.head_mean_relu``, ``ad.edge_attention`` and oracle ``leaky_relu``
    call evaluated inside.

    The three ``ad`` ops are wrapped for the body and restored on exit; a
    wrapper takes its op's mask from the op's inputs with the op's own
    comparison, after the op has run (so the op's own errors come first)."""
    global _kink_signs
    relu, head_mean_relu, edge_attention = ad.relu, ad.head_mean_relu, ad.edge_attention

    def recorded_relu(a):
        out = relu(a)
        _record_kink_signs(a.value > 0.0)
        return out

    def recorded_head_mean_relu(pairs):
        out = head_mean_relu(pairs)
        total = pairs[0][0].value @ pairs[0][1].value
        for A, W in pairs[1:]:
            total += A.value @ W.value
        _record_kink_signs(total * (1.0 / len(pairs)) > 0.0)
        return out

    def recorded_edge_attention(s_inst, s_lab, targets, slope):
        out = edge_attention(s_inst, s_lab, targets, slope)
        dst = ad._as_rowindex(targets).idx
        scores = np.concatenate([s_inst.value, s_lab.value])
        _record_kink_signs(scores[dst, 0] + scores[swap_halves(dst), 1] > 0.0)
        return out

    _kink_signs = []
    ad.relu, ad.head_mean_relu = recorded_relu, recorded_head_mean_relu
    ad.edge_attention = recorded_edge_attention
    try:
        yield _kink_signs
    finally:
        ad.relu, ad.head_mean_relu, ad.edge_attention = relu, head_mean_relu, edge_attention
        _kink_signs = None


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
    params: dict[str, ad.Tensor],
    step: float = 1e-4,
    samples_per_param: int = 64,
    seed: int = 0,
) -> GradCheckReport:
    """Central finite differences vs analytic gradients on sampled coordinates.

    ``loss_fn`` must rebuild the computation from the current parameter
    values and return the scalar loss tensor.  Coordinates whose +/- step
    evaluations cross a ReLU-family kink (``record_kink_signs``) are
    excluded from the report.  Relative error is |a - n| / max(|a|, |n|, 1e-8).
    """
    rng = np.random.default_rng(seed)
    ad.zero_grads(params.values())
    loss = loss_fn()
    ad.backward(loss)
    analytic = {name: ad.grad_or_zeros(p).copy() for name, p in params.items()}
    ad.zero_grads(params.values())

    def eval_with_signs():
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
            up, signs_up = eval_with_signs()
            flat[c] = original - step
            down, signs_down = eval_with_signs()
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
