"""Turning refined link weights into per-instance label decisions.

Instance label pooling accumulates thresholded refined weights per class:
within links contribute max(0, m_hat - tau) directly; cross links are first
scaled by the cosine similarity between the instance and the homogeneous
neighbor that induced the link.  An instance with no positive class score
(or no links at all) is predicted null.

Two clustering baselines share the same prediction record: cluster voting
(majority class over the label multisets of all groups a feature cluster
touches, with the config's ``graph.eps`` and ``graph.min_pts``) and pair
clustering (largest co-occurrence count among the instance's own candidate
links).  Every method reads the built graph, and every method's scores
become predictions through ``_predictions``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsonl
from .data import NULL_CLASS
from .errors import SchemaError
from .graph import DualBipartiteGraph, dbscan
from .model import RatingMatrix

POOL_THRESHOLD = 0.5


@dataclass(frozen=True)
class Prediction:
    instance_id: int
    predicted_class: int  # NULL_CLASS when nothing scores positive
    scores: dict[int, float]


def _predictions(instance_ids: list[int], scores: np.ndarray) -> list[Prediction]:
    """One prediction per row of the (instances, classes) ``scores``: the
    lowest class id among the row's maxima, or null when no score is
    positive, and the positive scores by ascending class id."""
    n, c = scores.shape
    if c:
        best = np.where(scores.max(axis=1) > 0.0, scores.argmax(axis=1), NULL_CLASS).tolist()
    else:
        best = [NULL_CLASS] * n
    rows, classes = np.nonzero(scores > 0.0)  # row by row, classes ascending
    values = scores[rows, classes].tolist()
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    classes = classes.tolist()
    return [
        Prediction(
            instance_id=instance_id,
            predicted_class=cls,
            scores=dict(zip(classes[lo:hi], values[lo:hi])),
        )
        for instance_id, cls, lo, hi in zip(instance_ids, best, bounds, bounds[1:])
    ]


def pool_labels(
    ratings: RatingMatrix, graph: DualBipartiteGraph, tau: float = POOL_THRESHOLD
) -> list[Prediction]:
    """Per-instance class pooling over refined link weights, with the cross
    links' cosine similarity taken over the raw instance features."""
    n, m = graph.num_instances, graph.num_label_nodes
    if ratings.num_instances != n:
        raise SchemaError(f"ratings cover {ratings.num_instances} instances, the graph has {n}")
    if len(ratings) and (
        min(ratings.src.min(), ratings.dst.min()) < 0
        or ratings.src.max() >= n
        or ratings.dst.max() >= m
    ):
        raise SchemaError(f"ratings reach rows outside the graph's {n} instances and {m} labels")

    src, dst = ratings.src.astype(int), ratings.dst.astype(int)
    value = ratings.m_hat.astype(np.float64)
    cross = np.flatnonzero(ratings.kind == "cross")
    if len(cross):
        # the donor of each cross rating's graph edge; a repeated edge keeps
        # its last ``via``
        keys = graph.cross.inst.astype(int) * m + graph.cross.lab
        by_key = np.argsort(keys, kind="stable")
        wanted = src[cross] * m + dst[cross]
        pos = np.searchsorted(keys[by_key], wanted, side="right") - 1
        found = pos >= 0
        found[found] = keys[by_key[pos[found]]] == wanted[found]
        if not found.all():
            k = cross[np.argmin(found)]
            raise SchemaError(f"cross rating ({src[k]}, {dst[k]}) has no matching graph edge")
        via = graph.cross.via[by_key[pos]]
        inst = src[cross]
        vectors = graph.instance_features
        # row dots by matmul, which rounds like the 1-D ``a @ b`` per row;
        # a block of rows at a time, so no gathered copy of every rating's
        # feature rows is alive at once
        dots = np.empty(len(cross))
        for start in range(0, len(cross), jsonl.ROW_BLOCK):
            rows = slice(start, start + jsonl.ROW_BLOCK)
            a, b = vectors[inst[rows]], vectors[via[rows]]
            dots[rows] = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
        norms = np.linalg.norm(vectors, axis=1)
        denom = norms[inst] * norms[via]
        cosine = np.zeros(len(cross))
        np.divide(dots, denom, out=cosine, where=denom > 0)
        value[cross] *= cosine
    contribution = value - tau
    contribution = np.where(contribution > 0.0, contribution, 0.0)  # max(0, ·), NaN to 0
    # summed in rating order, as a per-rating ``+=`` would
    c = graph.num_classes
    cell = src * c + graph.label_class[dst]
    scores = np.bincount(cell, weights=contribution, minlength=n * c).reshape(n, c)
    return _predictions(graph.instance_ids.tolist(), scores)


# ---------------------------------------------------------------------------
# clustering baselines
# ---------------------------------------------------------------------------


def baseline_cluster_voting(
    graph: DualBipartiteGraph, eps: float = 1.0, min_pts: int = 2
) -> list[Prediction]:
    """DBSCAN over instance features; majority vote over the label multisets
    of every group the cluster touches.  Noise instances vote over their own
    group only; empty pools predict null; ties take the lowest class id."""
    n = graph.num_instances
    if n == 0:
        return []
    cluster = dbscan(graph.instance_features, eps=eps, min_pts=min_pts).labels

    # group ids as dense rows (a loaded graph's ids may be any integers)
    groups, group_row = np.unique(
        np.concatenate([graph.instance_group, graph.label_group]), return_inverse=True
    )
    own_group, label_group = group_row[:n], group_row[n:]
    c, num_groups = graph.num_classes, len(groups)
    group_votes = np.bincount(
        label_group * c + graph.label_class, minlength=num_groups * c
    ).reshape(num_groups, c).astype(float)

    # each (cluster, group) pair once: a cluster's pool is the set of its groups
    # (sorted by hand: ``np.unique`` without an inverse imports ``numpy.ma``)
    clustered = cluster >= 0
    pairs = np.sort(cluster[clustered] * num_groups + own_group[clustered])
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    cluster_votes = np.zeros((cluster.max() + 1, c))
    np.add.at(cluster_votes, pairs // num_groups, group_votes[pairs % num_groups])

    votes = group_votes[own_group]
    votes[clustered] = cluster_votes[cluster[clustered]]
    return _predictions(graph.instance_ids.tolist(), votes)


def baseline_pair_clustering(graph: DualBipartiteGraph) -> list[Prediction]:
    """Score each (instance, class) by the largest co-occurrence cluster size
    among the instance's candidate links of that class (the graph's
    within-edge counts, each at least 1); ties take the lowest class id; no
    links predict null."""
    scores = np.zeros((graph.num_instances, graph.num_classes))
    links = graph.within
    np.maximum.at(scores, (links.inst, graph.label_class[links.lab]), links.count)
    return _predictions(graph.instance_ids.tolist(), scores)


# ---------------------------------------------------------------------------
# predictions file (JSON Lines with a method header)
# ---------------------------------------------------------------------------


def save_predictions(predictions: list[Prediction], method: str, path):
    """One line per prediction: ``{"instance_id", "predicted_class",
    "scores": {"class id": score}}`` with the scores by ascending class id,
    as ``json.dumps`` of each record with compact separators.  Every score
    of the file is formatted in one ``jsonl._floats`` call."""
    scores = [sorted(pred.scores.items()) for pred in predictions]
    text = iter(jsonl._floats(np.array([s for row in scores for _, s in row], dtype=np.float64)))
    lines = [
        '{"instance_id":%d,"predicted_class":%d,"scores":{%s}}'
        % (pred.instance_id, pred.predicted_class, ",".join(f'"{c}":{next(text)}' for c, _ in row))
        for pred, row in zip(predictions, scores)
    ]
    blocks = (lines[k : k + jsonl.ROW_BLOCK] for k in range(0, len(lines), jsonl.ROW_BLOCK))
    jsonl.write(path, {"method": method}, blocks)


def load_predictions(path) -> tuple[str, list[Prediction]]:
    header: dict = {}
    predictions: list[Prediction] = []

    def on_header(obj):
        header["method"] = str(obj["method"])

    seen: set[int] = set()

    def on_record(rec):
        instance_id = int(rec["instance_id"])
        if instance_id in seen:
            raise SchemaError(f"duplicate instance_id {instance_id}")
        seen.add(instance_id)
        predictions.append(
            Prediction(
                instance_id=instance_id,
                predicted_class=int(rec["predicted_class"]),
                scores={int(c): float(s) for c, s in rec["scores"].items()},
            )
        )

    jsonl.read(path, on_header, on_record)
    return header["method"], predictions
