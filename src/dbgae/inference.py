"""Turning refined link weights into per-instance label decisions.

Instance label pooling accumulates thresholded refined weights per class:
within links contribute max(0, m_hat - tau) directly; cross links are first
scaled by the cosine similarity between the instance and the homogeneous
neighbor that induced the link.  An instance with no positive class score
(or no links at all) is predicted null.

Two clustering baselines share the same prediction record: cluster voting
(majority class over the label multisets of all groups a feature cluster
touches) and pair clustering (largest co-occurrence count among the
instance's own candidate links, read from the built graph).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsonl
from .data import NULL_CLASS, GpllDataset
from .errors import SchemaError
from .graph import DualBipartiteGraph, dbscan
from .model import RatingMatrix

POOL_THRESHOLD = 0.5


@dataclass(frozen=True)
class Prediction:
    instance_id: int
    predicted_class: int  # NULL_CLASS when nothing scores positive
    scores: dict[int, float]


def _argmax_class(scores: np.ndarray) -> int:
    """Lowest class id among maxima; null when nothing is positive."""
    if scores.size == 0 or scores.max() <= 0.0:
        return NULL_CLASS
    return int(np.argmax(scores))


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

    predictions = []
    for i in range(graph.num_instances):
        cls = _argmax_class(scores[i])
        nz = {int(c): float(s) for c, s in enumerate(scores[i]) if s > 0}
        predictions.append(
            Prediction(instance_id=int(graph.instance_ids[i]), predicted_class=cls, scores=nz)
        )
    return predictions


# ---------------------------------------------------------------------------
# clustering baselines
# ---------------------------------------------------------------------------


def baseline_cluster_voting(
    ds: GpllDataset, eps: float = 1.0, min_pts: int = 2
) -> list[Prediction]:
    """DBSCAN over instance features; majority vote over the label multisets
    of every group the cluster touches.  Noise instances vote over their own
    group only; empty pools predict null; ties take the lowest class id."""
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

    predictions = []
    for inst, cid in zip(instances, assignment.labels):
        votes = cluster_votes[int(cid)] if cid >= 0 else group_votes[inst.group_id]
        cls = _argmax_class(votes)
        nz = {int(c): float(v) for c, v in enumerate(votes) if v > 0}
        predictions.append(
            Prediction(instance_id=inst.instance_id, predicted_class=cls, scores=nz)
        )
    return predictions


def baseline_pair_clustering(graph: DualBipartiteGraph) -> list[Prediction]:
    """Pick each instance's candidate link with the largest co-occurrence
    cluster size (the graph's within-edge counts); ties take the lowest label
    class id; no links predict null."""
    links = graph.within
    link_class = graph.label_class[links.lab]
    # One row per (instance, class) with the largest count of its links:
    # sorted by instance, then class, the first row of each run.
    order = np.lexsort((-links.count, link_class, links.inst))
    inst, cls, count = links.inst[order], link_class[order], links.count[order]
    top = (np.diff(inst, prepend=-1) != 0) | (np.diff(cls, prepend=-1) != 0)
    inst, cls, count = inst[top], cls[top], count[top].astype(float)
    # Per instance (a run of rows): the lowest class of the largest count.
    starts = np.flatnonzero(np.diff(inst, prepend=-1))
    best = np.lexsort((cls, -count, inst))[starts]
    ends = np.append(starts[1:], len(inst)).tolist()
    classes, counts = cls.tolist(), count.tolist()
    best_class = dict(zip(inst[starts].tolist(), cls[best].tolist()))
    best_scores = {
        row: dict(zip(classes[lo:hi], counts[lo:hi]))
        for row, lo, hi in zip(inst[starts].tolist(), starts.tolist(), ends)
    }

    predictions = []
    for row, instance_id in enumerate(graph.instance_ids.tolist()):
        predictions.append(
            Prediction(
                instance_id=instance_id,
                predicted_class=best_class.get(row, NULL_CLASS),
                scores=best_scores.get(row, {}),
            )
        )
    return predictions


# ---------------------------------------------------------------------------
# predictions file (JSON Lines with a method header)
# ---------------------------------------------------------------------------


def save_predictions(predictions: list[Prediction], method: str, path):
    records = (
        {
            "instance_id": pred.instance_id,
            "predicted_class": pred.predicted_class,
            "scores": {str(c): float(s) for c, s in sorted(pred.scores.items())},
        }
        for pred in predictions
    )
    jsonl.write(path, {"method": method}, jsonl.records(records))


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
