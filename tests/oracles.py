"""Independent reference implementations used as test oracles.

These deliberately take different algorithmic routes from the library:
density clustering via explicit core-graph connected components, link
weights via literal contradictory-link enumeration, message passing via a
per-edge loop.
"""

from __future__ import annotations

import numpy as np


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
