"""Dual-path graph convolution autoencoder over the bipartite graphs.

Encoder: one shared propagation transform per head applied to node
features (an instance's feature row, a label's class one-hot), messages
weighted by the link weight and, optionally, by masked graph attention
normalized per node per path; per-path sums are averaged over heads,
passed through ReLU, concatenated with a transformed raw-feature block and
projected to the embedding width.

Instance rows and label rows stay apart from the kernels to U and V, and
message passing aggregates before it transforms, ``(A·X)·W`` for
``A·(X·W)``: per path and head, one fused ``autodiff.propagate`` sums
coefficient-weighted one-hots into the instances (n x C) and features into
the labels (m x d), whatever ``gcn_hidden`` is, and each side is
multiplied by its rows of the head's W; no per-edge row is put on the
tape.  Attention scores too are taken at the feature width.  A path
(``_Path``) is its kernel, which owns its one edge index, and its link
weights; without attention, ``prepare_graph`` takes each path's ``A·X``
once for every head and epoch.  It picks one of two kernels per path from
the share of instance-label pairs linked: at ``DENSE_BLOCK_MIN_DENSITY``
or above, the dense label x instance block in row chunks
(``DenseBlockPath``); below it, flattened ``np.bincount`` over the edge
list (``SparsePath``).  The choice depends only on the graph, so runs
stay reproducible.  ``train`` runs each epoch in its own call and
``autodiff.backward`` consumes the tape, so one epoch's tape is freed
before the next one is built; the epochs run inside
``runtime.keep_freed_memory``, so glibc keeps that freed memory for the
next epoch instead of returning it to the kernel.

Each epoch's normalization diagnostics (``decode_diagnostics``) run on
the second core where one is free (``runtime.second_core``: two usable
cores, BLAS on one thread), beside the main thread's loss and
``backward``; ``train`` asks it once.  On a graph with a block of more
than one chunk (``kernels.helper_pays``), ``train`` runs one helper thread
(``runtime.helper_thread``): it takes its share of the block's row chunks,
and each epoch it streams the diagnostic decode.  On any other graph, and
where the platform has ``os.fork``, ``train`` forks one diagnostics
worker (``runtime.Worker``) before the first epoch: after each ``encode``
it sends the worker U, V and the Q values, and the worker decodes.  A
thread would not help there, since the decode holds the interpreter lock;
at 800 groups the fork's copy-on-write faults cost more than the worker
saved.  With neither, the main thread decodes after ``backward``.

Decoder: bilinear score per discrete likelihood level, softmax across
levels; the refined link weight is the expectation over levels.  Training
minimizes mean cross-entropy against quantized within-group weights; cross
links are decoded but never contribute to the loss.  The rated edges are
read from the paths' kernels (``PreparedGraph.rated``).
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import jsonl, kernels, runtime
from .autodiff import RowIndex, Tensor
from .errors import ConfigError, ParseError, SchemaError, TrainingError
from .graph import DualBipartiteGraph

ATTENTION_SLOPE = 0.2  # LeakyReLU slope in the attention feed-forward

# The ablation study's models, each removing one component of the full one:
# the cross path, attention (messages weighted by the link weight alone), or
# the dual paths (one within path with uniform averaged weights, no cross).
VARIANTS = ("full", "no_cross", "no_attention", "no_dual")


@dataclass(frozen=True)
class ModelConfig:
    gcn_hidden: int = 1000
    dense_hidden: int = 100
    num_heads: int = 4
    rating_levels: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    epochs: int = 1000
    lr: float = 1e-3
    seed: int = 0
    variant: str = "full"  # one of VARIANTS

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {list(VARIANTS)}")
        if self.gcn_hidden < 1 or self.dense_hidden < 1:
            raise ConfigError("gcn_hidden and dense_hidden must be >= 1")
        if self.num_heads < 1:
            raise ConfigError("num_heads must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        problem = _levels_problem(self.rating_levels)
        if problem:
            raise ConfigError(f"rating_levels {problem}")


def _levels_problem(levels) -> str | None:
    """Why ``levels`` cannot be rating levels, or None: they must be at
    least two, strictly increasing and within [0, 1] (so never NaN)."""
    if len(levels) < 2:
        return "needs at least two levels"
    if not all(0 <= x <= 1 for x in levels):
        return "must lie within [0, 1]"
    if not all(b > a for a, b in zip(levels, levels[1:])):
        return "must be strictly increasing"
    return None


@dataclass
class ModelParams:
    """Named trainable tensors plus the dimensions they were built for."""

    tensors: dict[str, Tensor]
    num_heads: int
    feature_dim: int
    num_classes: int
    gcn_hidden: int
    dense_hidden: int
    rating_levels: tuple[float, ...]

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def grads(self) -> dict[str, np.ndarray]:
        return {name: ad.grad_or_zeros(t) for name, t in self.tensors.items()}


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _param_shapes(config: ModelConfig, feature_dim: int, num_classes: int) -> dict:
    """Name -> shape of every trainable tensor, in initialization order."""
    F = feature_dim + num_classes
    H, E = config.gcn_hidden, config.dense_hidden
    shapes = {}
    for h in range(config.num_heads):
        shapes[f"W.{h}"] = (F, H)
        shapes[f"Wa.{h}"] = (F, H)
        shapes[f"a_self.{h}"] = (H, 1)
        shapes[f"a_neigh.{h}"] = (H, 1)
    shapes["Wf"] = (feature_dim, H)
    shapes["Wn"] = (num_classes, H)
    shapes["b"] = (1, H)
    shapes["Wu"] = (3 * H, E)
    shapes["Wv"] = (3 * H, E)
    for r in range(len(config.rating_levels)):
        shapes[f"Q.{r}"] = (E, E)
    return shapes


def init_params(config: ModelConfig, feature_dim: int, num_classes: int) -> ModelParams:
    """Seeded uniform Glorot initialization, drawn in a fixed name order."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    tensors = {
        name: ad.parameter(_glorot(rng, *shape))
        for name, shape in _param_shapes(config, feature_dim, num_classes).items()
    }
    return ModelParams(
        tensors=tensors,
        num_heads=config.num_heads,
        feature_dim=feature_dim,
        num_classes=num_classes,
        gcn_hidden=config.gcn_hidden,
        dense_hidden=config.dense_hidden,
        rating_levels=tuple(config.rating_levels),
    )


def _check_checkpoint(params: ModelParams, config: ModelConfig, graph: DualBipartiteGraph):
    """Raise TrainingError naming the first field or tensor of ``params`` that
    does not fit ``config`` and ``graph``."""
    expected = {
        "feature_dim": graph.feature_dim,
        "num_classes": graph.num_classes,
        "num_heads": config.num_heads,
        "gcn_hidden": config.gcn_hidden,
        "dense_hidden": config.dense_hidden,
        "rating_levels": tuple(float(x) for x in config.rating_levels),
    }
    for key, want in expected.items():
        got = getattr(params, key)
        if got != want:
            raise TrainingError(f"checkpoint {key} {got} does not match {want}")
    shapes = _param_shapes(config, graph.feature_dim, graph.num_classes)
    for name, shape in shapes.items():
        got = params.tensors[name].shape if name in params.tensors else "missing"
        if got != shape:
            raise TrainingError(f"checkpoint tensor '{name}' is {got}, expected shape {shape}")
    for name in params.tensors:
        if name not in shapes:
            raise TrainingError(f"checkpoint tensor '{name}' is not a tensor of this model")


def quantize_levels(weights: np.ndarray, levels) -> np.ndarray:
    """Nearest-level index; exact midpoints round to the higher level."""
    levels = np.asarray(levels, dtype=np.float64)
    midpoints = (levels[:-1] + levels[1:]) / 2.0
    return np.searchsorted(midpoints, np.asarray(weights, dtype=np.float64), side="right")


# ---------------------------------------------------------------------------
# graph preparation: constant tensors and cached edge index structures
# ---------------------------------------------------------------------------


# Kernel choice per path, from its density: directed edges / (2 * n * m), the
# share of instance-label pairs that are linked.  The dense-block kernel costs
# O(n * m * d) whatever the edge count, the sparse kernel O(edges * d) with a
# larger constant per edge.  Forward plus backward (``messages`` and
# ``coef_grad``) per path and head, 32 features, one BLAS thread, on the
# benchmark seed-0 graphs (2-core Xeon VM):
#   200 groups, within 0.56%: sparse 0.06 ms, dense 0.19 ms
#   200 groups, cross  7.6%:  sparse 0.82 ms, dense 0.23 ms
#   800 groups, within 0.14%: sparse 0.26 ms, dense 3.6 ms
#   800 groups, cross  6.3%:  sparse 11.1 ms, dense 5.3 ms
# Fitting each kernel's time linearly in density puts the crossover at 1.8%
# (200 groups) to 2.5% (800 groups); the threshold sits in that range.
DENSE_BLOCK_MIN_DENSITY = 0.02


@dataclass
class _Path:
    """One path's directed edges: each undirected pair (inst, lab) once as
    ``lab + n -> inst`` and once as ``inst -> lab + n``, in that order.
    The kernel owns their one index, the targets ``[inst | lab + n]``
    (``edges.targets``), whose halves swapped are the sources."""

    edges: kernels.DenseBlockPath | kernels.SparsePath  # propagation kernel
    weight: Tensor  # (E2, 1) constant per directed edge
    weighted: tuple[Tensor, Tensor] | None = None  # both sides of A·X at the link weights


def _path(inst, lab, weight, graph: DualBipartiteGraph) -> _Path:
    """The path of the pairs (inst, lab) at their link weights, with the
    kernel its density picks (``DENSE_BLOCK_MIN_DENSITY``)."""
    n, m = graph.num_instances, graph.num_label_nodes
    targets = RowIndex(np.concatenate([inst, lab + n]))
    dense = n * m > 0 and len(targets) >= DENSE_BLOCK_MIN_DENSITY * 2 * n * m
    kernel = kernels.DenseBlockPath if dense else kernels.SparsePath
    return _Path(
        edges=kernel(targets, graph.instance_features, graph.label_class, graph.num_classes),
        weight=ad.constant(np.concatenate([weight, weight]).reshape(-1, 1)),
    )


@dataclass
class PreparedGraph:
    x: Tensor  # instance features (n x d)
    l: Tensor  # label class one-hots (m x C)
    # Each label's row of a parameter over features then classes: d + its class.
    class_rows: RowIndex
    paths: dict[str, _Path]  # "within" and "cross"
    within_src: RowIndex  # the loss's edges: every within edge
    within_dst: RowIndex
    targets: np.ndarray

    @property
    def rated(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The rated edges' (instance rows, label rows + n), views of the
        paths' target indices (``pairs``): the within pairs, then the cross
        pairs (none if the model leaves them out)."""
        return tuple(self.paths[name].edges.pairs() for name in ("within", "cross"))

    def rated_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(instance, label, "within" or "cross") of every rated edge, built
        only for the final ``RatingMatrix``: the kind column costs 24 bytes an
        edge."""
        (w_inst, w_lab), (x_inst, x_lab) = self.rated
        dst = np.concatenate([w_lab, x_lab])
        dst -= self.x.rows
        return (
            np.concatenate([w_inst, x_inst]),
            dst,
            np.concatenate([np.full(len(w_inst), "within"), np.full(len(x_inst), "cross")]),
        )


def prepare_graph(graph: DualBipartiteGraph, config: ModelConfig) -> PreparedGraph:
    n = graph.num_instances
    w = graph.within
    if config.variant != "no_dual":
        within_weight = w.weight
    else:
        # Single shared path: every candidate link of an instance gets the
        # uniform averaged weight 1 / (number of its candidate links).
        deg = np.bincount(w.inst, minlength=n).astype(float)
        within_weight = 1.0 / deg[w.inst] if len(w.inst) else np.zeros(0)

    include_cross = config.variant not in ("no_cross", "no_dual")
    x, keep = graph.cross, slice(None) if include_cross else slice(0)
    paths = {
        "within": _path(w.inst, w.lab, within_weight, graph),
        "cross": _path(x.inst[keep], x.lab[keep], x.weight[keep], graph),
    }
    if config.variant == "no_attention":
        for path in paths.values():
            path.weighted = ad.propagate(path.weight, path.edges)

    return PreparedGraph(
        x=ad.constant(graph.instance_features),
        l=ad.constant(graph.label_onehot()),
        class_rows=RowIndex(graph.feature_dim + graph.label_class),
        paths=paths,
        within_src=RowIndex(w.inst),
        within_dst=RowIndex(w.lab),
        targets=quantize_levels(within_weight, config.rating_levels),
    )


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


def attention_coefficients(
    prep: PreparedGraph, params: ModelParams, head: int
) -> dict[str, Tensor]:
    """Per-edge attention, softmax-normalized over each node's neighborhood
    separately per path, one fused ``ad.edge_attention`` per path.  Nodes
    with no neighbors on a path contribute no coefficients (empty, never
    NaN).  A node's scores ``(Wa feat)·a`` are taken at the feature width:
    ``Wa·[a_self | a_neigh]`` once, times an instance's features, or at a
    label's class row."""
    a = ad.concat_cols([params[f"a_self.{head}"], params[f"a_neigh.{head}"]])
    scores = ad.matmul(params[f"Wa.{head}"], a)
    s_inst = ad.matmul(prep.x, ad.slice_rows(scores, 0, prep.x.cols))
    s_lab = ad.gather_rows(scores, prep.class_rows)
    return {
        name: ad.edge_attention(s_inst, s_lab, path.edges.targets, ATTENTION_SLOPE)
        for name, path in prep.paths.items()
    }


def propagation_messages(
    prep: PreparedGraph, params: ModelParams, config: ModelConfig, head: int
) -> dict[str, tuple[Tensor, Tensor]]:
    """Per-node message sums of one head, for each path with edges, as
    (instances, labels): node t's row is the sum over t's in-edges of
    (alpha_ij *) w_ij * W feat_src, taken as each side of ``ad.propagate``'s
    ``A·X`` (without attention, the path's ``weighted``) times its W rows."""
    W = params[f"W.{head}"]
    d = prep.x.cols
    W_feature, W_class = ad.slice_rows(W, 0, d), ad.slice_rows(W, d, W.rows)
    attend = config.variant != "no_attention"
    alphas = attention_coefficients(prep, params, head) if attend else None
    sums = {}
    for name, path in prep.paths.items():
        if len(path.edges) == 0:
            continue
        if alphas is None:
            into_inst, into_lab = path.weighted
        else:
            into_inst, into_lab = ad.propagate(alphas[name], path.edges, weight=path.weight.value)
        sums[name] = (ad.matmul(into_inst, W_class), ad.matmul(into_lab, W_feature))
    return sums


def aggregate_paths(
    prep: PreparedGraph, params: ModelParams, config: ModelConfig
) -> dict[str, tuple[Tensor, Tensor]]:
    """Average the per-node message sums over heads and apply ReLU, per path
    and side (instances, labels); a path without edges gives zeros."""
    sums: dict[str, tuple[Tensor, Tensor]] = {}
    for head in range(config.num_heads):
        for name, sides in propagation_messages(prep, params, config, head).items():
            sums[name] = sides if name not in sums else tuple(map(ad.add, sums[name], sides))
    return {
        name: tuple(ad.relu(ad.scale(side, 1.0 / config.num_heads)) for side in sums[name])
        if name in sums
        else tuple(ad.constant(np.zeros((t.rows, params.gcn_hidden))) for t in (prep.x, prep.l))
        for name in prep.paths
    }


def encode(prep: PreparedGraph, params: ModelParams, config: ModelConfig) -> tuple[Tensor, Tensor]:
    """Instance embeddings U and label embeddings V (width dense_hidden)."""
    hidden = aggregate_paths(prep, params, config)
    f = ad.relu(ad.add(ad.matmul(prep.x, params["Wf"]), params["b"]))
    n = ad.relu(ad.add(ad.matmul(prep.l, params["Wn"]), params["b"]))
    u_in = ad.concat_cols([hidden["within"][0], hidden["cross"][0], f])
    v_in = ad.concat_cols([hidden["within"][1], hidden["cross"][1], n])
    return ad.relu(ad.matmul(u_in, params["Wu"])), ad.relu(ad.matmul(v_in, params["Wv"]))


# ---------------------------------------------------------------------------
# decoder and loss
# ---------------------------------------------------------------------------


def decode_logits(
    U: Tensor, V: Tensor, params: ModelParams, src: RowIndex, dst: RowIndex
) -> Tensor:
    """Bilinear score u^T Q_r v per edge per rating level, shape (E, R), on
    the tape: the training loss is taken on these."""
    Ug = ad.gather_rows(U, src)
    Vg = ad.gather_rows(V, dst)
    cols = [
        ad.row_sum(ad.mul(ad.matmul(Ug, params[f"Q.{r}"]), Vg))
        for r in range(len(params.rating_levels))
    ]
    return ad.concat_cols(cols)


def expected_weight(probs: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """The expectation of each row's distribution over ``levels``, clipped
    to the level range."""
    return np.clip(probs @ levels, levels[0], levels[-1])


@dataclass
class RatingMatrix:
    """Per-edge categorical distribution over rating levels.

    ``m_hat``, the refined link weight, is derived: ``expected_weight`` of
    the distributions.
    """

    src: np.ndarray  # instance row
    dst: np.ndarray  # label row
    kind: np.ndarray  # "within" | "cross"
    levels: np.ndarray
    probs: np.ndarray  # (E, R)
    num_instances: int
    m_hat: np.ndarray = field(init=False)  # (E,)

    def __post_init__(self):
        self.m_hat = expected_weight(self.probs, self.levels)

    def __len__(self):
        return len(self.src)


# Edges ``decode`` scores at once; per block it gathers a row of ``U @ Q``
# (levels x dense_hidden values) and one of ``V`` (dense_hidden) per edge.
# On 93,000 edges at 800 groups (dense_hidden 8, one BLAS thread, 2-core
# Xeon VM) 1024 and 2048 edges a block both took 26-28 ms a call, against
# 35-39 ms for the per-level gathers this replaced (4096 edges a block), and
# the tracemalloc peak stayed 6.1-6.2 MiB, mostly the result itself.  With
# 1024 a block holds 0.4 MB, less than the per-level gathers did; with 2048
# the peak RSS of a 200-group run rose by 0.26 MB.
DECODE_BLOCK = 1024


def level_sums(values: np.ndarray) -> np.ndarray:
    """``values.sum(axis=1)`` of an (edges, levels) array, taken level by
    level: one add over a column at a time instead of a reduction per short
    row.  numpy sums rows shorter than 8 from left to right, so for fewer
    than 8 levels these are the same floats."""
    total = values[:, 0].copy()
    for r in range(1, values.shape[1]):
        total += values[:, r]
    return total


def _level_products(U: np.ndarray, params: ModelParams) -> np.ndarray:
    """``U @ [Q_0|…|Q_{R-1}]``, as (instances, levels, dense_hidden)."""
    levels = len(params.rating_levels)
    Q = np.hstack([params[f"Q.{r}"].value for r in range(levels)])
    return (U @ Q).reshape(len(U), levels, -1)


def _softmax_block(UQ: np.ndarray, V: np.ndarray, src, dst, out: np.ndarray):
    """Write the rating distributions of one block of edges into ``out``:
    one ``einsum`` of the gathered rows, then a softmax across levels that
    takes the row maxima and sums level by level."""
    np.einsum("erk,ek->er", UQ[src], V[dst], out=out)
    top = out[:, 0].copy()
    for r in range(1, out.shape[1]):
        np.maximum(top, out[:, r], out=top)
    out -= top[:, None]
    np.exp(out, out=out)
    out /= level_sums(out)[:, None]


def decode_probs(
    U: np.ndarray, V: np.ndarray, params: ModelParams, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """The (edges, levels) rating distributions of the given edges, in plain
    numpy: the bilinear logits of ``decode_logits`` and a softmax across
    levels.

    ``U @ [Q_0|…|Q_{R-1}]`` is taken once; the edges' rows of it and of
    ``V`` are gathered ``DECODE_BLOCK`` edges at a time, and each block's
    distributions are written straight into the preallocated rows."""
    src, dst = np.asarray(src, dtype=int), np.asarray(dst, dtype=int)
    UQ = _level_products(U, params)
    probs = np.empty((len(src), len(params.rating_levels)))
    for lo in range(0, len(src), DECODE_BLOCK):
        block = slice(lo, lo + DECODE_BLOCK)
        _softmax_block(UQ, V, src[block], dst[block], probs[block])
    return probs


def decode_diagnostics(
    U: np.ndarray, V: np.ndarray, params: ModelParams, rated
) -> tuple[float, float, float]:
    """(max |sum_r p - 1|, min m_hat, max m_hat) over the edges of every
    (instance rows, label rows + n) pair in ``rated``, numbered as in a
    path's target index with n the rows of ``U``, decoded one
    ``DECODE_BLOCK`` at a time into one reused block: no (edges, levels)
    array is built.  A row's distribution does not depend on the rows
    decoded beside it, and maxima and minima do not depend on the blocking,
    so these are the floats of ``decode_probs`` over all the edges."""
    levels = np.asarray(params.rating_levels, dtype=np.float64)
    UQ = _level_products(U, params)
    buffer = np.empty((DECODE_BLOCK, len(levels)))
    worst, lowest, highest = 0.0, math.inf, -math.inf
    for src, dst in rated:
        for lo in range(0, len(src), DECODE_BLOCK):
            block = slice(lo, min(lo + DECODE_BLOCK, len(src)))
            probs = buffer[: block.stop - lo]
            _softmax_block(UQ, V, src[block], dst[block] - len(U), probs)
            worst = max(worst, float(np.abs(level_sums(probs) - 1.0).max()))
            m_hat = expected_weight(probs, levels)
            lowest, highest = min(lowest, float(m_hat.min())), max(highest, float(m_hat.max()))
    return worst, lowest, highest


def decode(
    U: np.ndarray,
    V: np.ndarray,
    params: ModelParams,
    src: np.ndarray,
    dst: np.ndarray,
    kind: np.ndarray,
) -> RatingMatrix:
    """Score the given edges (``decode_probs``) as a ``RatingMatrix``."""
    src, dst = np.asarray(src, dtype=int), np.asarray(dst, dtype=int)
    return RatingMatrix(
        src=src,
        dst=dst,
        kind=np.asarray(kind),
        levels=np.asarray(params.rating_levels, dtype=np.float64),
        probs=decode_probs(U, V, params, src, dst),
        num_instances=len(U),
    )


def reconstruction_loss(logits_within: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log probability of the quantized target level over all
    observed within edges."""
    if logits_within.rows == 0:
        raise TrainingError("reconstruction loss needs at least one observed within edge")
    return ad.mean_all(ad.cross_entropy(logits_within, targets))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _diagnostics_worker(prep: PreparedGraph, params: ModelParams, levels: list[str]):
    """A forked worker (``runtime.Worker``) that calls ``decode_diagnostics``
    on each epoch's U, V and ``levels``' Q values."""

    def diagnose(U, V, *Q):
        for name, value in zip(levels, Q):
            params[name].value = value  # the worker's own copy of the tensor
        return decode_diagnostics(U, V, params, prep.rated)

    E = params.dense_hidden
    shapes = [(prep.x.rows, E), (prep.l.rows, E), *[(E, E)] * len(levels)]
    return runtime.Worker(diagnose, shapes)


@dataclass
class TrainResult:
    params: ModelParams
    ratings: RatingMatrix
    loss_trace: np.ndarray
    prob_sum_err: np.ndarray  # per epoch: max |sum_r p - 1| over decoded edges
    mhat_min: np.ndarray
    mhat_max: np.ndarray


def train(
    graph: DualBipartiteGraph,
    config: ModelConfig,
    initial_params: ModelParams | None = None,
) -> TrainResult:
    """Full-graph gradient descent with Adam for ``config.epochs`` epochs.

    Deterministic given the config seed; returns final parameters, decoded
    ratings for every within and cross edge, the per-epoch loss trace and
    per-epoch decoder-normalization diagnostics.  Pass ``initial_params``
    (e.g. a loaded checkpoint) to resume training instead of reinitializing.
    """
    from .optim import AdamState, adam_step

    config.validate()
    prep = prepare_graph(graph, config)
    if len(prep.within_src) == 0:
        raise TrainingError("graph has no observed within edges")
    if initial_params is not None:
        _check_checkpoint(initial_params, config, graph)
        params = initial_params
    else:
        params = init_params(config, graph.feature_dim, graph.num_classes)
    state = AdamState.for_params(params.tensors, lr=config.lr)

    loss_trace = np.zeros(config.epochs)
    prob_sum_err = np.zeros(config.epochs)
    mhat_min = np.zeros(config.epochs)
    mhat_max = np.zeros(config.epochs)
    levels = [f"Q.{r}" for r in range(len(params.rating_levels))]

    def step(epoch: int, worker: runtime.Worker | None):
        """One epoch; its tape is local, consumed by ``backward`` and gone on
        return, so no two epochs' tapes are ever alive at once.

        The diagnostics stream the rated edges' decode (no rating array is
        built).  With a worker, U, V and the Q values go to it before the
        loss, and it decodes while this thread takes the loss and runs
        ``backward``.  Without one, the helper starts on the decode while
        this thread does so, and this thread decodes after ``backward`` if
        the helper has not started (or there is none).  The loss and
        ``backward`` write only the tape and gradients, so U, V and the
        parameters the decode reads stay as they were until Adam."""
        U, V = encode(prep, params, config)

        def loss_and_backward():
            loss = reconstruction_loss(
                decode_logits(U, V, params, prep.within_src, prep.within_dst), prep.targets
            )
            value = float(loss.value[0, 0])
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}"
                    + (f", last finite loss {loss_trace[epoch - 1]:.6f}" if epoch else "")
                )
            loss_trace[epoch] = value
            ad.backward(loss)

        if worker is not None:
            worker.send([U.value, V.value, *(params[name].value for name in levels)])
            loss_and_backward()
            found = [worker.receive()]
        else:
            found = []
            runtime.share(
                lambda _: found.append(decode_diagnostics(U.value, V.value, params, prep.rated)),
                1,
                meanwhile=loss_and_backward,
            )
        prob_sum_err[epoch], mhat_min[epoch], mhat_max[epoch] = found[0]

        try:
            adam_step(params.tensors, params.grads(), state)
        except TrainingError as exc:
            raise TrainingError(f"epoch {epoch}: {exc}") from exc
        ad.zero_grads(params.tensors.values())

    # The second core takes the helper thread where a block has row chunks
    # to share, and else, where the platform forks, the diagnostics worker.
    second = runtime.second_core()
    helper = second and kernels.helper_pays(p.edges for p in prep.paths.values())
    fork = second and not helper and hasattr(os, "fork")
    with runtime.keep_freed_memory(), (
        _diagnostics_worker(prep, params, levels) if fork else nullcontext()
    ) as worker:
        with runtime.helper_thread() if helper else nullcontext():
            for epoch in range(config.epochs):
                step(epoch, worker)
            U, V = encode(prep, params, config)

    ratings = decode(U.value, V.value, params, *prep.rated_edges())
    return TrainResult(
        params=params,
        ratings=ratings,
        loss_trace=loss_trace,
        prob_sum_err=prob_sum_err,
        mhat_min=mhat_min,
        mhat_max=mhat_max,
    )


# ---------------------------------------------------------------------------
# checkpoint and ratings files
# ---------------------------------------------------------------------------

_CHECKPOINT_VERSION = 1


def save_params(params: ModelParams, path):
    """Write the checkpoint: the compact JSON of ``{"version", "meta",
    "tensors": {name: {"shape", "data"}}}``.  Each tensor's record is
    encoded whole by ``json.dumps`` (``json.dump`` streams through the
    pure-Python encoder, 1.7 times as slow), one tensor at a time, so only
    one tensor's floats and text are alive at once."""
    meta = {
        "num_heads": params.num_heads,
        "feature_dim": params.feature_dim,
        "num_classes": params.num_classes,
        "gcn_hidden": params.gcn_hidden,
        "dense_hidden": params.dense_hidden,
        "rating_levels": list(params.rating_levels),
    }
    head = json.dumps({"version": _CHECKPOINT_VERSION, "meta": meta}, separators=(",", ":"))
    with jsonl.atomic_open(path) as fh:
        fh.write(head[:-1] + ',"tensors":{')
        for k, (name, t) in enumerate(params.tensors.items()):
            record = {"shape": list(t.value.shape), "data": t.value.ravel().tolist()}
            fh.write(("," if k else "") + json.dumps(name) + ":")
            fh.write(json.dumps(record, separators=(",", ":")))
        fh.write("}}")


def _json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer, else a SchemaError naming ``field``:
    ``int()`` would take 2.9 as 2 and true as 1."""
    if type(value) is not int:
        raise SchemaError(f"{field} {value!r} is not an integer")
    return value


def load_params(path) -> ModelParams:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    where = "checkpoint"
    try:
        if payload.get("version") != _CHECKPOINT_VERSION:
            raise SchemaError(f"{path}: unsupported checkpoint version {payload.get('version')}")
        meta, records = payload["meta"], payload["tensors"]
        where = "meta"
        dims = {
            key: _json_int(meta[key], f"{path}: meta '{key}'")
            for key in ("num_heads", "feature_dim", "num_classes", "gcn_hidden", "dense_hidden")
        }
        rating_levels = tuple(float(x) for x in meta["rating_levels"])
        where = "tensors"
        tensors = {}
        for name, rec in records.items():
            where = f"tensor '{name}'"
            shape = tuple(_json_int(x, f"{path}: {where} shape entry") for x in rec["shape"])
            data = np.asarray(rec["data"], dtype=np.float64)
            if len(shape) != 2 or data.shape != (shape[0] * shape[1],):
                raise SchemaError(f"{path}: {where} data does not match shape {shape}")
            if not np.all(np.isfinite(data)):
                raise SchemaError(f"{path}: {where} holds a non-finite value")
            tensors[name] = ad.parameter(data.reshape(shape))
    except KeyError as exc:
        raise SchemaError(f"{path}: {where} has no field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {where}: {exc!r}") from exc
    return ModelParams(tensors=tensors, rating_levels=rating_levels, **dims)


def ratings_file(ratings: RatingMatrix) -> tuple[dict, list]:
    """The header and the parts ``save_ratings`` hands to ``jsonl.write``."""
    header = {"levels": ratings.levels.tolist(), "num_instances": ratings.num_instances}
    table = {
        "src": ratings.src,
        "dst": ratings.dst + ratings.num_instances,
        "kind": ratings.kind,
        "p": ratings.probs,
    }
    return header, [jsonl.Columns(table)]


def save_ratings(ratings: RatingMatrix, path):
    header, parts = ratings_file(ratings)
    jsonl.write(path, header, *parts)


def save_loss_trace(result: TrainResult, path):
    """Per-epoch CSV: loss and the decoder-normalization diagnostics."""
    with jsonl.atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "prob_sum_err", "m_hat_min", "m_hat_max"])
        for e in range(len(result.loss_trace)):
            writer.writerow(
                [
                    e,
                    f"{result.loss_trace[e]:.10g}",
                    f"{result.prob_sum_err[e]:.3e}",
                    f"{result.mhat_min[e]:.6g}",
                    f"{result.mhat_max[e]:.6g}",
                ]
            )


def load_ratings(path) -> RatingMatrix:
    header: dict = {}
    levels: list[float] = []
    rows = None  # src, dst, kind and p per rating

    def on_header(obj):
        nonlocal rows
        header["levels"] = np.asarray([float(x) for x in obj["levels"]])
        problem = _levels_problem(header["levels"])
        if problem:
            raise SchemaError(f"levels {header['levels'].tolist()} {problem}")
        header["num_instances"] = int(obj["num_instances"])
        levels.extend(header["levels"].tolist())
        rows = jsonl.Blocks((int, ()), (int, ()), (str, ()), (float, (len(levels),)))

    def on_record(rec):
        p = [float(x) for x in rec["p"]]
        if len(p) != len(levels):
            raise SchemaError(f"'p' has {len(p)} entries for {len(levels)} levels")
        for x in p:
            if not 0.0 <= x <= 1.0:  # NaN fails too
                raise SchemaError(f"'p' entry {x!r} outside [0, 1]")
        if rec["kind"] not in ("within", "cross"):
            raise SchemaError(f"unknown rating kind {rec['kind']!r}")
        src, dst = int(rec["src"]), int(rec["dst"]) - header["num_instances"]
        if not (0 <= src < header["num_instances"] and dst >= 0):
            raise SchemaError("rating endpoint out of range")
        rows.add(src, dst, rec["kind"], p)

    jsonl.read(path, on_header, on_record)
    src, dst, kind, probs = rows.arrays()
    return RatingMatrix(src=src, dst=dst, kind=kind, probs=probs, **header)


def ratings_equal(a: RatingMatrix, b: RatingMatrix) -> bool:
    return (
        a.num_instances == b.num_instances
        and np.array_equal(a.src, b.src)
        and np.array_equal(a.dst, b.dst)
        and np.array_equal(a.kind, b.kind)
        and np.array_equal(a.levels, b.levels)
        and np.array_equal(a.probs, b.probs)
    )
