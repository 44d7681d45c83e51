import math
import tracemalloc
import types
from contextlib import contextmanager, nullcontext
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgae import autodiff as ad
from dbgae import kernels, runtime
from dbgae.errors import ConfigError, TrainingError
from dbgae.graph import CrossGraph, DualBipartiteGraph, WithinGraph
from dbgae.model import (
    VARIANTS,
    ModelConfig,
    aggregate_paths,
    attention_coefficients,
    decode_logits,
    encode,
    init_params,
    load_params,
    load_ratings,
    prepare_graph,
    propagation_messages,
    quantize_levels,
    ratings_equal,
    reconstruction_loss,
    save_params,
    save_ratings,
    train,
)
from oracles import encode_reference, grad_check, record_kink_signs


def make_graph(
    inst_feats,
    inst_group,
    label_class,
    label_group,
    within=(),
    cross=(),
    num_classes=None,
):
    inst_feats = np.asarray(inst_feats, dtype=np.float64)
    n = len(inst_feats)
    num_classes = num_classes or (max(label_class) + 1 if len(label_class) else 1)
    if within:
        wi, wl, ww, wc = (np.asarray(x) for x in zip(*within))
    else:
        wi = wl = wc = np.zeros(0, dtype=int)
        ww = np.zeros(0)
    if cross:
        xi, xl, xw, xv = (np.asarray(x) for x in zip(*cross))
    else:
        xi = xl = xv = np.zeros(0, dtype=int)
        xw = np.zeros(0)
    return DualBipartiteGraph(
        instance_ids=np.arange(n),
        instance_group=np.asarray(inst_group, dtype=int),
        instance_features=inst_feats,
        label_group=np.asarray(label_group, dtype=int),
        label_class=np.asarray(label_class, dtype=int),
        label_slot=np.arange(len(label_class)),
        num_classes=num_classes,
        within=WithinGraph(
            inst=wi.astype(int),
            lab=wl.astype(int),
            weight=ww.astype(float),
            count=wc.astype(int),
        ),
        cross=CrossGraph(
            inst=xi.astype(int), lab=xl.astype(int), weight=xw.astype(float), via=xv.astype(int)
        ),
    )


def tiny_graph(w=1.0):
    return make_graph(
        inst_feats=[[0.4, -0.2]],
        inst_group=[0],
        label_class=[0],
        label_group=[0],
        within=[(0, 0, w, 1)],
        num_classes=2,
    )


def small_config(**overrides):
    defaults = dict(
        gcn_hidden=6, dense_hidden=4, num_heads=1, epochs=5, lr=0.01, seed=0
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def benchmark_run(groups, epochs):
    """The benchmark graph (seed 0) at ``groups`` groups and the benchmark
    model at ``epochs`` epochs."""
    from dataclasses import replace

    from dbgae.benchmark import (
        benchmark_generator_config,
        benchmark_graph_config,
        benchmark_model_config,
    )
    from dbgae.data import generate_synthetic
    from dbgae.graph import build_dual_graph

    gc = benchmark_graph_config()
    generator = replace(benchmark_generator_config(0), num_groups=groups)
    graph = build_dual_graph(
        generate_synthetic(generator), eps=gc.eps, min_pts=gc.min_pts, threshold=gc.threshold
    )
    return graph, replace(benchmark_model_config(0), epochs=epochs)


def second_core(monkeypatch, on: bool):
    """Let ``train`` fork its diagnostics worker (two cores, one BLAS thread)
    or not (one core)."""
    monkeypatch.setattr(runtime, "usable_cores", lambda: 2 if on else 1)
    monkeypatch.setattr(runtime, "blas_threads", lambda: 1)


class Boom(Exception):
    """An error of the tests' own; at module scope, so pickle can carry it
    back from the diagnostics worker."""


def assert_same_training(a, b):
    """Bit-identical loss traces, diagnostics, ratings and parameters."""
    for field in ("loss_trace", "prob_sum_err", "mhat_min", "mhat_max"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert ratings_equal(a.ratings, b.ratings)
    for name, t in a.params.tensors.items():
        assert np.array_equal(t.value, b.params[name].value), name


class TestModelConfig:
    def test_default_hyperparameters(self):
        cfg = ModelConfig()
        assert cfg.gcn_hidden == 1000
        assert cfg.dense_hidden == 100
        assert cfg.epochs == 1000
        assert cfg.lr == pytest.approx(1e-3)
        assert cfg.rating_levels == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_rejects_non_increasing_levels(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            ModelConfig(rating_levels=(0.0, 0.5, 0.5, 1.0)).validate()

    def test_rejects_levels_outside_unit_interval(self):
        with pytest.raises(ConfigError, match="within"):
            ModelConfig(rating_levels=(0.0, 1.5)).validate()
        with pytest.raises(ConfigError, match="within"):
            ModelConfig(rating_levels=(0.0, float("nan"), 1.0)).validate()

    def test_variants(self):
        assert ModelConfig().variant == "full"
        for name in VARIANTS:
            ModelConfig(variant=name).validate()
        with pytest.raises(ConfigError, match="unknown variant 'bogus'"):
            ModelConfig(variant="bogus").validate()


class TestQuantize:
    def test_nearest_level(self):
        levels = (0.0, 0.25, 0.5, 0.75, 1.0)
        assert quantize_levels(np.array([0.6]), levels)[0] == 2  # 0.5
        assert quantize_levels(np.array([0.1]), levels)[0] == 0
        assert quantize_levels(np.array([1.0]), levels)[0] == 4

    def test_midpoint_rounds_up(self):
        levels = (0.0, 0.25, 0.5, 0.75, 1.0)
        assert quantize_levels(np.array([0.625]), levels)[0] == 3  # 0.75
        assert quantize_levels(np.array([0.125]), levels)[0] == 1


class TestPropagation:
    def test_single_edge_identity_transform_passes_feature(self):
        # attention off, w=1, W=I: a node's message sum is its neighbor's feature
        graph = tiny_graph(w=1.0)
        cfg = small_config(gcn_hidden=4, variant="no_attention")  # 4 = d + C
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        params["W.0"].value = np.eye(4)
        inst, lab = propagation_messages(prep, params, cfg, head=0)["within"]
        assert inst.shape == (1, 4) and lab.shape == (1, 4)
        # the instance receives the label one-hot, through W's class rows
        np.testing.assert_allclose(inst.value[0], [0.0, 0.0, 1.0, 0.0])
        # the label receives the instance features, through W's feature rows
        np.testing.assert_allclose(lab.value[0], [0.4, -0.2, 0.0, 0.0])

    def test_half_weight_scales_message(self):
        graph = tiny_graph(w=0.5)
        cfg = small_config(gcn_hidden=4, variant="no_attention")
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        params["W.0"].value = np.eye(4)
        inst, _ = propagation_messages(prep, params, cfg, head=0)["within"]
        np.testing.assert_allclose(inst.value[0], [0.0, 0.0, 0.5, 0.0])

    def test_messages_from_two_neighbors_add_up(self):
        graph = make_graph(
            inst_feats=[[0.4, -0.2]],
            inst_group=[0],
            label_class=[0, 1],
            label_group=[0, 0],
            within=[(0, 0, 0.5, 1), (0, 1, 0.25, 1)],
            num_classes=2,
        )
        cfg = small_config(gcn_hidden=4, variant="no_attention")
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        params["W.0"].value = np.eye(4)
        inst, lab = propagation_messages(prep, params, cfg, head=0)["within"]
        np.testing.assert_allclose(inst.value[0], [0.0, 0.0, 0.5, 0.25])
        np.testing.assert_allclose(lab.value[0], [0.2, -0.1, 0.0, 0.0])
        np.testing.assert_allclose(lab.value[1], [0.1, -0.05, 0.0, 0.0])

    def test_path_without_edges_has_no_message_sums(self):
        graph = tiny_graph()
        cfg = small_config()
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        assert set(propagation_messages(prep, params, cfg, head=0)) == {"within"}

    def test_no_cross_edges_give_zero_cross_block(self):
        graph = tiny_graph()
        cfg = small_config(variant="no_attention")
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        for side in aggregate_paths(prep, params, cfg)["cross"]:
            np.testing.assert_array_equal(side.value, 0.0)

    def test_no_edge_by_width_value_on_the_tape(self):
        graph = make_graph(
            inst_feats=[[0.2, 0.8, 0.1], [-0.5, 0.1, 0.0], [0.3, 0.3, -0.4]],
            inst_group=[0, 1, 2],
            label_class=[0, 1, 1],
            label_group=[0, 1, 2],
            within=[(0, 0, 1.0, 1), (1, 1, 0.5, 1), (2, 2, 0.5, 1), (2, 1, 0.5, 1)],
            cross=[(0, 1, 0.5, 1), (1, 0, 0.7, 0)],
            num_classes=2,
        )
        cfg = small_config(gcn_hidden=7, num_heads=2, rating_levels=(0.0, 0.25, 0.75, 1.0))
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        U, V = encode(prep, params, cfg)
        loss = reconstruction_loss(
            decode_logits(U, V, params, prep.within_src, prep.within_dst), prep.targets
        )
        # No per-edge row at the hidden width, nor at the feature widths that
        # ``propagate`` works at (3 features and 2 classes), per directed
        # edge or per pair.  Four rating levels keep the logits (4 x 4) apart.
        # No row per node of both kinds either: no padded node table, nor
        # its messages or hidden rows.
        n, m = graph.num_instances, graph.num_label_nodes
        forbidden = {(len(path.edges), cfg.gcn_hidden) for path in prep.paths.values()} | {
            (edges, width)
            for path in prep.paths.values()
            for edges in (len(path.edges), len(path.edges) // 2)
            for width in (3, 3 + 2)
        }
        forbidden |= {(n + m, 3 + 2), (n + m, cfg.gcn_hidden)}
        assert {(8, 7), (4, 7), (8, 5), (4, 3), (2, 5), (6, 5), (6, 7)} <= forbidden
        shapes, stack, seen = [], [loss], {id(loss)}
        while stack:
            node = stack.pop()
            shapes.append(node.shape)
            for parent in node.parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert [shape for shape in forbidden if shape in shapes] == []
        # Each side's messages, at its feature width, and hidden rows.
        assert {(n, 2), (m, 3), (n, cfg.gcn_hidden), (m, cfg.gcn_hidden)} <= set(shapes)

    def test_no_coefficient_block_reachable_from_a_propagate_closure(self):
        graph = make_graph(
            inst_feats=[[0.2, 0.8, 0.1], [-0.5, 0.1, 0.0], [0.3, 0.3, -0.4]],
            inst_group=[0, 1, 2],
            label_class=[0, 1, 1, 0],
            label_group=[0, 1, 2, 2],
            within=[(0, 0, 1.0, 1), (1, 1, 0.5, 1), (2, 2, 0.5, 1), (2, 3, 0.5, 1)],
            cross=[(0, 1, 0.5, 1), (1, 0, 0.7, 0), (2, 0, 0.7, 0)],
            num_classes=2,
        )
        cfg = small_config(gcn_hidden=7, num_heads=2)
        prep = prepare_graph(graph, cfg)
        assert isinstance(prep.paths["cross"].edges, kernels.DenseBlockPath)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        U, V = encode(prep, params, cfg)
        blocks = {(3, 4), (4, 3)}  # n x m and m x n: a block, or its edge-dot product
        closures, shapes = [], set()
        stack, seen = [U, V], set()
        while stack:
            node = stack.pop()
            if node.op == "propagate":
                closures.append(node.backward_fn)
            for parent in node.parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert len(closures) == 2 * 2 * cfg.num_heads  # per path and side
        # Everything a closure reaches: its cells, the tensors in them with
        # their values, inputs and closures, and the kernel's fields.
        stack, seen = [cell.cell_contents for f in closures for cell in f.__closure__], set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                shapes.add(obj.shape)
                stack.append(obj.base)
            elif isinstance(obj, ad.Tensor):
                stack.extend([obj.value, obj.grad, obj.backward_fn, *obj.parents])
            elif isinstance(obj, types.MethodType):
                stack.extend([obj.__self__, obj.__func__])
            elif callable(obj) and getattr(obj, "__closure__", None):
                stack.extend(cell.cell_contents for cell in obj.__closure__)
            elif isinstance(obj, (tuple, list)):
                stack.extend(obj)
            elif isinstance(obj, dict):
                stack.extend(obj.values())
            elif isinstance(obj, (kernels.DenseBlockPath, kernels.SparsePath)):
                stack.extend(vars(obj).values())
        assert (3, 3) in shapes  # the kernel's instance features were reached
        assert (3 + 2, cfg.gcn_hidden) in shapes  # and the attention parameters
        assert shapes & blocks == set()

    def test_benchmark_graph_picks_dense_cross_and_sparse_within(self):
        from dbgae.benchmark import (
            benchmark_generator_config,
            benchmark_graph_config,
            benchmark_model_config,
        )
        from dbgae.data import generate_synthetic
        from dbgae.graph import build_dual_graph

        gc = benchmark_graph_config()
        graph = build_dual_graph(
            generate_synthetic(benchmark_generator_config(0)),
            eps=gc.eps,
            min_pts=gc.min_pts,
            threshold=gc.threshold,
        )
        prep = prepare_graph(graph, benchmark_model_config(0))
        assert isinstance(prep.paths["cross"].edges, kernels.DenseBlockPath)
        assert isinstance(prep.paths["within"].edges, kernels.SparsePath)


def lines_of(fn) -> range:
    """The source lines of ``fn`` as it was loaded, read from its code
    objects: the file on disk may have been edited since the import."""

    def last(code):
        lines = [line for _, _, line in code.co_lines() if line is not None]
        lines += [last(c) for c in code.co_consts if isinstance(c, types.CodeType)]
        return max(lines, default=code.co_firstlineno)

    return range(fn.__code__.co_firstlineno, last(fn.__code__) + 1)


def random_graph(n, m, within_pairs, cross_pairs, seed=0, d=4, num_classes=3):
    """Distinct random (instance, label) pairs, the first ``within_pairs`` of
    them within edges and the rest cross edges."""
    rng = np.random.default_rng(seed)
    pairs = rng.choice(n * m, size=within_pairs + cross_pairs, replace=False)
    inst, lab = pairs // m, pairs % m
    w, x = slice(0, within_pairs), slice(within_pairs, None)
    return make_graph(
        inst_feats=rng.standard_normal((n, d)),
        inst_group=np.arange(n),
        label_class=rng.integers(0, num_classes, size=m),
        label_group=np.arange(m),
        within=list(zip(inst[w], lab[w], rng.random(within_pairs), np.ones(within_pairs, int))),
        cross=list(zip(inst[x], lab[x], rng.random(cross_pairs), np.zeros(cross_pairs, int))),
        num_classes=num_classes,
    )


class TestPreparedGraph:
    @pytest.mark.parametrize(
        "n, m, within, cross, kernel",
        [(60, 50, 200, 1500, kernels.DenseBlockPath), (400, 300, 300, 1500, kernels.SparsePath)],
    )
    def test_keeps_six_words_a_directed_edge(self, n, m, within, cross, kernel):
        graph = random_graph(n, m, within, cross)
        tracemalloc.start()
        try:
            prep = prepare_graph(graph, small_config())
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert isinstance(prep.paths["cross"].edges, kernel)
        d, C = graph.feature_dim, graph.num_classes
        # Per directed edge: its target row, sort position and segment id,
        # its weight, and the kernel's block position or source row, with a
        # word to spare; the rated pairs are views of the target rows.
        edges = 6 * 8 * 2 * (within + cross)
        # Per within edge, the loss's: sort position and segment id of each
        # end, and the target level.
        loss = 5 * 8 * within
        # Per node: features and label one-hot, the labels' class rows and
        # the segments of every index.
        nodes = 8 * ((n + m) * (d + C + 11) + m * C)
        assert kept <= edges + loss + nodes + 16 * 1024

    @pytest.mark.parametrize("variant", ["full", "no_cross", "no_dual", "no_attention"])
    def test_mirrored_sources_equal_a_fresh_index(self, variant):
        # Each path's kernel holds its targets ``[inst | lab + n]``; summed
        # with the values' halves swapped, they give a fresh index of the
        # sources ``[lab + n | inst]``, as ``edge_attention`` sums them.  The
        # rated edges read from the kernels are the graph's within pairs,
        # then its cross pairs.
        graph = random_graph(40, 30, 60, 300, seed=3)
        prep = prepare_graph(graph, small_config(variant=variant))
        n = graph.num_instances
        w, x = graph.within, graph.cross
        keep = slice(None) if variant in ("full", "no_attention") else slice(0)
        pairs = {"within": (w.inst, w.lab), "cross": (x.inst[keep], x.lab[keep])}
        rng = np.random.default_rng(4)
        for name, (inst, lab) in pairs.items():
            targets = prep.paths[name].edges.targets
            fresh = ad.RowIndex(np.concatenate([lab + n, inst]))
            assert np.array_equal(targets.idx, np.concatenate([inst, lab + n]))
            values = rng.standard_normal((len(fresh), 3))
            swapped = np.roll(values, len(values) // 2, axis=0)
            rows = n + graph.num_label_nodes
            assert np.array_equal(targets.sum_into(swapped, rows), fresh.sum_into(values, rows))
        assert len(prep.paths["cross"].edges) == (0 if variant in ("no_cross", "no_dual") else 600)
        for (inst, lab), (want_inst, want_lab) in zip(prep.rated, pairs.values(), strict=True):
            assert np.array_equal(inst, want_inst) and np.array_equal(lab, want_lab + n)
        src, dst, kind = prep.rated_edges()
        assert np.array_equal(src, np.concatenate([w.inst, x.inst[keep]]))
        assert np.array_equal(dst, np.concatenate([w.lab, x.lab[keep]]))
        assert kind.tolist() == ["within"] * 60 + ["cross"] * len(x.inst[keep])


class TestAttention:
    def test_single_neighbor_gets_full_attention(self):
        graph = tiny_graph()
        cfg = small_config()
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        alphas = attention_coefficients(prep, params, head=0)
        np.testing.assert_allclose(alphas["within"].value, 1.0)

    def test_two_identical_neighbors_split_evenly(self):
        graph = make_graph(
            inst_feats=[[1.0, 0.0]],
            inst_group=[0],
            label_class=[0, 0],
            label_group=[0, 0],
            within=[(0, 0, 1.0, 1), (0, 1, 1.0, 1)],
            num_classes=2,
        )
        cfg = small_config()
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        alphas = attention_coefficients(prep, params, head=0)["within"].value[:, 0]
        dst = prep.paths["within"].edges.targets.idx
        instance_rows = dst == 0
        np.testing.assert_allclose(alphas[instance_rows], 0.5)

    def test_attention_sums_to_one_per_node_per_path(self):
        rng = np.random.default_rng(0)
        graph = make_graph(
            inst_feats=rng.standard_normal((3, 2)),
            inst_group=[0, 0, 1],
            label_class=[0, 1, 2],
            label_group=[0, 0, 1],
            within=[(0, 0, 0.5, 1), (0, 1, 0.3, 1), (1, 0, 0.9, 2), (2, 2, 1.0, 1)],
            cross=[(2, 0, 0.5, 0)],
            num_classes=3,
        )
        cfg = small_config(num_heads=2)
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        for head in range(2):
            alphas = attention_coefficients(prep, params, head=head)
            for name, path in prep.paths.items():
                dst = path.edges.targets.idx
                if len(dst) == 0:
                    continue
                sums = np.zeros(graph.num_instances + graph.num_label_nodes)
                np.add.at(sums, dst, alphas[name].value[:, 0])
                touched = np.unique(dst)
                np.testing.assert_allclose(sums[touched], 1.0, atol=1e-12)


class TestAggregate:
    def test_identical_heads_average_to_single_head(self):
        graph = tiny_graph()
        cfg1 = small_config(variant="no_attention", num_heads=1, seed=3)
        cfg4 = small_config(variant="no_attention", num_heads=4, seed=3)
        prep1 = prepare_graph(graph, cfg1)
        prep4 = prepare_graph(graph, cfg4)
        p1 = init_params(cfg1, graph.feature_dim, graph.num_classes)
        p4 = init_params(cfg4, graph.feature_dim, graph.num_classes)
        for h in range(4):
            p4[f"W.{h}"].value = p1["W.0"].value.copy()
        h1 = aggregate_paths(prep1, p1, cfg1)["within"]
        h4 = aggregate_paths(prep4, p4, cfg4)["within"]
        for side1, side4 in zip(h1, h4):
            np.testing.assert_allclose(side1.value, side4.value, atol=1e-12)

    def test_relu_applied_after_averaging(self):
        graph = make_graph(
            inst_feats=[[0.4, 0.2]],  # positive, so -I makes every message negative
            inst_group=[0],
            label_class=[0],
            label_group=[0],
            within=[(0, 0, 1.0, 1)],
            num_classes=2,
        )
        cfg = small_config(gcn_hidden=4, variant="no_attention")
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        params["W.0"].value = -np.eye(4)
        for side in aggregate_paths(prep, params, cfg)["within"]:
            np.testing.assert_array_equal(side.value, 0.0)


class TestEncode:
    def test_embedding_width_matches_dense_hidden(self):
        graph = tiny_graph()
        cfg = small_config(dense_hidden=7)
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        U, V = encode(prep, params, cfg)
        assert U.shape == (1, 7)
        assert V.shape == (1, 7)

    def test_isolated_node_embedding_comes_from_feature_block(self):
        graph = make_graph(
            inst_feats=[[0.5, 0.5]],
            inst_group=[0],
            label_class=[0],
            label_group=[0],
            num_classes=2,
        )
        cfg = small_config()
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        U, _ = encode(prep, params, cfg)
        x = graph.instance_features
        f = np.maximum(x @ params["Wf"].value + params["b"].value, 0.0)
        blocks = np.hstack([np.zeros((1, cfg.gcn_hidden)), np.zeros((1, cfg.gcn_hidden)), f])
        expected = np.maximum(blocks @ params["Wu"].value, 0.0)
        np.testing.assert_allclose(U.value, expected, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((4, 3))
        graph = make_graph(
            inst_feats=feats,
            inst_group=[0, 0, 1, 1],
            label_class=[0, 1, 2],
            label_group=[0, 0, 1],
            within=[(0, 0, 0.8, 2), (1, 1, 0.6, 1), (2, 2, 1.0, 3), (3, 2, 0.4, 1)],
            cross=[(0, 2, 1.0, 2), (3, 0, 0.8, 0)],
            num_classes=3,
        )
        perm = np.array([2, 0, 3, 1])  # new position of each old instance row
        inv = np.argsort(perm)
        graph_p = make_graph(
            inst_feats=feats[inv],
            inst_group=np.array([0, 0, 1, 1])[inv],
            label_class=[0, 1, 2],
            label_group=[0, 0, 1],
            within=[(perm[0], 0, 0.8, 2), (perm[1], 1, 0.6, 1), (perm[2], 2, 1.0, 3), (perm[3], 2, 0.4, 1)],
            cross=[(perm[0], 2, 1.0, perm[2]), (perm[3], 0, 0.8, perm[0])],
            num_classes=3,
        )
        cfg = small_config(num_heads=2)
        prep = prepare_graph(graph, cfg)
        prep_p = prepare_graph(graph_p, cfg)
        params = init_params(cfg, 3, 3)
        U, V = encode(prep, params, cfg)
        U_p, V_p = encode(prep_p, params, cfg)
        np.testing.assert_allclose(U_p.value[perm], U.value, atol=1e-9)
        np.testing.assert_allclose(V_p.value, V.value, atol=1e-9)

    def test_the_kink_recorder_sees_every_kink_op_of_an_encode(self):
        # The gradient checker's recorder wraps ``ad.relu`` and
        # ``ad.edge_attention``; an op the model reached another way (say, by
        # ``from .autodiff import relu``) would go unrecorded.
        graph, cfg = benchmark_run(200, epochs=1)
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        ops = (ad.relu, ad.edge_attention)
        with record_kink_signs() as signs:
            encode(prep, params, cfg)
        assert (ad.relu, ad.edge_attention) == ops
        n, m = graph.num_instances, graph.num_label_nodes
        H, E = cfg.gcn_hidden, cfg.dense_hidden
        edges = [(len(prep.paths[name].edges),) for name in ("within", "cross")]
        # per head, each path's attention; then each path's two sides, f, n, U and V
        relus = [(n, H), (m, H), (n, H), (m, H), (n, H), (m, H), (n, E), (m, E)]
        assert [mask.shape for mask in signs] == edges * cfg.num_heads + relus


@contextmanager
def every_path(kernel, chunk_bytes=None):
    """Prepare every path with ``kernel``, and take dense blocks in row
    chunks of ``chunk_bytes`` (the default when None)."""
    from dbgae import model

    saved = model.DENSE_BLOCK_MIN_DENSITY, kernels.DENSE_CHUNK_BYTES
    model.DENSE_BLOCK_MIN_DENSITY = 0.0 if kernel is kernels.DenseBlockPath else math.inf
    kernels.DENSE_CHUNK_BYTES = chunk_bytes or kernels.DENSE_CHUNK_BYTES
    try:
        yield
    finally:
        model.DENSE_BLOCK_MIN_DENSITY, kernels.DENSE_CHUNK_BYTES = saved


def close(actual, expected, rel=1e-12):
    """Whether ``actual`` is within ``rel`` of ``expected``, relative to
    ``expected``'s largest magnitude."""
    if expected.size == 0:
        return actual.shape == expected.shape
    return np.abs(actual - expected).max() <= rel * max(np.abs(expected).max(), 1e-300)


class TestPaddedTableReference:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 6),
        m=st.integers(1, 6),
        data=st.data(),
        d=st.integers(0, 3),
        num_classes=st.integers(1, 3),
        variant=st.sampled_from(VARIANTS),
        heads=st.integers(1, 2),
        chunk=st.one_of(st.none(), st.integers(8, 200)),
        helper=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @pytest.mark.parametrize("kernel", [kernels.DenseBlockPath, kernels.SparsePath])
    def test_two_sided_encoder_matches_it(
        self, kernel, n, m, data, d, num_classes, variant, heads, chunk, helper, seed
    ):
        # U, V and every parameter's gradient of the two-sided encoder
        # against the encoder over the zero-padded node table.
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                min_size=1,
                max_size=16,
                unique=True,
            )
        )
        split = data.draw(st.integers(1, len(pairs)))  # within pairs, then cross pairs
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.1, 1.0, size=len(pairs))
        graph = make_graph(
            inst_feats=rng.standard_normal((n, d)),
            inst_group=np.arange(n),
            label_class=rng.integers(0, num_classes, size=m),
            label_group=np.arange(m),
            within=[(i, j, w, 1) for (i, j), w in zip(pairs[:split], weights[:split])],
            cross=[(i, j, w, 0) for (i, j), w in zip(pairs[split:], weights[split:])],
            num_classes=num_classes,
        )
        cfg = small_config(
            gcn_hidden=5, dense_hidden=3, num_heads=heads, variant=variant, seed=seed
        )
        params = init_params(cfg, d, num_classes)
        g_u, g_v = rng.standard_normal((n, 3)), rng.standard_normal((m, 3))
        results = []
        with every_path(kernel, chunk), runtime.helper_thread() if helper else nullcontext():
            prep = prepare_graph(graph, cfg)
            for encoder in (encode, partial(encode_reference, graph)):
                U, V = encoder(prep, params, cfg)
                ad.backward(
                    ad.add(
                        ad.mean_all(ad.mul(U, ad.constant(g_u))),
                        ad.mean_all(ad.mul(V, ad.constant(g_v))),
                    )
                )
                results.append((U.value, V.value, {k: g.copy() for k, g in params.grads().items()}))
                ad.zero_grads(params.tensors.values())
        (U, V, grads), (U_ref, V_ref, grads_ref) = results
        assert close(U, U_ref) and close(V, V_ref)
        # The gradient is one vector over all parameters: relative to its
        # largest entry, since a parameter's own gradient may cancel to
        # rounding noise (one class and no features make attention constant).
        scale = max(np.abs(g).max(initial=0.0) for g in grads_ref.values())
        for name, g in grads_ref.items():
            assert np.abs(grads[name] - g).max(initial=0.0) <= 1e-12 * scale, name


class TestGradientCheck:
    @pytest.mark.parametrize("variant", ["no_cross", "no_attention", "no_dual"])
    def test_each_ablation_variant_passes_c1s_check(self, variant):
        # Acceptance criterion c1 checks the full model; the same graph,
        # step and tolerance for the other three variants.
        from dbgae.data import GeneratorConfig, generate_synthetic
        from dbgae.graph import build_dual_graph

        ds = generate_synthetic(
            GeneratorConfig(
                num_classes=3,
                feature_dim=4,
                num_groups=3,
                min_instances=1,
                max_instances=2,
                separation=1.0,
                noise_scale=0.08,
                null_rate=0.0,
                cross_rate=0.2,
                distractor_rate=0.5,
                rng_seed=1,
            )
        )
        graph = build_dual_graph(ds, eps=1.0, min_pts=2, threshold=1.0)
        config = ModelConfig(
            gcn_hidden=8, dense_hidden=8, num_heads=2, epochs=1, seed=3, variant=variant
        )
        prep = prepare_graph(graph, config)
        params = init_params(config, graph.feature_dim, graph.num_classes)

        def loss_fn():
            U, V = encode(prep, params, config)
            return reconstruction_loss(
                decode_logits(U, V, params, prep.within_src, prep.within_dst), prep.targets
            )

        report = grad_check(loss_fn, params.tensors, step=1e-4, samples_per_param=64, seed=0)
        assert sum(e.checked for e in report.entries) > 0
        assert report.max_rel_error <= 1e-4


class TestDecode:
    def test_equal_logits_give_uniform_distribution_and_mid_rating(self):
        graph = tiny_graph()
        cfg = small_config()
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        for r in range(5):
            params[f"Q.{r}"].value = np.zeros_like(params[f"Q.{r}"].value)
        result = train(graph, small_config(epochs=1))
        # zero Q gives uniform rows only before training; check decode directly
        U, V = encode(prep, params, cfg)
        src, dst, _ = prep.rated_edges()
        logits = decode_logits(U, V, params, ad.RowIndex(src), ad.RowIndex(dst))
        probs = np.exp(logits.value - logits.value.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, 0.2, atol=1e-12)
        m_hat = probs @ np.asarray(cfg.rating_levels)
        np.testing.assert_allclose(m_hat, 0.5, atol=1e-12)

    def test_expectation_of_split_distribution(self):
        levels = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        probs = np.array([[0.5, 0.0, 0.0, 0.0, 0.5]])
        assert probs @ levels == pytest.approx(0.5)

    def test_decode_returns_normalized_ratings(self):
        graph = tiny_graph()
        cfg = small_config(epochs=2)
        result = train(graph, cfg)
        from dbgae.model import decode

        again = decode(
            np.random.default_rng(0).standard_normal((1, cfg.dense_hidden)),
            np.random.default_rng(1).standard_normal((1, cfg.dense_hidden)),
            result.params,
            np.array([0]),
            np.array([0]),
            np.array(["within"]),
        )
        assert again.probs.sum(axis=1) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= again.m_hat[0] <= 1.0

    @pytest.mark.parametrize("k, levels, edges", [(1, 2, 5), (8, 5, 3000), (13, 3, 2500)])
    def test_decode_equals_per_level_dots_bit_for_bit(self, k, levels, edges):
        from dbgae.model import decode
        from oracles import decode_probs_reference

        cfg = small_config(dense_hidden=k, rating_levels=tuple(np.linspace(0, 1, levels)))
        params = init_params(cfg, 2, 3)
        rng = np.random.default_rng(k)
        U, V = rng.standard_normal((40, k)), rng.standard_normal((30, k))
        src, dst = rng.integers(0, 40, size=edges), rng.integers(0, 30, size=edges)
        ratings = decode(U, V, params, src, dst, np.full(edges, "cross"))
        Q = [params[f"Q.{r}"].value for r in range(levels)]
        assert np.array_equal(ratings.probs, decode_probs_reference(U, V, Q, src, dst))

    def test_decode_holds_its_result_and_one_block_of_edges(self):
        from dbgae.model import DECODE_BLOCK, decode

        n, m, edges, k = 50, 30, 40_000, 16
        cfg = small_config(dense_hidden=k)
        params = init_params(cfg, 2, 3)
        levels = len(cfg.rating_levels)
        rng = np.random.default_rng(12)
        U, V = rng.standard_normal((n, k)), rng.standard_normal((m, k))
        src, dst = rng.integers(0, n, size=edges), rng.integers(0, m, size=edges)
        kind = np.full(edges, "within")
        tracemalloc.start()
        try:
            ratings = decode(U, V, params, src, dst, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = ratings.probs.nbytes + 2 * ratings.m_hat.nbytes  # m_hat and its matmul
        products = levels * n * k * 8  # U @ [Q_0|...|Q_{R-1}]
        block = DECODE_BLOCK * (levels + 1) * k * 8  # gathered rows of U @ Q and of V
        assert peak <= result + products + block


class TestStreamedDiagnostics:
    @pytest.mark.parametrize("block", [7, 64, 1024])
    def test_equal_the_whole_array_ones(self, block, monkeypatch):
        from dbgae import model

        cfg = small_config(dense_hidden=8)
        params = init_params(cfg, 2, 3)
        rng = np.random.default_rng(block)
        U, V = rng.standard_normal((40, 8)) * 3, rng.standard_normal((30, 8)) * 3
        # Label rows numbered after the 40 instance rows, as in a target index.
        rated = [
            (rng.integers(0, 40, size=size), rng.integers(40, 40 + 30, size=size))
            for size in (150, 0, 61)
        ]
        monkeypatch.setattr(model, "DECODE_BLOCK", block)
        streamed = model.decode_diagnostics(U, V, params, rated)
        src = np.concatenate([s for s, _ in rated])
        dst = np.concatenate([d for _, d in rated]) - 40
        monkeypatch.setattr(model, "DECODE_BLOCK", 1024)
        probs = model.decode_probs(U, V, params, src, dst)
        m_hat = model.expected_weight(probs, np.asarray(cfg.rating_levels))
        whole = (
            float(np.abs(model.level_sums(probs) - 1.0).max()),
            float(m_hat.min()),
            float(m_hat.max()),
        )
        assert streamed == whole

    def test_hold_one_block_of_edges(self):
        from dbgae.model import DECODE_BLOCK, decode_diagnostics

        n, m, edges, k = 50, 30, 40_000, 16
        cfg = small_config(dense_hidden=k)
        params = init_params(cfg, 2, 3)
        levels = len(cfg.rating_levels)
        rng = np.random.default_rng(13)
        U, V = rng.standard_normal((n, k)), rng.standard_normal((m, k))
        rated = [(rng.integers(0, n, size=edges), rng.integers(n, n + m, size=edges))]
        tracemalloc.start()
        try:
            decode_diagnostics(U, V, params, rated)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        products = levels * n * k * 8  # U @ [Q_0|...|Q_{R-1}]
        block = DECODE_BLOCK * ((levels + 1) * k + 2 * levels + 8) * 8
        assert peak <= products + block < edges * levels * 8


class TestLoss:
    def test_probability_one_at_target_gives_zero_loss(self):
        logits = ad.constant(np.array([[100.0, 0.0]]))
        loss = reconstruction_loss(logits, np.array([0]))
        assert loss.value[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_probability_half_gives_ln2(self):
        logits = ad.constant(np.array([[0.0, 0.0]]))
        loss = reconstruction_loss(logits, np.array([0]))
        assert loss.value[0, 0] == pytest.approx(np.log(2.0))

    def test_mean_over_edges(self):
        logits = ad.constant(np.array([[0.0, 0.0], [100.0, 0.0]]))
        loss = reconstruction_loss(logits, np.array([0, 0]))
        assert loss.value[0, 0] == pytest.approx(np.log(2.0) / 2.0)


class TestTrain:
    def test_degenerate_single_edge_converges(self):
        graph = tiny_graph(w=1.0)
        cfg = small_config(gcn_hidden=8, dense_hidden=8, epochs=200, lr=0.02)
        result = train(graph, cfg)
        assert result.ratings.probs[0, -1] > 0.99

    def test_identical_seeds_identical_traces(self):
        graph = tiny_graph()
        cfg = small_config(epochs=30)
        a = train(graph, cfg)
        b = train(graph, cfg)
        np.testing.assert_array_equal(a.loss_trace, b.loss_trace)

    def test_decoder_rows_normalized_every_epoch(self):
        graph = make_graph(
            inst_feats=[[0.2, 0.8], [-0.5, 0.1]],
            inst_group=[0, 1],
            label_class=[0, 1],
            label_group=[0, 1],
            within=[(0, 0, 1.0, 1), (1, 1, 0.5, 1)],
            cross=[(0, 1, 0.5, 1)],
            num_classes=2,
        )
        result = train(graph, small_config(epochs=40))
        assert result.prob_sum_err.max() <= 1e-9
        assert result.mhat_min.min() >= 0.0
        assert result.mhat_max.max() <= 1.0

    def test_no_tape_survives_into_the_next_epoch(self, monkeypatch):
        import gc

        from dbgae import model

        def live_tape_nodes():  # op outputs, as opposed to parameters and constants
            return sum(
                1
                for obj in gc.get_objects()
                if isinstance(obj, ad.Tensor) and obj.op not in ("param", "const")
            )

        live_at_encode = []
        real_encode = model.encode

        def encode_counting(*args):
            live_at_encode.append(live_tape_nodes())
            return real_encode(*args)

        monkeypatch.setattr(model, "encode", encode_counting)
        graph = make_graph(
            inst_feats=[[0.2, 0.8], [-0.5, 0.1]],
            inst_group=[0, 1],
            label_class=[0, 1],
            label_group=[0, 1],
            within=[(0, 0, 1.0, 1), (1, 1, 0.5, 1)],
            cross=[(0, 1, 0.5, 1)],
            num_classes=2,
        )
        before = live_tape_nodes()  # what other tests may have left alive
        train(graph, small_config(epochs=3))
        assert live_at_encode == [before] * 4  # three epochs and the final encode

    def test_no_rating_array_lives_through_backward(self, monkeypatch):
        from dbgae import model

        rating_lines = {
            line
            for fn in (model.decode_probs, model.decode, model.expected_weight, model.level_sums)
            for line in lines_of(fn)
        }
        rated = 40 + 200
        live_at_backward = []
        real_backward = ad.backward

        def backward_checking(loss):
            # Blocks of at least one float per rated edge that the decoder
            # allocated, alive as backward starts.
            snapshot = tracemalloc.take_snapshot()
            live_at_backward.append(
                [
                    stat.size
                    for stat in snapshot.statistics("traceback")
                    if stat.size >= 8 * rated
                    and any(
                        f.filename == model.__file__ and f.lineno in rating_lines
                        for f in stat.traceback
                    )
                ]
            )
            return real_backward(loss)

        monkeypatch.setattr(ad, "backward", backward_checking)
        graph = random_graph(30, 20, 40, 200)
        tracemalloc.start(32)
        try:
            result = train(graph, small_config(epochs=2))
        finally:
            tracemalloc.stop()
        assert live_at_backward == [[], []]
        assert result.prob_sum_err.max() <= 1e-9 and len(result.ratings) == rated

    def test_no_rating_array_lives_through_backward_with_the_helper(self, monkeypatch):
        import threading

        from dbgae import model

        decoders = (
            model.decode_probs,
            model.decode,
            model.expected_weight,
            model.level_sums,
            model.decode_diagnostics,
            model._softmax_block,
            model._level_products,
        )
        rating_lines = {line for fn in decoders for line in lines_of(fn)}
        rated = 100 + 3500
        live_at_backward, helpers = [], []
        real_backward = ad.backward

        def backward_checking(loss):
            helpers.append([t.name for t in threading.enumerate()])
            snapshot = tracemalloc.take_snapshot()
            live_at_backward.append(
                [
                    stat.size
                    for stat in snapshot.statistics("traceback")
                    if stat.size >= 8 * rated
                    and any(
                        f.filename == model.__file__ and f.lineno in rating_lines
                        for f in stat.traceback
                    )
                ]
            )
            return real_backward(loss)

        monkeypatch.setattr(ad, "backward", backward_checking)
        monkeypatch.setattr(kernels, "DENSE_CHUNK_BYTES", 2000)
        monkeypatch.setattr(runtime, "usable_cores", lambda: 2)
        monkeypatch.setattr(runtime, "blas_threads", lambda: 1)
        # One block's gathered rows (32 x 5 levels x 4) and the products of the
        # 30 instances' rows (30 x 5 x 4) hold far fewer floats than rated edges.
        monkeypatch.setattr(model, "DECODE_BLOCK", 32)
        graph = random_graph(30, 150, 100, 3500)
        tracemalloc.start(32)
        try:
            result = train(graph, small_config(epochs=3))
        finally:
            tracemalloc.stop()
        assert all("dbgae-helper" in names for names in helpers)
        assert live_at_backward == [[], [], []]
        assert result.prob_sum_err.max() <= 1e-9 and len(result.ratings) == rated

    def test_helper_on_equals_helper_off_at_800_groups(self, monkeypatch):
        graph, cfg = benchmark_run(800, epochs=3)
        entered = []
        real_helper = runtime.helper_thread

        def counting_helper():
            entered.append(True)
            return real_helper()

        monkeypatch.setattr(runtime, "helper_thread", counting_helper)
        monkeypatch.setattr(runtime, "usable_cores", lambda: 2)
        monkeypatch.setattr(runtime, "blas_threads", lambda: 1)
        on = train(graph, cfg)
        monkeypatch.setattr(runtime, "usable_cores", lambda: 1)
        off = train(graph, cfg)
        assert entered == [True]
        assert_same_training(on, off)

    def test_an_error_in_the_diagnostics_reaches_the_caller_with_its_type(self, monkeypatch):
        from dbgae import model

        def failing_diagnostics(*args):
            raise Boom("diagnostics")

        # With chunks of 2000 bytes the helper runs the diagnostics unless
        # this thread finds them not yet started; with whole blocks the
        # forked worker runs them and sends the error back through its pipe.
        # Either way the error reaches train's caller.
        monkeypatch.setattr(model, "decode_diagnostics", failing_diagnostics)
        monkeypatch.setattr(runtime, "usable_cores", lambda: 2)
        monkeypatch.setattr(runtime, "blas_threads", lambda: 1)
        for chunk in (2000, kernels.DENSE_CHUNK_BYTES):
            monkeypatch.setattr(kernels, "DENSE_CHUNK_BYTES", chunk)
            with pytest.raises(Boom, match="diagnostics"):
                train(random_graph(30, 60, 100, 1000), small_config(epochs=3))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_the_worker_equals_the_inline_diagnostics_at_200_groups(self, monkeypatch, variant):
        from dataclasses import replace

        graph, cfg = benchmark_run(200, epochs=5)
        cfg = replace(cfg, variant=variant)
        workers = []

        class CountingWorker(runtime.Worker):
            def __init__(self, *args, **kwargs):
                workers.append(True)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runtime, "Worker", CountingWorker)
        second_core(monkeypatch, True)
        forked = train(graph, cfg)
        second_core(monkeypatch, False)
        inline = train(graph, cfg)
        assert workers == [True]
        assert_same_training(forked, inline)

    @pytest.mark.parametrize("chunk_bytes, forks", [(2000, 0), (kernels.DENSE_CHUNK_BYTES, 1)])
    def test_the_worker_is_forked_only_without_a_helper_thread(
        self, monkeypatch, chunk_bytes, forks
    ):
        """Chunks of 2000 bytes start the helper, which takes the diagnostics;
        whole blocks fork the worker, with no other thread alive."""
        import threading

        real_fork, threads_at_fork = runtime.fork, []

        def recording_fork(child):
            threads_at_fork.append(threading.active_count())
            return real_fork(child)

        monkeypatch.setattr(runtime, "fork", recording_fork)
        monkeypatch.setattr(kernels, "DENSE_CHUNK_BYTES", chunk_bytes)
        second_core(monkeypatch, True)
        train(random_graph(30, 150, 100, 3500), small_config(epochs=2))
        assert threads_at_fork == [1] * forks

    @pytest.mark.parametrize(
        "cores, threads, chunk_bytes, helpers, forks",
        [
            (2, 1, 2000, 1, 0),
            (2, 1, kernels.DENSE_CHUNK_BYTES, 0, 1),
            (2, 2, 2000, 0, 0),
            (1, 1, 2000, 0, 0),
        ],
    )
    def test_the_second_core_is_asked_once_a_train(
        self, monkeypatch, cores, threads, chunk_bytes, helpers, forks
    ):
        """One ``second_core`` answer starts the helper thread (a block of
        row chunks) or forks the worker (whole blocks), or neither."""
        asked, entered, forked = [], [], []
        real_second_core, real_helper, real_worker = (
            runtime.second_core,
            runtime.helper_thread,
            runtime.Worker,
        )

        def counting_second_core():
            asked.append(True)
            return real_second_core()

        def counting_helper():
            entered.append(True)
            return real_helper()

        def counting_worker(*args, **kwargs):
            forked.append(True)
            return real_worker(*args, **kwargs)

        monkeypatch.setattr(runtime, "second_core", counting_second_core)
        monkeypatch.setattr(runtime, "helper_thread", counting_helper)
        monkeypatch.setattr(runtime, "Worker", counting_worker)
        monkeypatch.setattr(runtime, "usable_cores", lambda: cores)
        monkeypatch.setattr(runtime, "blas_threads", lambda: threads)
        monkeypatch.setattr(kernels, "DENSE_CHUNK_BYTES", chunk_bytes)
        train(random_graph(30, 150, 100, 3500), small_config(epochs=2))
        assert (len(asked), len(entered), len(forked)) == (1, helpers, forks)

    def test_a_worker_that_exits_without_a_result_is_a_training_error(self, monkeypatch):
        import os

        from dbgae import model

        monkeypatch.setattr(model, "decode_diagnostics", lambda *args: os._exit(3))
        second_core(monkeypatch, True)
        with pytest.raises(TrainingError, match="worker process exited with status 3 without a result"):
            train(tiny_graph(), small_config(epochs=2))

    def test_a_non_finite_loss_beside_the_worker_gives_the_inline_error(self, monkeypatch):
        from dbgae import model

        real_loss = model.reconstruction_loss

        def non_finite_at_epoch_2():
            calls = []

            def loss(logits, targets):
                calls.append(True)
                value = real_loss(logits, targets)
                return ad.scale(value, math.nan) if len(calls) == 3 else value

            monkeypatch.setattr(model, "reconstruction_loss", loss)
            with pytest.raises(TrainingError) as raised:
                train(tiny_graph(), small_config(epochs=4))
            return str(raised.value)

        second_core(monkeypatch, True)
        forked = non_finite_at_epoch_2()
        second_core(monkeypatch, False)
        inline = non_finite_at_epoch_2()
        assert forked == inline
        assert inline.startswith("non-finite loss at epoch 2, last finite loss ")

    @pytest.mark.parametrize("groups", [200, 800])
    def test_no_attention_messages_are_built_once_and_equal_building_them_every_epoch(
        self, monkeypatch, groups
    ):
        from dataclasses import replace

        from dbgae import model

        graph, cfg = benchmark_run(groups, epochs=4)
        cfg = replace(cfg, variant="no_attention")
        real_propagate, calls = ad.propagate, []

        def counting_propagate(*args, **kwargs):
            calls.append(args[1])
            return real_propagate(*args, **kwargs)

        monkeypatch.setattr(ad, "propagate", counting_propagate)
        once = train(graph, cfg)
        assert len(calls) == 2 and calls[0] is not calls[1]  # one per path, for the run

        real_messages = model.propagation_messages

        def rebuilding_messages(prep, params, config, head):
            for path in prep.paths.values():
                path.weighted = real_propagate(path.weight, path.edges)
            return real_messages(prep, params, config, head)

        monkeypatch.setattr(model, "propagation_messages", rebuilding_messages)
        every_epoch = train(graph, cfg)
        assert_same_training(once, every_epoch)

    def test_no_within_edges_raises(self):
        graph = make_graph(
            inst_feats=[[0.0, 0.0]],
            inst_group=[0],
            label_class=[0],
            label_group=[0],
            num_classes=2,
        )
        with pytest.raises(TrainingError, match="within"):
            train(graph, small_config())

    def test_ablation_no_cross_removes_cross_from_decoding(self):
        graph = make_graph(
            inst_feats=[[0.2, 0.8], [-0.5, 0.1]],
            inst_group=[0, 1],
            label_class=[0, 1],
            label_group=[0, 1],
            within=[(0, 0, 1.0, 1), (1, 1, 0.5, 1)],
            cross=[(0, 1, 0.5, 1)],
            num_classes=2,
        )
        full = train(graph, small_config(epochs=3))
        ablated = train(graph, small_config(epochs=3, variant="no_cross"))
        assert set(full.ratings.kind) == {"within", "cross"}
        assert set(ablated.ratings.kind) == {"within"}

    def test_ablation_no_cross_zeroes_cross_block(self):
        graph = make_graph(
            inst_feats=[[0.2, 0.8], [-0.5, 0.1]],
            inst_group=[0, 1],
            label_class=[0, 1],
            label_group=[0, 1],
            within=[(0, 0, 1.0, 1), (1, 1, 0.5, 1)],
            cross=[(0, 1, 0.5, 1)],
            num_classes=2,
        )
        cfg = small_config(variant="no_cross")
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        for side in aggregate_paths(prep, params, cfg)["cross"]:
            np.testing.assert_array_equal(side.value, 0.0)

    def test_no_dual_uses_uniform_averaged_weights(self):
        graph = make_graph(
            inst_feats=[[0.2, 0.8]],
            inst_group=[0],
            label_class=[0, 1],
            label_group=[0, 0],
            within=[(0, 0, 0.9, 3), (0, 1, 0.1, 1)],
            num_classes=2,
        )
        cfg = small_config(variant="no_dual")
        prep = prepare_graph(graph, cfg)
        np.testing.assert_allclose(prep.paths["within"].weight.value[:2, 0], [0.5, 0.5])
        assert "cross" in prep.paths
        assert len(prep.paths["cross"].edges) == 0

    def test_loss_windows_non_increasing_on_seeded_graph(self):
        from dbgae.data import GeneratorConfig, generate_synthetic
        from dbgae.graph import build_dual_graph

        ds = generate_synthetic(
            GeneratorConfig(
                num_classes=6,
                feature_dim=8,
                num_groups=30,
                min_instances=1,
                max_instances=2,
                separation=1.0,
                noise_scale=0.08,
                null_rate=0.1,
                cross_rate=0.1,
                distractor_rate=0.3,
                rng_seed=0,
            )
        )
        graph = build_dual_graph(ds)
        cfg = small_config(gcn_hidden=16, dense_hidden=8, num_heads=2, epochs=300, lr=2e-3)
        result = train(graph, cfg)
        windows = result.loss_trace.reshape(-1, 50).mean(axis=1)
        assert (np.diff(windows) <= 0).all()
        assert np.isfinite(result.loss_trace).all()


class FakeCLibrary:
    """Records the calls ``runtime.keep_freed_memory`` makes."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append(("mallopt", param, value))
        return 1

    def malloc_trim(self, pad):
        self.calls.append(("malloc_trim", pad))
        return 1


ENTRY = [("mallopt", -3, 32 << 20), ("mallopt", -1, 128 << 20)]
EXIT = [("mallopt", -1, 128 << 10), ("malloc_trim", 0)]


class TestKeepFreedMemory:
    @pytest.mark.skipif(runtime._c_library() is None, reason="the C library has no mallopt")
    def test_a_60_epoch_train_takes_few_minor_faults(self):
        import resource

        graph, cfg = benchmark_run(200, epochs=60)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(graph, cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        # 24,000-65,000 when each epoch's freed tape goes back to the kernel.
        assert faults < 6000

    def test_entry_sets_both_thresholds_and_exit_restores_and_trims(self, monkeypatch):
        from dbgae import model

        libc = FakeCLibrary()
        monkeypatch.setattr(runtime, "_c_library", lambda: (libc.mallopt, libc.malloc_trim))
        seen_at_encode = []
        real_encode = model.encode

        def encode_recording(*args):
            seen_at_encode.append(list(libc.calls))
            return real_encode(*args)

        monkeypatch.setattr(model, "encode", encode_recording)
        train(tiny_graph(), small_config(epochs=2))
        assert seen_at_encode == [ENTRY] * 3  # two epochs and the final encode
        assert libc.calls == ENTRY + EXIT

    def test_exit_restores_and_trims_when_an_epoch_raises(self, monkeypatch):
        libc = FakeCLibrary()
        monkeypatch.setattr(runtime, "_c_library", lambda: (libc.mallopt, libc.malloc_trim))
        graph = tiny_graph()
        graph.instance_features[0, 0] = np.nan
        with pytest.raises(TrainingError, match="epoch 0"):
            train(graph, small_config(epochs=2))
        assert libc.calls == ENTRY + EXIT

    def test_nothing_is_called_without_mallopt(self, monkeypatch):
        trims = []

        class NoMallopt:  # a C library without mallopt, as on macOS
            def __init__(self, name):
                self.malloc_trim = trims.append

        monkeypatch.setattr(runtime.ctypes, "CDLL", NoMallopt)
        assert runtime._c_library() is None
        train(tiny_graph(), small_config(epochs=2))
        assert trims == []

    @pytest.mark.parametrize("groups", [200, 800])
    def test_training_is_bit_identical_without_it(self, monkeypatch, groups):
        from contextlib import nullcontext

        graph, cfg = benchmark_run(groups, epochs=3)
        kept = train(graph, cfg)
        monkeypatch.setattr(runtime, "keep_freed_memory", nullcontext)
        assert_same_training(kept, train(graph, cfg))


class TestCheckpointAndRatings:
    def test_params_round_trip(self, tmp_path):
        cfg = small_config(num_heads=2)
        params = init_params(cfg, 3, 2)
        path = tmp_path / "params.json"
        save_params(params, path)
        loaded = load_params(path)
        assert set(loaded.tensors) == set(params.tensors)
        for name in params.tensors:
            np.testing.assert_array_equal(loaded[name].value, params[name].value)
        assert loaded.rating_levels == params.rating_levels

    def test_the_checkpoint_is_the_compact_json_of_its_payload(self, tmp_path):
        import json

        params = init_params(small_config(num_heads=2), 3, 2)
        params["Wf"].value[0, 0] = -0.0  # its own text, as json.dumps writes it
        path = tmp_path / "params.json"
        save_params(params, path)
        payload = {
            "version": 1,
            "meta": {
                "num_heads": 2,
                "feature_dim": 3,
                "num_classes": 2,
                "gcn_hidden": params.gcn_hidden,
                "dense_hidden": params.dense_hidden,
                "rating_levels": list(params.rating_levels),
            },
            "tensors": {
                name: {"shape": list(t.value.shape), "data": t.value.ravel().tolist()}
                for name, t in params.tensors.items()
            },
        }
        assert path.read_text(encoding="utf-8") == json.dumps(payload, separators=(",", ":"))

    def test_ratings_round_trip(self, tmp_path):
        graph = tiny_graph()
        result = train(graph, small_config(epochs=3))
        path = tmp_path / "ratings.jsonl"
        save_ratings(result.ratings, path)
        assert ratings_equal(result.ratings, load_ratings(path))

    def test_checkpoint_resumes_training(self, tmp_path):
        graph = tiny_graph()
        first = train(graph, small_config(epochs=20))
        path = tmp_path / "params.json"
        save_params(first.params, path)
        resumed = train(graph, small_config(epochs=10), initial_params=load_params(path))
        assert resumed.loss_trace[0] < first.loss_trace[0]

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"num_heads": 2}, "num_heads"),
            ({"gcn_hidden": 7}, "gcn_hidden"),
            ({"dense_hidden": 5}, "dense_hidden"),
            ({"rating_levels": (0.0, 0.5, 1.0)}, "rating_levels"),
        ],
    )
    def test_checkpoint_that_does_not_fit_config_is_training_error(self, override, field):
        graph = tiny_graph()
        params = init_params(small_config(), graph.feature_dim, graph.num_classes)
        with pytest.raises(TrainingError, match=field):
            train(graph, small_config(**override), initial_params=params)

    def test_checkpoint_with_a_tensor_the_model_lacks_is_training_error(self):
        graph = tiny_graph()
        params = init_params(small_config(), graph.feature_dim, graph.num_classes)
        params.tensors["junk"] = ad.parameter(np.zeros((2, 2)))
        with pytest.raises(TrainingError, match="tensor 'junk' is not a tensor of this model"):
            train(graph, small_config(epochs=2), initial_params=params)

    def test_the_first_unknown_tensor_in_checkpoint_order_is_named_under_any_hash_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        from dbgae import model

        code = "\n".join(
            [
                "import types",
                "from dbgae import autodiff as ad, model",
                "cfg = model.ModelConfig(gcn_hidden=3, dense_hidden=2, num_heads=1)",
                "params = model.init_params(cfg, 2, 2)",
                "for name in ('zz_d', 'zz_a', 'zz_c', 'zz_b'):",
                "    params.tensors[name] = ad.parameter([[0.0]])",
                "graph = types.SimpleNamespace(feature_dim=2, num_classes=2)",
                "try:",
                "    model._check_checkpoint(params, cfg, graph)",
                "except model.TrainingError as exc:",
                "    print(exc)",
            ]
        )
        messages = []
        for seed in ("1", "2"):  # a set of these names iterates differently under each
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = str(Path(model.__file__).parents[1])
            run = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            messages.append(run.stdout.strip() or run.stderr)
        assert messages == ["checkpoint tensor 'zz_d' is not a tensor of this model"] * 2

    def test_checkpoint_for_other_graph_is_training_error(self):
        params = init_params(small_config(), 3, 2)
        with pytest.raises(TrainingError, match="feature_dim"):
            train(tiny_graph(), small_config(), initial_params=params)
