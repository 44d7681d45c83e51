import tracemalloc
import types

import numpy as np
import pytest

from dbgae import autodiff as ad
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
        sums = propagation_messages(prep, params, cfg, head=0)["within"]
        assert sums.shape == (prep.num_nodes, 4)
        # row 0, the instance, receives the label one-hot block
        np.testing.assert_allclose(sums.value[0], [0.0, 0.0, 1.0, 0.0])
        # row 1, the label, receives the instance features
        np.testing.assert_allclose(sums.value[1], [0.4, -0.2, 0.0, 0.0])

    def test_half_weight_scales_message(self):
        graph = tiny_graph(w=0.5)
        cfg = small_config(gcn_hidden=4, variant="no_attention")
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        params["W.0"].value = np.eye(4)
        sums = propagation_messages(prep, params, cfg, head=0)["within"]
        np.testing.assert_allclose(sums.value[0], [0.0, 0.0, 0.5, 0.0])

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
        sums = propagation_messages(prep, params, cfg, head=0)["within"].value
        np.testing.assert_allclose(sums[0], [0.0, 0.0, 0.5, 0.25])
        np.testing.assert_allclose(sums[1], [0.2, -0.1, 0.0, 0.0])
        np.testing.assert_allclose(sums[2], [0.1, -0.05, 0.0, 0.0])

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
        hidden = aggregate_paths(prep, params, cfg)
        np.testing.assert_array_equal(hidden["cross"].value, 0.0)

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
        cfg = small_config(gcn_hidden=7, num_heads=2)
        prep = prepare_graph(graph, cfg)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        U, V = encode(prep, params, cfg)
        loss = reconstruction_loss(
            decode_logits(U, V, params, prep.within_src, prep.within_dst), prep.targets
        )
        forbidden = {(len(path.src), cfg.gcn_hidden) for path in prep.paths.values()}
        assert forbidden == {(8, 7), (4, 7)} and prep.num_nodes == 6
        shapes, stack, seen = [], [loss], {id(loss)}
        while stack:
            node = stack.pop()
            shapes.append(node.shape)
            for parent in node.parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert [shape for shape in forbidden if shape in shapes] == []
        assert (prep.num_nodes, cfg.gcn_hidden) in shapes

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
        assert isinstance(prep.paths["cross"].edges, ad.DenseBlockPath)
        params = init_params(cfg, graph.feature_dim, graph.num_classes)
        U, V = encode(prep, params, cfg)
        blocks = {(3, 4), (4, 3)}  # n x m and m x n
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
        assert len(closures) == 2 * cfg.num_heads
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
            elif callable(obj) and getattr(obj, "__closure__", None):
                stack.extend(cell.cell_contents for cell in obj.__closure__)
            elif isinstance(obj, (tuple, list)):
                stack.extend(obj)
            elif isinstance(obj, dict):
                stack.extend(obj.values())
            elif isinstance(obj, (ad.DenseBlockPath, ad.SparsePath)):
                stack.extend(vars(obj).values())
        assert (prep.num_nodes, cfg.gcn_hidden) in shapes
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
        assert isinstance(prep.paths["cross"].edges, ad.DenseBlockPath)
        assert isinstance(prep.paths["within"].edges, ad.SparsePath)


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
        [(60, 50, 200, 1500, ad.DenseBlockPath), (400, 300, 300, 1500, ad.SparsePath)],
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
        # its weight, the kernel's block position or source row, and half
        # of its rated pair's two rows.
        edges = 6 * 8 * 2 * (within + cross)
        # Per within edge, the loss's: sort position and segment id of each
        # end, and the target level.
        loss = 5 * 8 * within
        # Per node: features and label one-hot, the gather indexes of both
        # node kinds and the segments of every index.
        nodes = 8 * ((n + m) * (d + C + 11) + m * C)
        assert kept <= edges + loss + nodes + 16 * 1024

    @pytest.mark.parametrize("variant", ["full", "no_cross", "no_dual", "no_attention"])
    def test_mirrored_sources_equal_a_fresh_index(self, variant):
        graph = random_graph(40, 30, 60, 300, seed=3)
        prep = prepare_graph(graph, small_config(variant=variant))
        n = graph.num_instances
        w, x = graph.within, graph.cross
        keep = slice(None) if variant in ("full", "no_attention") else slice(0)
        pairs = {"within": (w.inst, w.lab), "cross": (x.inst[keep], x.lab[keep])}
        rng = np.random.default_rng(4)
        for name, (inst, lab) in pairs.items():
            path = prep.paths[name]
            fresh = ad.RowIndex(np.concatenate([lab + n, inst]))
            assert np.array_equal(path.dst.idx, np.concatenate([inst, lab + n]))
            assert np.array_equal(path.src.idx, fresh.idx)
            values = rng.standard_normal((len(fresh), 3))
            assert np.array_equal(
                path.src.sum_into(values, prep.num_nodes), fresh.sum_into(values, prep.num_nodes)
            )
        assert len(prep.paths["cross"].src) == (0 if variant in ("no_cross", "no_dual") else 600)


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
        dst = prep.paths["within"].dst.idx
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
                if len(path.dst) == 0:
                    continue
                sums = np.zeros(prep.num_nodes)
                np.add.at(sums, path.dst.idx, alphas[name].value[:, 0])
                touched = np.unique(path.dst.idx)
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
        h1 = aggregate_paths(prep1, p1, cfg1)["within"].value
        h4 = aggregate_paths(prep4, p4, cfg4)["within"].value
        np.testing.assert_allclose(h1, h4, atol=1e-12)

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
        hidden = aggregate_paths(prep, params, cfg)["within"]
        np.testing.assert_array_equal(hidden.value, 0.0)


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
        rated = [
            (rng.integers(0, 40, size=size), rng.integers(0, 30, size=size))
            for size in (150, 0, 61)
        ]
        monkeypatch.setattr(model, "DECODE_BLOCK", block)
        streamed = model.decode_diagnostics(U, V, params, rated)
        src = np.concatenate([s for s, _ in rated])
        dst = np.concatenate([d for _, d in rated])
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
        rated = [(rng.integers(0, n, size=edges), rng.integers(0, m, size=edges))]
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
        monkeypatch.setattr(ad, "DENSE_CHUNK_BYTES", 2000)
        monkeypatch.setattr(ad, "usable_cores", lambda: 2)
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
        from dataclasses import replace

        from dbgae.benchmark import (
            benchmark_generator_config,
            benchmark_graph_config,
            benchmark_model_config,
        )
        from dbgae.data import generate_synthetic
        from dbgae.graph import build_dual_graph

        gc = benchmark_graph_config()
        generator = replace(benchmark_generator_config(0), num_groups=800)
        graph = build_dual_graph(
            generate_synthetic(generator), eps=gc.eps, min_pts=gc.min_pts, threshold=gc.threshold
        )
        cfg = replace(benchmark_model_config(0), epochs=3)
        entered = []
        real_helper = ad.helper_thread

        def counting_helper():
            entered.append(True)
            return real_helper()

        monkeypatch.setattr(ad, "helper_thread", counting_helper)
        monkeypatch.setattr(ad, "usable_cores", lambda: 2)
        on = train(graph, cfg)
        monkeypatch.setattr(ad, "usable_cores", lambda: 1)
        off = train(graph, cfg)
        assert entered == [True]
        for field in ("loss_trace", "prob_sum_err", "mhat_min", "mhat_max"):
            assert np.array_equal(getattr(on, field), getattr(off, field)), field
        assert ratings_equal(on.ratings, off.ratings)
        for name, t in on.params.tensors.items():
            assert np.array_equal(t.value, off.params[name].value), name

    def test_an_error_in_the_diagnostics_reaches_the_caller_with_its_type(self, monkeypatch):
        from dbgae import model

        class Boom(Exception):
            pass

        def failing_diagnostics(*args):
            raise Boom("diagnostics")

        # The helper runs the diagnostics unless this thread finds them not
        # yet started; either way the error reaches train's caller.
        monkeypatch.setattr(model, "decode_diagnostics", failing_diagnostics)
        monkeypatch.setattr(ad, "DENSE_CHUNK_BYTES", 2000)
        monkeypatch.setattr(ad, "usable_cores", lambda: 2)
        with pytest.raises(Boom, match="diagnostics"):
            train(random_graph(30, 60, 100, 1000), small_config(epochs=3))

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
        hidden = aggregate_paths(prep, params, cfg)
        np.testing.assert_array_equal(hidden["cross"].value, 0.0)

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
        assert len(prep.paths["cross"].src) == 0

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

    def test_checkpoint_for_other_graph_is_training_error(self):
        params = init_params(small_config(), 3, 2)
        with pytest.raises(TrainingError, match="feature_dim"):
            train(tiny_graph(), small_config(), initial_params=params)
