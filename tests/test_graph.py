import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgae import graph
from dbgae.data import GeneratorConfig, generate_synthetic
from dbgae.graph import (
    WithinGraph,
    WithinLinks,
    build_dual_graph,
    count_cooccurrence,
    cross_links,
    dbscan,
    graphs_equal,
    homogeneous_neighbors,
    index_dataset,
    load_graph,
    save_graph,
    within_weights,
)
from oracles import (
    cross_links_reference,
    dbscan_reference,
    within_weights_reference,
)
from test_data import make_dataset


class TestDbscan:
    def test_line_of_three_chains_into_one_cluster(self):
        points = np.array([[0.0], [0.5], [1.0]])
        out = dbscan(points, eps=1.0, min_pts=2)
        assert set(out.labels) == {0}
        assert out.sizes.tolist() == [3]

    def test_separated_points_are_noise(self):
        out = dbscan(np.array([[0.0], [5.0]]), eps=1.0, min_pts=2)
        assert out.labels.tolist() == [-1, -1]

    def test_duplicated_points_leave_no_noise(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(-5, 5, size=(10, 3))
        points = np.vstack([base, base])
        out = dbscan(points, eps=0.5, min_pts=2)
        assert (out.labels >= 0).all()
        assert np.array_equal(out.labels, dbscan_reference(points, 0.5, 2))

    def test_empty_input(self):
        out = dbscan(np.zeros((0, 2)), eps=1.0, min_pts=2)
        assert len(out.labels) == 0
        assert out.num_clusters == 0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(1, 24),
        dim=st.integers(1, 3),
        eps=st.floats(0.1, 2.0),
        min_pts=st.integers(1, 4),
        block_values=st.sampled_from([1, 7, 30, 1 << 16]),
    )
    def test_matches_reference_partition(self, seed, n, dim, eps, min_pts, block_values):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-3, 3, size=(n, dim))
        with mock.patch.object(graph, "RADIUS_BLOCK_VALUES", block_values):
            ours = dbscan(points, eps=eps, min_pts=min_pts)
        # the oracle numbers clusters by their first core point, as the scan does
        assert np.array_equal(ours.labels, dbscan_reference(points, eps, min_pts))

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        eps=st.sampled_from([0.5, 1.0, 1.25]),
        min_pts=st.integers(1, 4),
        block_values=st.sampled_from([1, 7, 1 << 16]),
    )
    def test_link_tuples_match_reference_with_and_without_parts(
        self, data, eps, min_pts, block_values
    ):
        """Features joined with one-hot class columns, as ``count_cooccurrence``
        clusters them.  Coordinates on a grid of halves make many pairs lie
        exactly at ``eps``, where every distance is exact; tuples of
        different classes are sqrt(2) > eps apart, so searching per class
        must give the labels of the search over all tuples."""
        n = data.draw(st.integers(1, 30))
        dim = data.draw(st.integers(1, 3))
        num_classes = data.draw(st.integers(1, 3))
        coords = st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5])
        features = np.array(
            data.draw(st.lists(coords, min_size=n * dim, max_size=n * dim))
        ).reshape(n, dim)
        classes = np.array(
            data.draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
        )
        points = np.hstack([features, np.eye(num_classes)[classes]])
        expected = dbscan_reference(points, eps, min_pts)
        with mock.patch.object(graph, "RADIUS_BLOCK_VALUES", block_values):
            whole = dbscan(points, eps=eps, min_pts=min_pts)
            split = dbscan(points, eps=eps, min_pts=min_pts, parts=classes)
            pairs = zip(
                graph.radius_neighbors(points, eps),
                graph.radius_neighbors(points, eps, parts=classes),
            )
            assert all(np.array_equal(a, b) for a, b in pairs)
        assert np.array_equal(whole.labels, expected)
        assert np.array_equal(split.labels, expected)
        assert np.array_equal(split.sizes, whole.sizes)

    def test_sizes_account_for_every_point(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(-2, 2, size=(40, 2))
        out = dbscan(points, eps=0.7, min_pts=3)
        noise = (out.labels == -1).sum()
        assert out.sizes.sum() + noise == len(points)


class TestCooccurrence:
    def test_repeated_pair_counts_across_groups(self):
        # identical instance feature + same label class in 3 groups
        specs = [([0], [0]), ([0], [0]), ([0], [0])]
        ds = make_dataset(specs, num_classes=2, feature_dim=2)
        for group in ds.groups:  # make features identical across groups
            group.instances[0] = group.instances[0].__class__(
                instance_id=group.instances[0].instance_id,
                group_id=group.group_id,
                features=np.array([1.0, 2.0]),
                true_class=0,
            )
        links = count_cooccurrence(index_dataset(ds), eps=1.0, min_pts=2)
        assert links.count.tolist() == [3, 3, 3]

    def test_unique_pair_is_noise_with_count_one(self):
        ds = make_dataset([([0], [1])], num_classes=2)
        links = count_cooccurrence(index_dataset(ds), eps=1.0, min_pts=2)
        assert links.count.tolist() == [1]

    def test_one_hot_blocks_separate_label_classes(self):
        # same instance features, different label classes: distance >= sqrt(2)
        ds = make_dataset([([0], [0]), ([0], [1])], num_classes=2, feature_dim=2)
        feats = np.array([0.5, -0.5])
        for group in ds.groups:
            group.instances[0] = group.instances[0].__class__(
                instance_id=group.instances[0].instance_id,
                group_id=group.group_id,
                features=feats,
                true_class=0,
            )
        links = count_cooccurrence(index_dataset(ds), eps=1.0, min_pts=2)
        assert links.count.tolist() == [1, 1]

    def test_radius_of_sqrt2_or_more_searches_across_classes(self):
        # same instance features, different label classes: distance sqrt(2),
        # within eps = 1.5, so the two links form one cluster
        ds = make_dataset([([0], [0]), ([0], [1])], num_classes=2, feature_dim=2)
        for group in ds.groups:
            group.instances[0] = group.instances[0].__class__(
                instance_id=group.instances[0].instance_id,
                group_id=group.group_id,
                features=np.array([0.5, -0.5]),
                true_class=0,
            )
        links = count_cooccurrence(index_dataset(ds), eps=1.5, min_pts=2)
        assert links.count.tolist() == [2, 2]


class TestWithinWeights:
    def test_lone_link_weight_is_one(self):
        links = WithinLinks(
            inst=np.array([0]), lab=np.array([0]), count=np.array([7])
        )
        graph = within_weights(links)
        assert graph.weight.tolist() == [1.0]

    def test_single_contradiction_at_instance(self):
        # c=2 with one contradictory link at the instance with c=2
        links = WithinLinks(
            inst=np.array([0, 0]), lab=np.array([0, 1]), count=np.array([2, 2])
        )
        graph = within_weights(links)
        assert graph.weight[0] == pytest.approx(0.5)

    def test_contradictions_on_both_sides(self):
        # c=3, contradictory counts {1} at the instance and {2} at the label
        links = WithinLinks(
            inst=np.array([0, 0, 1]),
            lab=np.array([0, 1, 0]),
            count=np.array([3, 1, 2]),
        )
        graph = within_weights(links)
        assert graph.weight[0] == pytest.approx(0.5)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000), n_inst=st.integers(1, 5), n_lab=st.integers(1, 5))
    def test_matches_contradictory_enumeration_oracle(self, seed, n_inst, n_lab):
        rng = np.random.default_rng(seed)
        inst, lab = np.meshgrid(np.arange(n_inst), np.arange(n_lab), indexing="ij")
        inst, lab = inst.ravel(), lab.ravel()
        count = rng.integers(1, 20, size=len(inst))
        ours = within_weights(WithinLinks(inst=inst, lab=lab, count=count))
        expected = within_weights_reference(inst, lab, count)
        np.testing.assert_allclose(ours.weight, expected, rtol=0, atol=1e-12)
        assert ((ours.weight > 0) & (ours.weight <= 1)).all()


class TestHomogeneousNeighbors:
    def test_identical_features_across_groups_are_mutual(self):
        feats = np.array([[1.0, 0.0], [1.0, 0.0]])
        groups = np.array([0, 1])
        nbrs = homogeneous_neighbors(feats, groups, threshold=1.0)
        assert nbrs[0].tolist() == [1]
        assert nbrs[1].tolist() == [0]

    def test_same_group_never_neighbors(self):
        feats = np.array([[1.0, 0.0], [1.0, 0.0]])
        groups = np.array([0, 0])
        nbrs = homogeneous_neighbors(feats, groups, threshold=1.0)
        assert all(len(a) == 0 for a in nbrs)

    def test_distance_exactly_threshold_included(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0]])
        groups = np.array([0, 1])
        nbrs = homogeneous_neighbors(feats, groups, threshold=1.0)
        assert nbrs[0].tolist() == [1]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 20),
        thr=st.floats(0.1, 3.0),
        block_values=st.sampled_from([1, 7, 30, 1 << 16]),
    )
    def test_matches_brute_force_pair_scan(self, seed, n, thr, block_values):
        rng = np.random.default_rng(seed)
        feats = rng.uniform(-2, 2, size=(n, 2))
        groups = rng.integers(0, 4, size=n)
        with mock.patch.object(graph, "RADIUS_BLOCK_VALUES", block_values):
            nbrs = homogeneous_neighbors(feats, groups, threshold=thr)
        for i in range(n):
            expected = [
                j
                for j in range(n)
                if j != i
                and groups[j] != groups[i]
                and np.linalg.norm(feats[i] - feats[j]) <= thr
            ]
            assert nbrs[i].tolist() == expected


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRadiusSearchMemory:
    """Neither search builds an n x n matrix: each peaks below a quarter of
    one n x n float64 matrix."""

    n = 1500

    def _points(self):
        rng = np.random.default_rng(11)
        return rng.uniform(0, 10, size=(self.n, 4)), rng.integers(0, 300, size=self.n)

    def test_dbscan(self):
        points, _ = self._points()
        assert _traced_peak(lambda: dbscan(points, eps=1.0, min_pts=3)) < self.n**2 * 8 / 4

    def test_homogeneous_neighbors(self):
        points, groups = self._points()
        peak = _traced_peak(lambda: homogeneous_neighbors(points, groups, threshold=1.0))
        assert peak < self.n**2 * 8 / 4


class TestCrossLinks:
    def _within(self, edges):
        inst, lab, w = (np.asarray(x) for x in zip(*edges))
        return within_weights(
            WithinLinks(inst=inst.astype(int), lab=lab.astype(int), count=np.ones(len(inst), dtype=int))
        ).__class__(
            inst=inst.astype(int),
            lab=lab.astype(int),
            weight=w.astype(float),
            count=np.ones(len(inst), dtype=int),
        )

    def test_no_neighbors_no_cross_edges(self):
        within = self._within([(0, 0, 0.8)])
        cross = cross_links(within, [np.array([], dtype=int)])
        assert len(cross.inst) == 0

    def test_neighbor_donates_all_its_links(self):
        within = self._within([(1, 0, 0.8), (1, 1, 0.2)])
        cross = cross_links(within, [np.array([1]), np.array([], dtype=int)])
        assert sorted(zip(cross.inst, cross.lab, cross.weight)) == [
            (0, 0, 0.8),
            (0, 1, 0.2),
        ]
        assert (cross.via == 1).all()

    def test_duplicate_target_keeps_maximum_weight(self):
        within = self._within([(1, 0, 0.3), (2, 0, 0.7)])
        cross = cross_links(
            within, [np.array([1, 2]), np.array([], dtype=int), np.array([], dtype=int)]
        )
        assert len(cross.inst) == 1
        assert cross.weight[0] == pytest.approx(0.7)
        assert cross.via[0] == 2

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_double_loop_oracle(self, data):
        n = data.draw(st.integers(0, 7), label="instances")
        m = data.draw(st.integers(1, 5), label="labels")
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), unique=True)
            if n
            else st.just([]),
            label="within pairs",
        )
        # few distinct weights, so equal-weight donors are common
        weights = data.draw(
            st.lists(
                st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                min_size=len(pairs),
                max_size=len(pairs),
            ),
            label="weights",
        )
        neighbors = [
            np.asarray(
                data.draw(st.lists(st.integers(0, n - 1), unique=True), label=f"donors of {i}"),
                dtype=int,
            )
            for i in range(n)
        ]
        inst = np.asarray([i for i, _ in pairs], dtype=int)
        lab = np.asarray([j for _, j in pairs], dtype=int)
        within = WithinGraph(
            inst=inst, lab=lab, weight=np.asarray(weights, dtype=float), count=np.ones_like(inst)
        )
        cross = cross_links(within, neighbors)
        expected = cross_links_reference(within, neighbors)
        for field, want in zip(("inst", "lab", "weight", "via"), expected):
            got = getattr(cross, field)
            assert got.dtype == want.dtype, field
            np.testing.assert_array_equal(got, want, err_msg=field)


class TestBuildDualGraph:
    def test_single_group_has_empty_cross_graph(self):
        ds = make_dataset([([0, 1], [0, 1])], num_classes=2)
        graph = build_dual_graph(ds)
        assert len(graph.cross.inst) == 0

    def test_cross_edge_reaches_displaced_label(self):
        cfg = GeneratorConfig(
            num_classes=5,
            feature_dim=8,
            num_groups=40,
            min_instances=1,
            max_instances=2,
            separation=1.0,
            noise_scale=0.05,
            null_rate=0.0,
            cross_rate=0.3,
            distractor_rate=0.0,
            rng_seed=1,
        )
        ds = generate_synthetic(cfg)
        graph = build_dual_graph(ds, eps=1.0, min_pts=2, threshold=1.0)
        label_sets = {g.group_id: {l.class_id for l in g.labels} for g in ds.groups}
        truth = {i.instance_id: i.true_class for g in ds.groups for i in g.instances}
        displaced_rows = [
            r
            for r, iid in enumerate(graph.instance_ids)
            if truth[iid] not in label_sets[graph.instance_group[r]]
        ]
        assert displaced_rows
        hits = sum(
            1
            for r in displaced_rows
            if any(
                graph.label_class[graph.cross.lab[k]] == truth[graph.instance_ids[r]]
                for k in np.flatnonzero(graph.cross.inst == r)
            )
        )
        assert hits >= 1

    def test_cross_edges_never_within_group(self):
        ds = generate_synthetic(
            GeneratorConfig(
                num_classes=6,
                num_groups=30,
                separation=1.0,
                noise_scale=0.05,
                null_rate=0.0,
                cross_rate=0.2,
                distractor_rate=0.0,
                min_instances=1,
                max_instances=2,
                rng_seed=2,
            )
        )
        graph = build_dual_graph(ds)
        for k in range(len(graph.cross.inst)):
            assert (
                graph.instance_group[graph.cross.inst[k]]
                != graph.label_group[graph.cross.lab[k]]
            )

    def test_cross_weight_always_matches_a_within_weight(self):
        ds = generate_synthetic(
            GeneratorConfig(
                num_classes=6,
                num_groups=30,
                separation=1.0,
                noise_scale=0.05,
                null_rate=0.0,
                cross_rate=0.2,
                distractor_rate=0.0,
                min_instances=1,
                max_instances=2,
                rng_seed=3,
            )
        )
        graph = build_dual_graph(ds)
        within_weights_set = set(graph.within.weight.tolist())
        assert all(w in within_weights_set for w in graph.cross.weight)

    def test_deterministic(self):
        ds = generate_synthetic(
            GeneratorConfig(num_classes=6, num_groups=25, cross_rate=0.2, rng_seed=5,
                            separation=1.0, noise_scale=0.05, min_instances=2,
                            max_instances=3, null_rate=0.0, distractor_rate=0.0)
        )
        assert graphs_equal(build_dual_graph(ds), build_dual_graph(ds))

    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(
            GeneratorConfig(
                num_classes=6,
                num_groups=25,
                min_instances=2,
                max_instances=3,
                null_rate=0.0,
                cross_rate=0.2,
                distractor_rate=0.5,
                separation=1.0,
                noise_scale=0.05,
                rng_seed=5,
            )
        )
        graph = build_dual_graph(ds)
        path = tmp_path / "graph.jsonl"
        save_graph(graph, path)
        assert graphs_equal(graph, load_graph(path))
