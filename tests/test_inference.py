from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbgae import jsonl
from dbgae.benchmark import BENCHMARK_SEEDS, benchmark_generator_config
from dbgae.data import NULL_CLASS, generate_synthetic
from dbgae.errors import SchemaError
from dbgae.graph import build_dual_graph
from dbgae.inference import (
    Prediction,
    _predictions,
    baseline_cluster_voting,
    baseline_pair_clustering,
    load_predictions,
    pool_labels,
    save_predictions,
)
from dbgae.model import RatingMatrix
from oracles import (
    cluster_voting_reference,
    pair_clustering_reference,
    pool_labels_reference,
    predictions_reference,
    save_predictions_reference,
)
from test_data import make_dataset
from test_model import make_graph


def make_ratings(graph, rows):
    """rows: list of (src, dst, kind, m_hat).  Levels (0, 1) with
    p = [1 - m, m] give each rating exactly that m_hat."""
    src, dst, kind, m_hat = zip(*rows) if rows else ((), (), (), ())
    m_hat = np.asarray(m_hat, dtype=float)
    return RatingMatrix(
        src=np.asarray(src, dtype=int),
        dst=np.asarray(dst, dtype=int),
        kind=np.asarray(kind, dtype=str),
        levels=np.array([0.0, 1.0]),
        probs=np.stack([1.0 - m_hat, m_hat], axis=1),
        num_instances=graph.num_instances,
    )


class TestPooling:
    def test_instance_with_no_edges_predicts_null(self):
        graph = make_graph(
            inst_feats=[[1.0, 0.0]], inst_group=[0], label_class=[0], label_group=[0],
            num_classes=2,
        )
        ratings = make_ratings(graph, [(0, 0, "within", 0.0)])
        # zero m_hat -> zero score -> null; and an instance absent from the
        # ratings entirely behaves the same
        preds = pool_labels(ratings, graph)
        assert preds[0].predicted_class == NULL_CLASS

    @pytest.mark.parametrize(
        "rows, num_instances",
        [
            ([(0, 0, "within", 0.9)], 3),  # rated on a graph with 3 instances
            ([(0, 22, "within", 0.9)], 1),  # label row 22 of a one-label graph
            ([(-1, 0, "within", 0.9)], 1),
        ],
    )
    def test_ratings_from_another_graph_are_schema_error(self, rows, num_instances):
        graph = make_graph(
            inst_feats=[[1.0, 0.0]], inst_group=[0], label_class=[0], label_group=[0],
            within=[(0, 0, 1.0, 1)], num_classes=2,
        )
        ratings = make_ratings(graph, rows)
        ratings.num_instances = num_instances
        with pytest.raises(SchemaError, match="graph"):
            pool_labels(ratings, graph)

    def test_within_contribution_thresholded(self):
        graph = make_graph(
            inst_feats=[[1.0, 0.0]], inst_group=[0], label_class=[0], label_group=[0],
            within=[(0, 0, 1.0, 1)], num_classes=2,
        )
        preds = pool_labels(make_ratings(graph, [(0, 0, "within", 0.9)]), graph)
        assert preds[0].predicted_class == 0
        assert preds[0].scores[0] == pytest.approx(0.4)

    def test_cross_contribution_scaled_by_cosine(self):
        # cosine 0.5 between instance 0 and its via neighbor 1
        graph = make_graph(
            inst_feats=[[1.0, 0.0], [0.5, np.sqrt(3) / 2]],
            inst_group=[0, 1],
            label_class=[0],
            label_group=[1],
            cross=[(0, 0, 0.8, 1)],
            num_classes=2,
        )
        preds = pool_labels(make_ratings(graph, [(0, 0, "cross", 0.8)]), graph)
        # 0.8 * 0.5 - 0.5 < 0 -> no positive score -> null
        assert preds[0].predicted_class == NULL_CLASS
        assert preds[0].scores == {}

    def test_zero_norm_feature_gives_zero_cosine(self):
        graph = make_graph(
            inst_feats=[[0.0, 0.0], [1.0, 0.0]],
            inst_group=[0, 1],
            label_class=[0],
            label_group=[1],
            cross=[(0, 0, 1.0, 1)],
            num_classes=2,
        )
        preds = pool_labels(make_ratings(graph, [(0, 0, "cross", 1.0)]), graph)
        assert preds[0].predicted_class == NULL_CLASS

    def test_scores_accumulate_per_class(self):
        graph = make_graph(
            inst_feats=[[1.0, 0.0]],
            inst_group=[0],
            label_class=[0, 0, 1],
            label_group=[0, 0, 0],
            within=[(0, 0, 1.0, 1), (0, 1, 1.0, 1), (0, 2, 1.0, 1)],
            num_classes=2,
        )
        ratings = make_ratings(
            graph,
            [(0, 0, "within", 0.7), (0, 1, "within", 0.7), (0, 2, "within", 0.8)],
        )
        preds = pool_labels(ratings, graph)
        # class 0 pools 0.2 + 0.2, class 1 pools 0.3 -> class 0 wins
        assert preds[0].predicted_class == 0
        assert preds[0].scores[0] == pytest.approx(0.4)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_argmax_invariant_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        scores = np.maximum(rng.standard_normal((3, 6)), 0.0)
        transformed = np.where(scores > 0, scores**3 + 2 * scores, 0.0)
        ids = [0, 1, 2]
        assert [p.predicted_class for p in _predictions(ids, scores)] == [
            p.predicted_class for p in _predictions(ids, transformed)
        ]

    def test_total_function_over_instances(self):
        graph = make_graph(
            inst_feats=[[1.0, 0.0], [0.0, 1.0]],
            inst_group=[0, 1],
            label_class=[0],
            label_group=[0],
            within=[(0, 0, 1.0, 1)],
            num_classes=2,
        )
        preds = pool_labels(make_ratings(graph, [(0, 0, "within", 0.9)]), graph)
        assert [p.instance_id for p in preds] == [0, 1]
        assert preds[1].predicted_class == NULL_CLASS


class TestPredictionsOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_row_loop(self, data):
        """Zero rows, zero-width rows, tied maxima and ties at zero."""
        n = data.draw(st.integers(0, 6))
        c = data.draw(st.integers(0, 5))
        value = st.sampled_from([0.0, 0.5, 2.0]) | st.floats(0.0, 10.0)
        scores = np.array(
            data.draw(st.lists(value, min_size=n * c, max_size=n * c)), dtype=float
        ).reshape(n, c)
        ids = data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
        assert _predictions(ids, scores) == predictions_reference(ids, scores)


# exact values that give zero-norm rows and repeated cosines, mixed with any float
_COORD = st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-10.0, 10.0)


class TestPoolingOracle:
    def test_repeated_cross_edge_takes_its_last_donor(self):
        graph = make_graph(
            inst_feats=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            inst_group=[0, 1, 2],
            label_class=[0],
            label_group=[1],
            cross=[(0, 0, 1.0, 1), (0, 0, 1.0, 2)],
            num_classes=1,
        )
        ratings = make_ratings(graph, [(0, 0, "cross", 1.0)])
        # the donor is instance 2, orthogonal to instance 0: cosine 0, no score
        assert pool_labels(ratings, graph, tau=0.0)[0].scores == {}
        assert pool_labels_reference(ratings, graph, 0.0)[0].scores == {}

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_rating_loop(self, data):
        n = data.draw(st.integers(1, 6), label="instances")
        m = data.draw(st.integers(1, 5), label="labels")
        num_classes = data.draw(st.integers(1, 4), label="classes")
        dim = data.draw(st.integers(0, 20), label="feature dim")
        feats = data.draw(st.lists(_COORD, min_size=n * dim, max_size=n * dim), label="features")
        label_class = data.draw(st.lists(st.integers(0, num_classes - 1), min_size=m, max_size=m))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
        # a repeated edge, possible in a loaded graph, takes its last donor
        cross = data.draw(st.lists(pair), label="cross edges")
        graph = make_graph(
            inst_feats=np.asarray(feats).reshape(n, dim),
            inst_group=list(range(n)),
            label_class=label_class,
            label_group=[0] * m,
            cross=[(i, j, 1.0, data.draw(st.integers(0, n - 1))) for i, j in cross],
            num_classes=num_classes,
        )
        # ratings in any order, cross ones mostly on graph edges
        rated = st.tuples(
            st.sampled_from(cross) if cross else pair, st.just("cross")
        ) | st.tuples(pair, st.sampled_from(["within", "cross"]))
        rows = data.draw(st.lists(rated, max_size=12), label="ratings")
        m_hat = data.draw(
            st.lists(
                st.floats(0.0, 1.0) | st.just(float("nan")), min_size=len(rows), max_size=len(rows)
            ),
            label="m_hat",
        )
        ratings = make_ratings(graph, [(i, j, kind, m) for ((i, j), kind), m in zip(rows, m_hat)])
        tau = data.draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0), label="tau")
        # cross row dots are taken a block of rows at a time
        row_block = data.draw(st.integers(1, 4), label="row block")
        try:
            expected = pool_labels_reference(ratings, graph, tau)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as info:
                pool_labels(ratings, graph, tau)
            assert str(info.value) == str(exc)
            return
        with mock.patch.object(jsonl, "ROW_BLOCK", row_block):
            assert pool_labels(ratings, graph, tau) == expected


class TestClusterVoting:
    def _identical_feature_dataset(self):
        # instances 0,1,2 share features (one cluster); groups carry labels
        # {A}, {A}, {B}; a far-away noise instance sits in group 3 with {A}
        ds = make_dataset(
            [([0], [0]), ([0], [0]), ([0], [1]), ([1], [0])], num_classes=2, feature_dim=2
        )
        shared = np.array([1.0, 1.0])
        for gid in range(3):
            inst = ds.groups[gid].instances[0]
            ds.groups[gid].instances[0] = inst.__class__(
                instance_id=inst.instance_id,
                group_id=gid,
                features=shared,
                true_class=inst.true_class,
            )
        far = ds.groups[3].instances[0]
        ds.groups[3].instances[0] = far.__class__(
            instance_id=far.instance_id,
            group_id=3,
            features=np.array([50.0, 50.0]),
            true_class=far.true_class,
        )
        return ds

    def test_majority_vote_over_cluster_groups(self):
        graph = build_dual_graph(self._identical_feature_dataset())
        preds = {p.instance_id: p for p in baseline_cluster_voting(graph, eps=1.0, min_pts=2)}
        for iid in (0, 1, 2):
            assert preds[iid].predicted_class == 0  # votes {A:2, B:1}

    def test_noise_instance_uses_own_group(self):
        graph = build_dual_graph(self._identical_feature_dataset())
        preds = {p.instance_id: p for p in baseline_cluster_voting(graph, eps=1.0, min_pts=2)}
        assert preds[3].predicted_class == 0

    def test_tie_breaks_to_lowest_class_id(self):
        graph = build_dual_graph(make_dataset([([0], [1, 0])], num_classes=2))
        preds = baseline_cluster_voting(graph, eps=1.0, min_pts=2)
        assert preds[0].predicted_class == 0

    def test_empty_pool_predicts_null(self):
        graph = build_dual_graph(make_dataset([([0], [])], num_classes=1))
        preds = baseline_cluster_voting(graph, eps=1.0, min_pts=2)
        assert preds[0].predicted_class == NULL_CLASS

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), min_pts=st.integers(1, 3))
    def test_matches_per_instance_loop(self, data, min_pts):
        """Groups without labels or instances, null instances, tied votes,
        clusters across groups and noise, with the groups in shuffled order
        so that a group's id is not its position in the list."""
        num_classes = data.draw(st.integers(1, 4))
        specs = data.draw(
            st.lists(
                st.tuples(
                    st.lists(st.integers(NULL_CLASS, num_classes - 1), max_size=3),
                    st.lists(st.integers(0, num_classes - 1), max_size=3),
                ),
                max_size=6,
            )
        )
        ds = make_dataset(specs, num_classes=num_classes, feature_dim=1)
        for group in ds.groups:  # few distinct positions, so clusters form
            group.instances = [
                inst.__class__(
                    instance_id=inst.instance_id,
                    group_id=inst.group_id,
                    features=np.array([float(data.draw(st.integers(0, 4)))]),
                    true_class=inst.true_class,
                )
                for inst in group.instances
            ]
        ds.groups = data.draw(st.permutations(ds.groups))
        expected = cluster_voting_reference(ds, eps=1.0, min_pts=min_pts)
        graph = build_dual_graph(ds)
        assert baseline_cluster_voting(graph, eps=1.0, min_pts=min_pts) == expected

    def test_group_ids_need_not_be_dense(self):
        # a loaded graph's group ids may be any integers
        graph = build_dual_graph(generate_synthetic(benchmark_generator_config(0)))
        expected = baseline_cluster_voting(graph, eps=1.0, min_pts=2)
        graph.instance_group = 10**12 - 7 * graph.instance_group
        graph.label_group = 10**12 - 7 * graph.label_group
        assert baseline_cluster_voting(graph, eps=1.0, min_pts=2) == expected

    @pytest.mark.parametrize("seed", BENCHMARK_SEEDS)
    def test_matches_per_instance_loop_on_benchmark_seeds(self, seed):
        ds = generate_synthetic(benchmark_generator_config(seed))
        expected = cluster_voting_reference(ds, eps=1.0, min_pts=2)
        assert baseline_cluster_voting(build_dual_graph(ds), eps=1.0, min_pts=2) == expected


class TestPairClustering:
    def test_largest_cooccurrence_wins(self):
        # class-1 pair repeats in 3 groups (c=3); class-0 label unique (c=1)
        specs = [([1], [1, 0]), ([1], [1]), ([1], [1])]
        ds = make_dataset(specs, num_classes=2, feature_dim=2)
        shared = np.array([2.0, -1.0])
        for group in ds.groups:
            inst = group.instances[0]
            group.instances[0] = inst.__class__(
                instance_id=inst.instance_id,
                group_id=group.group_id,
                features=shared,
                true_class=1,
            )
        graph = build_dual_graph(ds, eps=1.0, min_pts=2)
        preds = {p.instance_id: p for p in baseline_pair_clustering(graph)}
        assert preds[0].predicted_class == 1

    def test_all_noise_ties_break_to_lowest_class(self):
        ds = make_dataset([([0], [2, 1])], num_classes=3)
        preds = baseline_pair_clustering(build_dual_graph(ds, eps=1.0, min_pts=2))
        assert preds[0].predicted_class == 1

    def test_no_labels_predicts_null(self):
        ds = make_dataset([([0], [])], num_classes=1)
        preds = baseline_pair_clustering(build_dual_graph(ds, eps=1.0, min_pts=2))
        assert preds[0].predicted_class == NULL_CLASS

    @pytest.mark.parametrize("seed", BENCHMARK_SEEDS)
    def test_matches_per_link_loop_on_benchmark_seeds(self, seed):
        ds = generate_synthetic(benchmark_generator_config(seed))
        graph = build_dual_graph(ds, eps=1.0, min_pts=2)
        assert baseline_pair_clustering(graph) == pair_clustering_reference(graph)

    @pytest.mark.parametrize(
        "within",
        [
            [],  # no links at all
            [(0, 0, 1.0, 2), (0, 1, 1.0, 2), (0, 2, 1.0, 1)],  # tied counts: lowest class
            [(0, 0, 1.0, 1), (0, 1, 1.0, 2), (0, 2, 1.0, 3)],  # class 1 on two labels: max
            [(2, 1, 1.0, 4), (0, 2, 1.0, 1)],  # instance 1 has no links
        ],
    )
    def test_matches_per_link_loop_on_edge_cases(self, within):
        graph = make_graph(
            inst_feats=[[0.0], [1.0], [2.0]],
            inst_group=[0, 0, 0],
            label_class=[1, 0, 1],
            label_group=[0, 0, 0],
            within=within,
            num_classes=2,
        )
        preds = baseline_pair_clustering(graph)
        assert preds == pair_clustering_reference(graph)
        if not within:
            assert all(p.predicted_class == NULL_CLASS and p.scores == {} for p in preds)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_link_loop(self, data):
        n = data.draw(st.integers(1, 6), label="instances")
        m = data.draw(st.integers(1, 5), label="labels")
        label_class = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        link = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), st.integers(1, 4))
        within = data.draw(st.lists(link, max_size=15), label="links")
        graph = make_graph(
            inst_feats=np.zeros((n, 1)),
            inst_group=[0] * n,
            label_class=label_class,
            label_group=[0] * m,
            within=[(i, j, 1.0, c) for i, j, c in within],
            num_classes=4,
        )
        assert baseline_pair_clustering(graph) == pair_clustering_reference(graph)


class TestPredictionsIO:
    def test_round_trip(self, tmp_path):
        preds = [
            Prediction(instance_id=0, predicted_class=2, scores={2: 0.5, 1: 0.1}),
            Prediction(instance_id=1, predicted_class=NULL_CLASS, scores={}),
        ]
        path = tmp_path / "pred.jsonl"
        save_predictions(preds, "dbgae", path)
        method, loaded = load_predictions(path)
        assert method == "dbgae"
        assert loaded == preds

    @settings(max_examples=200, deadline=None)
    @given(
        predictions=st.lists(
            st.builds(
                Prediction,
                instance_id=st.integers(-(2**63), 2**63 - 1),
                predicted_class=st.integers(-1, 2**40) | st.just(NULL_CLASS),
                scores=st.dictionaries(
                    st.integers(0, 2**40),
                    st.floats()
                    | st.sampled_from([5e-324, 1.5e-310, 1e16, 2.0, -0.0, 1e300 * 10]),
                    max_size=4,
                ),
            ),
            max_size=7,
        ),
        row_block=st.integers(1, 3),
    )
    def test_writer_matches_per_record_writer(self, write_dir, predictions, row_block):
        """Empty scores, null predictions, ids near the int64 bounds, and
        subnormal, integral, ``1e16`` and infinite scores, across row blocks."""
        with mock.patch.object(jsonl, "ROW_BLOCK", row_block):
            save_predictions(predictions, "m", write_dir / "columns.jsonl")
        save_predictions_reference(predictions, "m", write_dir / "records.jsonl")
        written = (write_dir / "columns.jsonl").read_bytes()
        assert written == (write_dir / "records.jsonl").read_bytes()

    def test_pipeline_files_match_per_record_writer(self, tmp_path):
        ds = generate_synthetic(replace(benchmark_generator_config(3), num_groups=40))
        graph = build_dual_graph(ds)
        predictions = baseline_pair_clustering(graph) + baseline_cluster_voting(graph)
        assert any(p.predicted_class == NULL_CLASS for p in predictions)
        save_predictions(predictions, "both", tmp_path / "columns.jsonl")
        save_predictions_reference(predictions, "both", tmp_path / "records.jsonl")
        written = (tmp_path / "columns.jsonl").read_bytes()
        assert written == (tmp_path / "records.jsonl").read_bytes()


@pytest.fixture(scope="module")
def write_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("predictions")
