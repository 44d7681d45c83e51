"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The synthetic benchmark (5 seeds, 1000 epochs each) is shared
across criteria through session fixtures; expect the module to take
several minutes of CPU time.
"""

import sys
import time

import numpy as np
import pytest

from dbgae.benchmark import BENCHMARK_SEEDS, run_benchmark_seed
from dbgae.data import (
    GeneratorConfig,
    class_ambiguity_ratios,
    dataset_stats,
    datasets_equal,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from dbgae.graph import (
    WithinLinks,
    build_dual_graph,
    dbscan,
    graphs_equal,
    load_graph,
    save_graph,
    within_weights,
)
from dbgae.inference import (
    baseline_cluster_voting,
    baseline_pair_clustering,
    pool_labels,
)
from dbgae.evaluation import evaluate
from dbgae.model import (
    ModelConfig,
    decode_logits,
    encode,
    init_params,
    load_ratings,
    prepare_graph,
    ratings_equal,
    reconstruction_loss,
    save_ratings,
    train,
)
from dbgae.pipeline import RunConfig, config_from_dict, config_to_dict, run_pipeline
from oracles import dbscan_reference, grad_check, same_partition, within_weights_reference


def announce(criterion: int, passed: bool, detail: str):
    print(f"\ncriterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


# ---------------------------------------------------------------------------
# shared benchmark fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def benchmark_runs():
    start = time.time()
    runs = [run_benchmark_seed(seed) for seed in BENCHMARK_SEEDS]
    elapsed = time.time() - start
    return runs, elapsed


@pytest.fixture(scope="session")
def ablation_runs():
    return {
        variant: [run_benchmark_seed(seed, variant=variant) for seed in BENCHMARK_SEEDS]
        for variant in ("no_cross", "no_attention", "no_dual")
    }


@pytest.fixture(scope="session")
def cross_heavy_runs():
    return {
        variant: [
            run_benchmark_seed(seed, variant=variant, cross_rate=0.4)
            for seed in BENCHMARK_SEEDS
        ]
        for variant in ("full", "no_cross")
    }


def mean_acc(runs, method="dbgae"):
    return float(
        np.mean([m.accuracy for r in runs for m in r.report.methods if m.method == method])
    )


def mean_f1(runs, method="dbgae"):
    return float(
        np.mean([m.macro_f1 for r in runs for m in r.report.methods if m.method == method])
    )


def pooled_bin_accuracy(runs, method_predictions, low_cut=0.2, high_cut=0.6):
    """Accuracy over instances whose true class ambiguity is <= low_cut and
    >= high_cut, pooled across all benchmark seeds."""
    lo_correct = lo_total = hi_correct = hi_total = 0
    for run, preds in method_predictions:
        ratios = class_ambiguity_ratios(run.dataset)
        truth = {
            inst.instance_id: inst.true_class
            for group in run.dataset.groups
            for inst in group.instances
        }
        for pred in preds:
            ratio = ratios.get(truth[pred.instance_id], 0.0)
            hit = pred.predicted_class == truth[pred.instance_id]
            if ratio <= low_cut:
                lo_total += 1
                lo_correct += hit
            if ratio >= high_cut:
                hi_total += 1
                hi_correct += hit
    assert lo_total > 0 and hi_total > 0, "ambiguity bins must be populated"
    return lo_correct / lo_total, hi_correct / hi_total


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c1_full_model_gradient_check():
    gen = GeneratorConfig(
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
    ds = generate_synthetic(gen)
    graph = build_dual_graph(ds, eps=1.0, min_pts=2, threshold=1.0)
    assert graph.num_instances + graph.num_label_nodes <= 20
    config = ModelConfig(gcn_hidden=8, dense_hidden=8, num_heads=2, epochs=1, seed=3)
    prep = prepare_graph(graph, config)
    params = init_params(config, graph.feature_dim, graph.num_classes)

    def loss_fn():
        U, V = encode(prep, params, config)
        return reconstruction_loss(
            decode_logits(U, V, params, prep.within_src, prep.within_dst), prep.targets
        )

    start = time.time()
    report = grad_check(loss_fn, params.tensors, step=1e-4, samples_per_param=64, seed=0)
    elapsed = time.time() - start
    checked = sum(e.checked for e in report.entries)
    announce(
        1,
        report.max_rel_error <= 1e-4 and elapsed < 30.0 and checked > 0,
        f"max rel error {report.max_rel_error:.2e} over {checked} coordinates in {elapsed:.1f}s",
    )


def test_c2_oracle_equivalence():
    rng = np.random.default_rng(20)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 65))
        dim = int(rng.integers(1, 4))
        points = rng.uniform(-3, 3, size=(n, dim))
        eps = float(rng.uniform(0.2, 1.5))
        min_pts = int(rng.integers(1, 5))
        ours = dbscan(points, eps=eps, min_pts=min_pts)
        if not same_partition(ours.labels, dbscan_reference(points, eps, min_pts)):
            mismatches += 1

    max_weight_err = 0.0
    for _ in range(100):
        n_inst = int(rng.integers(1, 6))
        n_lab = int(rng.integers(1, 6))
        inst, lab = np.meshgrid(np.arange(n_inst), np.arange(n_lab), indexing="ij")
        inst, lab = inst.ravel(), lab.ravel()
        count = rng.integers(1, 25, size=len(inst))
        ours = within_weights(WithinLinks(inst=inst, lab=lab, count=count))
        expected = within_weights_reference(inst, lab, count)
        max_weight_err = max(max_weight_err, float(np.abs(ours.weight - expected).max()))

    announce(
        2,
        mismatches == 0 and max_weight_err <= 1e-12,
        f"dbscan mismatches {mismatches}/200, max weight deviation {max_weight_err:.2e}",
    )


def test_c3_decoder_normalization_every_epoch(benchmark_runs):
    runs, _ = benchmark_runs
    worst_sum = max(float(r.train_result.prob_sum_err.max()) for r in runs)
    lowest = min(float(r.train_result.mhat_min.min()) for r in runs)
    highest = max(float(r.train_result.mhat_max.max()) for r in runs)
    announce(
        3,
        worst_sum <= 1e-9 and 0.0 <= lowest and highest <= 1.0,
        f"max |sum p - 1| = {worst_sum:.2e}, m_hat range [{lowest:.3f}, {highest:.3f}] "
        f"across {sum(len(r.train_result.prob_sum_err) for r in runs)} epoch checks",
    )


def test_c4_benchmark_margins(benchmark_runs):
    runs, elapsed = benchmark_runs
    for run in runs:
        stats = dataset_stats(run.dataset)
        assert 0.4 <= stats.mean_ambiguity <= 0.6, (
            f"seed {run.config.seed}: mean ambiguity {stats.mean_ambiguity:.3f} outside [0.4, 0.6]"
        )
    acc = {m: mean_acc(runs, m) for m in ("dbgae", "cluster_voting", "pair_clustering")}
    f1 = {m: mean_f1(runs, m) for m in ("dbgae", "cluster_voting", "pair_clustering")}
    acc_margin = min(acc["dbgae"] - acc["cluster_voting"], acc["dbgae"] - acc["pair_clustering"])
    f1_margin = min(f1["dbgae"] - f1["cluster_voting"], f1["dbgae"] - f1["pair_clustering"])
    announce(
        4,
        acc_margin >= 0.10 and f1_margin >= 0.08 and elapsed <= 900.0,
        f"mean accuracy dbgae {acc['dbgae']:.3f} vs cv {acc['cluster_voting']:.3f} / "
        f"pc {acc['pair_clustering']:.3f} (margin {acc_margin:+.3f}); macro-F1 margin "
        f"{f1_margin:+.3f}; runtime {elapsed:.0f}s",
    )


def test_c5_ablation_ordering(benchmark_runs, ablation_runs, cross_heavy_runs):
    runs, _ = benchmark_runs
    full = mean_acc(runs)
    variants = {name: mean_acc(vruns) for name, vruns in ablation_runs.items()}
    heavy_gap = mean_acc(cross_heavy_runs["full"]) - mean_acc(cross_heavy_runs["no_cross"])
    ordered = all(full >= v for v in variants.values())
    announce(
        5,
        ordered and heavy_gap >= 0.03,
        f"full {full:.3f} vs "
        + ", ".join(f"{k} {v:.3f}" for k, v in sorted(variants.items()))
        + f"; cross-heavy no-cross loses {heavy_gap:.3f}",
    )


def test_c6_ambiguity_trend(benchmark_runs):
    runs, _ = benchmark_runs
    drops = {}
    for method, maker in (
        ("dbgae", lambda r: pool_labels(r.train_result.ratings, r.graph)),
        ("cluster_voting", lambda r: baseline_cluster_voting(r.graph, 1.0, 2)),
        ("pair_clustering", lambda r: baseline_pair_clustering(r.graph)),
    ):
        lo, hi = pooled_bin_accuracy(runs, [(r, maker(r)) for r in runs])
        drops[method] = lo - hi
    announce(
        6,
        drops["dbgae"] >= 0.10
        and drops["cluster_voting"] > drops["dbgae"]
        and drops["pair_clustering"] > drops["dbgae"],
        "accuracy drop low-to-high ambiguity: "
        + ", ".join(f"{k} {v:.3f}" for k, v in drops.items()),
    )


def test_c7_zero_ambiguity_sanity():
    gen = GeneratorConfig(
        num_classes=8,
        feature_dim=16,
        num_groups=60,
        min_instances=1,
        max_instances=1,
        separation=1.0,
        noise_scale=0.08,
        null_rate=0.0,
        cross_rate=0.0,
        distractor_rate=0.0,
        rng_seed=0,
    )
    ds = generate_synthetic(gen)
    stats = dataset_stats(ds)
    assert stats.mean_ambiguity == 0.0
    graph = build_dual_graph(ds, eps=1.0, min_pts=2, threshold=1.0)
    result = train(
        graph, ModelConfig(gcn_hidden=16, dense_hidden=8, num_heads=2, epochs=400, lr=5e-3, seed=0)
    )
    accs = {
        "dbgae": evaluate(pool_labels(result.ratings, graph), ds, "dbgae").accuracy,
        "cluster_voting": evaluate(baseline_cluster_voting(graph, 1.0, 2), ds, "cv").accuracy,
        "pair_clustering": evaluate(baseline_pair_clustering(graph), ds, "pc").accuracy,
    }
    announce(
        7,
        all(a == 1.0 for a in accs.values()),
        "accuracy " + ", ".join(f"{k} {v:.3f}" for k, v in accs.items()),
    )


def test_c8_determinism_and_round_trip(tmp_path, benchmark_runs):
    data = config_to_dict(RunConfig())
    data.update({"seed": 7})
    data["generator"] = {
        **data["generator"],
        "num_classes": 6,
        "num_groups": 15,
        "min_instances": 1,
        "max_instances": 2,
        "separation": 1.0,
        "noise_scale": 0.08,
        "null_rate": 0.2,
        "cross_rate": 0.2,
        "distractor_rate": 0.3,
    }
    data["model"] = {
        **data["model"],
        "gcn_hidden": 8,
        "dense_hidden": 4,
        "num_heads": 1,
        "epochs": 30,
        "lr": 0.01,
    }
    config = config_from_dict(data)
    _, first = run_pipeline(config, out_dir=tmp_path / "a")
    _, second = run_pipeline(config, out_dir=tmp_path / "b")
    identical = (
        first.report_text.read_bytes() == second.report_text.read_bytes()
        and first.report_json.read_bytes() == second.report_json.read_bytes()
        and first.ratings.read_bytes() == second.ratings.read_bytes()
    )

    runs, _ = benchmark_runs
    run = runs[0]
    ds_path = tmp_path / "bench_dataset.jsonl"
    graph_path = tmp_path / "bench_graph.jsonl"
    ratings_path = tmp_path / "bench_ratings.jsonl"
    save_dataset(run.dataset, ds_path)
    save_graph(run.graph, graph_path)
    save_ratings(run.train_result.ratings, ratings_path)
    round_trips = (
        datasets_equal(run.dataset, load_dataset(ds_path))
        and graphs_equal(run.graph, load_graph(graph_path))
        and ratings_equal(run.train_result.ratings, load_ratings(ratings_path))
    )
    announce(
        8,
        identical and round_trips,
        f"byte-identical reports: {identical}; dataset/graph/ratings round-trip: {round_trips}",
    )


def test_c9_training_stability(benchmark_runs):
    runs, _ = benchmark_runs
    all_finite = all(np.isfinite(r.train_result.loss_trace).all() for r in runs)
    monotone = True
    for run in runs:
        trace = run.train_result.loss_trace
        assert len(trace) == 1000
        windows = trace.reshape(-1, 50).mean(axis=1)
        if not (np.diff(windows) <= 0).all():
            monotone = False
    announce(
        9,
        all_finite and monotone,
        f"finite traces: {all_finite}; non-increasing 50-epoch window means: {monotone} "
        f"(5 seeds x 1000 epochs)",
    )
