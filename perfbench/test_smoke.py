"""Smoke tests of the benchmark itself, at tiny sizes (a few seconds).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import LAYER_METRICS, TARGETS, Target, Tracer  # noqa: E402
from workloads import GATED, WORKLOADS  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_every_workload_and_check_passes_at_tiny_size():
    proc = _run("--workload", "all", "--tiny", "--seconds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m for m, _, _ in run.E2E_METRICS] + [m for m, _, _, _ in LAYER_METRICS]
    for workload in WORKLOADS:
        for name in names:
            assert f"{workload}.{name}" in result["metrics"]
    for workload in WORKLOADS:
        summary = json.loads((run.OUT / f"{workload}-seed0-trace1-tiny.json").read_text())
        assert summary["env"]["trace_overhead"] > 0
        assert json.loads((run.OUT / f"{workload}-seed0-trace1-tiny.spans.json").read_text())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (WORKLOADS[n].name, WORKLOADS[n].why) for n in GATED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m, u) for m, u, _, _ in LAYER_METRICS]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_missing_source_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "ref200", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrappers_rebind_imported_names_and_restore_them():
    import dbgae.graph
    import dbgae.inference

    original = dbgae.graph.dbscan
    tracer = Tracer("t")
    tracer.install([t for t in TARGETS if t.span == "graph.dbscan"])
    try:
        assert dbgae.inference.dbscan is dbgae.graph.dbscan is not original
        dbgae.graph.dbscan([[0.0], [0.1], [5.0]], eps=1.0, min_pts=2)
    finally:
        tracer.uninstall()
    assert dbgae.inference.dbscan is dbgae.graph.dbscan is original
    assert tracer.counters["graph.dbscan.points"] == 3
    assert tracer.uncovered() == []


def test_coverage_guard_names_a_missing_or_uncalled_function():
    tracer = Tracer("t")
    with pytest.raises(AttributeError, match="dbgae.graph.renamed_away"):
        tracer.install([Target("graph.gone", "dbgae.graph", "renamed_away", "layer")])
    tracer.install([t for t in TARGETS if t.span == "graph.cross_links"])
    tracer.uninstall()
    assert tracer.uncovered() == ["dbgae.graph.cross_links"]


def test_same_seed_checks_fail_on_a_count_or_output_mismatch():
    base = {"outputs": {"run": {"report.json": "a"}}, "exact": {"graph.cross_edges": 10}, "layers": {}}
    tally = run.Tally()
    run._same_seed_checks(tally, [base, dict(base), dict(base, exact={"graph.cross_edges": 11})])
    assert tally.failed == 1 and "graph.cross_edges" in tally.failures[0]
    tally = run.Tally()
    run._same_seed_checks(tally, [base, dict(base, outputs={"run": {"report.json": "b"}})])
    assert tally.failed == 1 and "byte-identical" in tally.failures[0]
    traced = dict(base, layers={"x": 1.0}, exact={"graph.cross_edges": 10, "autodiff.tape.nodes": 109})
    tally = run.Tally()
    run._same_seed_checks(
        tally, [base, traced, dict(traced, exact={"graph.cross_edges": 10, "autodiff.tape.nodes": 110})]
    )
    assert tally.failed == 1 and "autodiff.tape.nodes" in tally.failures[0]
