#!/usr/bin/env python3
"""One benchmark sample, in a fresh interpreter.

Usage: worker.py '<json spec>'  with keys run_id, workload, seed, sample,
out_dir, trace and tiny.

Times ``import dbgae``, draws the sample's inputs at the workload's stated
size (untimed), runs the workload's entry call with stage (and, when
tracing, layer) spans recorded from outside, reads back every saved dataset,
graph and ratings file and compares it with the in-memory object, checks the
training diagnostics, then times one ``prepare_graph`` on the run's graph.
Writes ``result.json`` (and ``spans.json`` when tracing) into ``out_dir``.
Exits non-zero only when dbgae cannot be imported from this checkout.
"""

import gc
import hashlib
import importlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PROB_SUM_TOL = 1e-9


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _env_info() -> dict:
    import numpy as np

    blas = {"name": "unknown", "version": "unknown"}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name", "unknown"), "version": deps.get("version", "unknown")}
    except Exception:  # older numpy has no dict mode; the block is informational
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def main(argv) -> int:
    spec = json.loads(argv[1])
    out_dir = Path(spec["out_dir"])
    traced = bool(spec["trace"])

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import dbgae

    import_s = time.perf_counter() - start
    if Path(dbgae.__file__).resolve().parent != (SRC / "dbgae").resolve():
        print(f"dbgae imported from {dbgae.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracing import READ_BACK, STAGE, TARGETS, Tracer, exact_counts, layer_metrics
    from workloads import WORKLOADS, draw_run_seed, run_entry

    workload = WORKLOADS[spec["workload"]]
    tiny = spec.get("tiny", False)
    run_seed, rejected = draw_run_seed(workload, spec["seed"], spec["sample"], tiny)
    entry_span = f"pipeline.{workload.entry}"
    targets = [
        t
        for t in TARGETS
        if (traced or t.level == STAGE)
        and (t.span != "pipeline.run_sweep" or workload.entry == "run_sweep")
    ]

    gc.collect()  # drop the draws' garbage so the run starts from a fresh-process heap
    tracer = Tracer(run_id=spec["run_id"])
    checks = []  # (name, passed, detail)
    entry_error = None
    try:
        tracer.install(targets)
        try:
            run_entry(workload, run_seed, out_dir / "run", tiny=tiny)
        except Exception as exc:  # a failed run is reported, not raised
            entry_error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()

        for span, obj, path in tracer.saved:
            artifact, module, loader, equal = READ_BACK[span]
            mod = importlib.import_module(module)
            try:
                same = getattr(mod, equal)(obj, getattr(mod, loader)(path))
            except Exception as exc:
                same, detail = False, f"{type(exc).__name__}: {exc}"
            else:
                detail = "" if same else f"reloaded {artifact} differs from the saved one"
            checks.append((f"read_back.{artifact}", same, f"{path}: {detail}" if detail else ""))
    finally:
        tracer.uninstall()

    for k, result in enumerate(tracer.train_results):
        worst = float(result.prob_sum_err.max())
        checks.append(
            (f"train{k}.prob_sum_err", worst <= PROB_SUM_TOL, f"max prob_sum_err {worst:.3e}")
        )
        finite = all(math.isfinite(x) for x in result.loss_trace)
        checks.append((f"train{k}.finite_loss", finite, "" if finite else "non-finite loss"))
    uncovered = tracer.uncovered()
    checks.append(("coverage", not uncovered, "never called: " + ", ".join(uncovered)))

    # Set-up: the fresh-interpreter import plus one prepare_graph on this
    # run's graph, timed with the wrappers removed.
    prepare_s = 0.0
    if tracer.train_inputs:
        from dbgae.model import prepare_graph

        graph, config = tracer.train_inputs[0]
        t0 = time.perf_counter()
        prepare_graph(graph, config)
        prepare_s = time.perf_counter() - t0

    calls, total, _ = tracer.span_table()
    stage_calls = sum(calls[t.span] for t in tracer.wrapped if t.level == STAGE)

    def stage_s(*spans):
        return sum(total[s] for s in spans)

    io_spans = [t.span for t in tracer.wrapped if t.span.startswith("io.")]
    methods = {}
    for report in tracer.reports:
        for m in report.methods:
            methods.setdefault(m.method, []).append((m.accuracy, m.macro_f1))

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    run_dirs = sorted(p.parent for p in (out_dir / "run").rglob("report.json"))
    outputs = {
        str(d.relative_to(out_dir)): {
            "report.json": _sha256(d / "report.json"),
            "ratings.jsonl": _sha256(d / "ratings.jsonl"),
        }
        for d in run_dirs
    }

    result = {
        "run_seed": run_seed,
        "draws_rejected": rejected,
        "entry_error": entry_error,
        "call_failures": tracer.failures,
        "stage_calls": stage_calls,
        "checks": [{"name": n, "passed": bool(p), "detail": d} for n, p, d in checks],
        "e2e": {
            "pipeline_s": stage_s(entry_span),
            "setup_s": import_s + prepare_s,
            "build_graph_s": stage_s("graph.build_dual_graph"),
            "train_s": stage_s("model.train"),
            "predict_s": stage_s(
                "inference.pool_labels",
                "inference.baseline_cluster_voting",
                "inference.baseline_pair_clustering",
            ),
            "io_s": stage_s(*io_spans),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy.dbgae": mean([a for a, _ in methods.get("dbgae", [])]),
            "macro_f1.dbgae": mean([f for _, f in methods.get("dbgae", [])]),
            "accuracy.cluster_voting": mean([a for a, _ in methods.get("cluster_voting", [])]),
            "accuracy.pair_clustering": mean([a for a, _ in methods.get("pair_clustering", [])]),
        },
        "import_s": import_s,
        "prepare_s": prepare_s,
        "layers": layer_metrics(tracer) if traced else {},
        "exact": exact_counts(tracer),
        "outputs": outputs,
        "env": _env_info(),
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=1))
    if traced:
        (out_dir / "spans.json").write_text(json.dumps(tracer.spans_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
