#!/usr/bin/env python3
"""dbgae benchmark: end-to-end stage times and an outside-in layer trace.

    python3 perfbench/run.py --workload ref200 --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

Each sample is one fresh worker process (``worker.py``) that runs the
workload's public entry call (``run_pipeline`` or ``run_sweep``) on inputs
generated from the seed.  Samples repeat until ``--seconds`` is spent (at
least three), and the medians are reported.

``--trace 0``: sample k draws its own inputs from (seed, k), so a run covers
several datasets of the workload's stated size; prints the end-to-end
metrics.
``--trace 1``: one untraced run and at least two traced runs, all on the
inputs of (seed, 0); prints the per-layer metrics and checks that
outputs are byte-identical and exact counts repeat across the set.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; results and spans go to ``.perfbench_out/``.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
library source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name, unit, better
E2E_METRICS = (
    ("pipeline_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy.cluster_voting", "ratio", "higher"),
    ("accuracy.pair_clustering", "ratio", "higher"),
)
# Printed and saved beside the metrics but not bounded: across ten seeds
# their medians spread too far for a bound of at most 25%.  Short stages
# follow the machine's speed, which on a shared 2-core Xeon VM moved a fixed
# numpy loop between 85 and 139 ms within 40 s; the interquartile range of
# the medians reached 18% of the median for build_graph_s (scale800), 14%
# for predict_s (ref200, scale800) and 26% for io_s (ref200).  At a fixed
# small epoch count the autoencoder's scores swing between draws (8% on
# ref200, 40% on scale800), so they identify outputs rather than rank code.
UNBOUNDED = (
    ("build_graph_s", "s"),
    ("predict_s", "s"),
    ("io_s", "s"),
    ("accuracy.dbgae", "ratio"),
    ("macro_f1.dbgae", "ratio"),
)

MIN_SAMPLES = 3  # untraced samples per run
MIN_TRACED = 2  # traced samples per run, so exact counts can be compared
DEADLINE_S = 170.0  # no worker may run past this point of a run
# One process, no extra threads: pin the BLAS and OpenMP pools to one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_worker(spec: dict, timeout: float) -> dict:
    """Run one sample; a crash or timeout comes back as a failed result."""
    out_dir = Path(spec["out_dir"])
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"worker timed out after {timeout:.0f}s", "wall_s": timeout}
    wall = time.monotonic() - start
    result_file = out_dir / "result.json"
    if proc.returncode != 0 or not result_file.exists():
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"crash": f"worker exit {proc.returncode}: {tail}", "wall_s": wall}
    result = json.loads(result_file.read_text())
    result["wall_s"] = wall
    spans = out_dir / "spans.json"
    result["spans"] = json.loads(spans.read_text()) if spans.exists() else []
    return result


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _median(values):
    return statistics.median(values) if values else 0.0


class Tally:
    """Attempted and failed stage calls and checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, passed: bool, detail: str = ""):
        self.attempted += 1
        if not passed:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def add_sample(self, label: str, sample: dict):
        if "crash" in sample:
            self.check(f"{label} worker", False, sample["crash"])
            return
        self.attempted += sample["stage_calls"]
        self.failures += [f"{label} call {f}" for f in sample["call_failures"]]
        if sample["entry_error"] and not sample["call_failures"]:
            self.check(f"{label} entry", False, sample["entry_error"])
        for c in sample["checks"]:
            self.check(f"{label} {c['name']}", c["passed"], c["detail"])

    @property
    def failed(self) -> int:
        return len(self.failures)


def _count_diff(a: dict, b: dict, keys) -> dict:
    return {k: (a.get(k), b.get(k)) for k in sorted(keys) if a.get(k) != b.get(k)}


def _same_seed_checks(tally: Tally, samples: list[dict]):
    """c8 byte-identical outputs and exact counts across one same-seed set."""
    good = [s for s in samples if "crash" not in s]
    if len(good) < 2:
        tally.check("same-seed set", False, f"{len(good)} usable runs, need 2")
        return
    run0 = good[0]
    traced0 = next((s for s in good if s["layers"]), None)
    for k, s in enumerate(good[1:], start=1):
        tally.check(
            f"run{k} outputs byte-identical",
            s["outputs"] == run0["outputs"] and bool(run0["outputs"]),
            f"report/ratings hashes differ from run0: {s['outputs']} vs {run0['outputs']}",
        )
        # An untraced run records only the stage-level counts: compare those
        # with run0, and every count with the first traced run.
        a, b = run0["exact"], s["exact"]
        diff = _count_diff(a, b, a.keys() & b.keys())
        if s["layers"] and s is not traced0:
            diff.update(_count_diff(traced0["exact"], b, traced0["exact"].keys() | b.keys()))
        tally.check(f"run{k} exact counts", not diff, f"differ: {diff}")


def run_set(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    workload = WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}" + ("-tiny" if tiny else "")
    work = OUT / f"{tag}.work"
    start = time.monotonic()
    load_start = os.getloadavg()
    tally = Tally()
    samples: list[dict] = []

    def sample(k: int, draw_from: int, traced: bool) -> dict:
        spec = {
            "run_id": f"{tag}-s{k}",
            "workload": name,
            "seed": seed,
            "sample": draw_from,
            # One directory for every sample: its path is written into the
            # resolved config, whose size must repeat exactly.
            "out_dir": str(work / "sample"),
            "trace": traced,
            "tiny": tiny,
        }
        s = run_worker(spec, DEADLINE_S - (time.monotonic() - start))
        s["traced"] = traced
        tally.add_sample(f"s{k}", s)
        samples.append(s)
        return s

    def budget_left(count: int, minimum: int) -> bool:
        elapsed = time.monotonic() - start
        typical = _median([s["wall_s"] for s in samples])
        if elapsed + typical > DEADLINE_S - 10:
            return False
        return count < minimum or elapsed + typical <= seconds

    if trace:
        untraced = sample(0, 0, False)
        traced = []
        while budget_left(len(traced), MIN_TRACED):
            traced.append(sample(len(samples), 0, True))
        _same_seed_checks(tally, samples)
        good = [s for s in traced if "crash" not in s]
        metrics = {
            m: {"value": _median([s["layers"][m] for s in good]), "unit": unit}
            for m, unit, _, _ in LAYER_METRICS
        }
        pipe_traced = _median([s["e2e"]["pipeline_s"] for s in good])
        pipe_plain = untraced.get("e2e", {}).get("pipeline_s", 0.0)
        overhead = pipe_traced / pipe_plain if pipe_plain else None
        spans = [span for s in traced for span in s.get("spans", [])]
        unbounded = {}
    else:
        while budget_left(len(samples), MIN_SAMPLES):
            sample(len(samples), len(samples), False)
        good = [s for s in samples if "crash" not in s]
        metrics = {
            m: {"value": _median([s["e2e"][m] for s in good]), "unit": unit}
            for m, unit, _ in E2E_METRICS
        }
        unbounded = {
            m: {"value": _median([s["e2e"][m] for s in good]), "unit": unit}
            for m, unit in UNBOUNDED
        }
        overhead = None
        spans = []
    if not good:
        tally.check("samples", False, "no worker produced a result")

    first = good[0]["env"] if good else {}
    env = {
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": first.get("python", platform.python_version()),
        "numpy": first.get("numpy"),
        "blas": first.get("blas"),
        "blas_threads": {v: "1" for v in THREAD_VARS},
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "trace_overhead": overhead,
    }
    summary = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "trace": int(trace),
        "tiny": tiny,
        "seconds": seconds,
        "elapsed_s": time.monotonic() - start,
        "samples": len(good),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "failures": tally.failures,
        "metrics": metrics,
        "unbounded": unbounded,
        "env": env,
        "per_sample": [
            {k: s.get(k) for k in ("run_seed", "draws_rejected", "traced", "wall_s", "e2e", "exact", "crash")}
            for s in samples
        ],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(summary, indent=1))
    if trace:
        (OUT / f"{tag}.spans.json").write_text(json.dumps(spans))
    shutil.rmtree(work, ignore_errors=True)
    return summary


def print_summary(summary: dict):
    mode = "per-layer (traced)" if summary["trace"] else "end-to-end"
    print(
        f"== {summary['workload']} seed {summary['seed']}: {mode}, "
        f"{summary['samples']} samples in {summary['elapsed_s']:.1f}s, "
        f"error_rate {summary['error_rate']:.4f} ({summary['failed']}/{summary['attempted']})"
    )
    for name, m in summary["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    for name, m in summary["unbounded"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']} (unbounded)")
    env = summary["env"]
    print(
        f"  env: {env['cores']} cores, {env['cpu_model']}, python {env['python']}, "
        f"numpy {env['numpy']}, blas {env['blas']}, loadavg {env['loadavg_start'][0]:.2f}"
        f" -> {env['loadavg_end'][0]:.2f}"
        + (f", trace overhead x{env['trace_overhead']:.3f}" if env["trace_overhead"] else "")
    )
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "dbgae" / "__init__.py").is_file():
        print(f"benchmark: no dbgae source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    summaries = []
    for name, trace in runs:
        summary = run_set(name, args.seed, args.seconds, trace, args.tiny)
        print_summary(summary)
        summaries.append(summary)

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {
            f"{s['workload']}.{m}": v for s in summaries for m, v in s["metrics"].items()
        }
    correct = all(s["correct"] for s in summaries)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(s["attempted"] for s in summaries),
                "failed": sum(s["failed"] for s in summaries),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
