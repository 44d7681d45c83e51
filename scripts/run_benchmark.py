#!/usr/bin/env python3
"""Run the synthetic benchmark over seeds and model variants; tabulate methods.

Each run is ``dbgae.benchmark.run_benchmark_seed``, the run the acceptance
suite checks.  Writes one ``variant,seed,method,accuracy,f1`` CSV row per
run and method, plus a ``mean`` row per variant and method; stdout also
gives each run's wall seconds.
``--variants full,no_cross,no_attention,no_dual`` gives the ablation table.
"""

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from dbgae.benchmark import BENCHMARK_SEEDS, run_benchmark_seed
from dbgae.data import dataset_stats
from dbgae.model import VARIANTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default=",".join(str(s) for s in BENCHMARK_SEEDS))
    parser.add_argument(
        "--variants", default="full", help=f"comma-separated, from {', '.join(VARIANTS)}"
    )
    parser.add_argument("--cross-rate", type=float, default=0.2)
    parser.add_argument("--out", default="runs/benchmark.csv")
    args = parser.parse_args(argv)

    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds {args.seeds!r} is not a comma-separated list of integers")
    variants = args.variants.split(",")
    unknown = sorted(set(variants) - set(VARIANTS))
    if unknown:
        parser.error(f"unknown variants {unknown}, expected some of {list(VARIANTS)}")
    rows = []
    t0 = time.time()
    for variant in variants:
        for seed in seeds:
            start = time.perf_counter()
            run = run_benchmark_seed(seed, variant=variant, cross_rate=args.cross_rate)
            wall = time.perf_counter() - start
            methods = run.report.methods
            rows.extend((variant, seed, m.method, m.accuracy, m.macro_f1) for m in methods)
            print(
                f"{variant} seed {seed} ({wall:.1f}s): mean ambiguity "
                f"{dataset_stats(run.dataset).mean_ambiguity:.3f}, "
                + ", ".join(f"{m.method} {m.accuracy:.3f}/{m.macro_f1:.3f}" for m in methods)
            )
    elapsed = time.time() - t0

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed", "method", "accuracy", "f1"])
        for variant, seed, method, acc, f1 in rows:
            writer.writerow([variant, seed, method, f"{acc:.6f}", f"{f1:.6f}"])
        for variant in variants:
            for method in sorted({r[2] for r in rows}):
                runs = [r for r in rows if r[0] == variant and r[2] == method]
                acc = np.mean([r[3] for r in runs])
                f1 = np.mean([r[4] for r in runs])
                writer.writerow([variant, "mean", method, f"{acc:.6f}", f"{f1:.6f}"])
                print(f"{variant} mean {method}: accuracy {acc:.4f}, macro-F1 {f1:.4f}")
    print(f"wrote {out} ({elapsed:.0f}s total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
