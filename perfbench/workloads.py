"""The benchmark's workloads: what each runs and why it was chosen.

Every workload is the reference benchmark configuration (20 classes,
32-dimensional features, 20% null, 20% displaced; ``dbgae.benchmark``) at a
stated group count and epoch count, driven through a public entry point.

Inputs come from the seed, at a stated size.  Graph size, and with it every
stage's time, varies a lot between draws of the generator (cross edges have
an interquartile range of 13% of the median at 200 groups), so a sample's
seed is the first of a seeded sequence of draws whose graphs hold the
workload's stated number of cross edges within ``SIZE_TOLERANCE``.  A run's
time then reflects the code rather than the draw.  ``tiny`` sizes exist only
for the smoke test and take the first draw.

``GATED`` lists the workloads in ``BENCHMARK.json``.  ``within200`` stays
runnable (``--workload within200`` or ``all``) as the workload that bypasses
the cross path, but it is not gated: its medians spread by 14-23% of the
median across ten seeds, against 6-14% for the other two, because its
7 ms epochs of tiny numpy calls follow the machine's speed most closely.

Importing this module does not import dbgae; the worker times that import.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

SIZE_TOLERANCE = 0.025
MAX_DRAWS = 500


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entry: str  # "run_pipeline" or "run_sweep"
    groups: int
    epochs: int
    cross_edges: int  # stated size: cross edges over the graphs one entry call builds
    variants: tuple[str, ...] = ()  # model.variant values swept by run_sweep
    tiny_groups: int = 30
    tiny_epochs: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ref200",
            why="reference config, full model, 200 groups: many small ops, training is most of the run",
            entry="run_pipeline",
            groups=200,
            epochs=60,
            cross_edges=5_800,
        ),
        Workload(
            name="scale800",
            why="800 groups, 3 epochs, artifacts read back: graph build, artifact I/O, pooling and large-edge epochs",
            entry="run_pipeline",
            groups=800,
            epochs=3,
            cross_edges=89_800,
            tiny_groups=60,
            tiny_epochs=2,
        ),
        Workload(
            name="within200",
            why="run_sweep over no_cross and no_dual at 200 groups: model and autodiff with the cross path bypassed",
            entry="run_sweep",
            groups=200,
            epochs=60,
            cross_edges=2 * 5_800,
            variants=("no_cross", "no_dual"),
        ),
    )
}


GATED = ("ref200", "scale800")


def _draw_seed(seed: int, sample: int, draw: int) -> int:
    digest = hashlib.sha256(f"perfbench:{seed}:{sample}:{draw}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def base_config(workload: Workload, seed: int, out_dir, tiny: bool = False):
    """The RunConfig of one entry call; generator and model seeds derive from ``seed``."""
    from dataclasses import replace

    from dbgae.benchmark import (
        benchmark_generator_config,
        benchmark_graph_config,
        benchmark_model_config,
    )
    from dbgae.pipeline import RunConfig

    return RunConfig(
        seed=seed,
        out_dir=str(out_dir),
        generator=replace(
            benchmark_generator_config(0),
            num_groups=workload.tiny_groups if tiny else workload.groups,
        ),
        graph=benchmark_graph_config(),
        model=replace(
            benchmark_model_config(0),
            epochs=workload.tiny_epochs if tiny else workload.epochs,
        ),
    )


def cross_edge_count(config) -> int:
    """Cross edges the pipeline will build for ``config``, without building them.

    Each homogeneous neighbour j of instance i donates all of its group's
    labels, and donors of one instance sit in distinct groups, so the count
    is the sum of the donors' label counts.
    """
    import numpy as np

    from dbgae.data import generate_synthetic
    from dbgae.graph import homogeneous_neighbors

    resolved = config.resolved()
    ds = generate_synthetic(resolved.generator)
    rows = [(g.group_id, len(g.labels), inst.features) for g in ds.groups for inst in g.instances]
    if not rows:
        return 0
    groups = np.array([r[0] for r in rows])
    labels = np.array([r[1] for r in rows])
    features = np.array([r[2] for r in rows])
    neighbors = homogeneous_neighbors(features, groups, resolved.graph.threshold)
    return int(sum(labels[nb].sum() for nb in neighbors))


def draw_run_seed(workload: Workload, seed: int, sample: int, tiny: bool = False) -> tuple[int, int]:
    """(run seed, draws rejected) for one sample of a run with ``seed``."""
    from dbgae.pipeline import derive_seed

    target = workload.cross_edges
    for draw in range(MAX_DRAWS):
        run_seed = _draw_seed(seed, sample, draw)
        if tiny:
            return run_seed, 0
        # run_sweep gives value k the seed derive_seed(base, k, replicate).
        call_seeds = (
            [derive_seed(run_seed, k, 0) for k in range(len(workload.variants))]
            if workload.entry == "run_sweep"
            else [run_seed]
        )
        size = sum(cross_edge_count(base_config(workload, s, "")) for s in call_seeds)
        if abs(size - target) <= SIZE_TOLERANCE * target:
            return run_seed, draw
    raise RuntimeError(f"{workload.name}: no draw of {MAX_DRAWS} has {target} cross edges")


def run_entry(workload: Workload, seed: int, out_dir, tiny: bool = False):
    """Run the workload's entry call with run seed ``seed``."""
    from dbgae.pipeline import SweepSpec, run_pipeline, run_sweep

    config = base_config(workload, seed, out_dir, tiny)
    if workload.entry == "run_sweep":
        return run_sweep(SweepSpec(param="model.variant", values=workload.variants), config, out_dir)
    return run_pipeline(config, out_dir=out_dir)
