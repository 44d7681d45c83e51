"""End-to-end pipeline: generate, build graph, train, predict, evaluate.

``execute`` runs the stages in memory.  ``run_pipeline`` drives it from one
nested config with a single global seed (the generator and model seeds are
derived from it) and writes every artifact into the run directory, the
resolved config among them, so any run can be reproduced from its own
output directory.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import jsonl
from .data import GeneratorConfig, GpllDataset, generate_synthetic, save_dataset
from .errors import ConfigError, DbgaeError, PipelineError
from .evaluation import EvalReport, build_report, save_curves, save_report
from .graph import DualBipartiteGraph, build_dual_graph, graph_file, save_graph
from .inference import (
    POOL_THRESHOLD,
    Prediction,
    baseline_cluster_voting,
    baseline_pair_clustering,
    pool_labels,
    save_predictions,
)
from .model import (
    ModelConfig,
    TrainResult,
    ratings_file,
    save_loss_trace,
    save_params,
    save_ratings,
    train,
)

DBGAE_METHOD = "dbgae"
BASELINE_METHODS = ("cluster_voting", "pair_clustering")


@dataclass(frozen=True)
class GraphConfig:
    eps: float = 1.0
    min_pts: int = 2
    threshold: float = 1.0

    def validate(self):
        if self.eps <= 0:
            raise ConfigError("eps must be > 0")
        if self.min_pts < 1:
            raise ConfigError("min_pts must be >= 1")
        if self.threshold <= 0:
            raise ConfigError("threshold must be > 0")


@dataclass(frozen=True)
class InferenceConfig:
    tau: float = POOL_THRESHOLD

    def validate(self):
        if not 0 <= self.tau <= 1:
            raise ConfigError("tau must lie in [0, 1]")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/run"
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)

    def validate(self):
        self.generator.validate()
        self.graph.validate()
        self.model.validate()
        self.inference.validate()

    def resolved(self) -> "RunConfig":
        """Propagate the global seed into the generator and model sections."""
        return replace(
            self,
            generator=replace(self.generator, rng_seed=derive_seed(self.seed, "generator")),
            model=replace(self.model, seed=derive_seed(self.seed, "model")),
        )


def derive_seed(base: int, *parts) -> int:
    """Stable seed derivation; decorrelated across parts, reproducible across runs."""
    digest = hashlib.sha256(repr((int(base),) + tuple(parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


_SECTIONS = ("generator", "graph", "model", "inference")
_SECTION_TYPES = {
    "generator": GeneratorConfig,
    "graph": GraphConfig,
    "model": ModelConfig,
    "inference": InferenceConfig,
}
# Section seeds come from the global seed during resolution.
_MANAGED_KEYS = {"generator": {"rng_seed"}, "model": {"seed"}}


def config_to_dict(config: RunConfig) -> dict:
    out = {"seed": config.seed, "out_dir": config.out_dir}
    for section in _SECTIONS:
        body = asdict(getattr(config, section))
        for key, value in list(body.items()):
            if isinstance(value, tuple):
                body[key] = list(value)
        out[section] = body
    return out


_KINDS = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    tuple: "a list of finite numbers",
}


def _number(value) -> float | None:
    """``value`` as a float, or None unless it is a finite number (a bool is
    not a number)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _typed(where: str, value, default):
    """``value`` for a field whose default is ``default``, or a ConfigError
    naming ``where``: a bool is not an int, an int is taken for a float, and
    a tuple field takes a list of numbers."""
    if isinstance(default, tuple):
        if isinstance(value, (list, tuple)):
            numbers = [_number(v) for v in value]
            if None not in numbers:
                return tuple(numbers)
    elif isinstance(default, float):
        number = _number(value)
        if number is not None:
            return number
    elif type(value) is type(default):
        return value
    raise ConfigError(f"{where} must be {_KINDS[type(default)]}, got {value!r}")


def config_from_dict(data: dict) -> RunConfig:
    """Build and validate a RunConfig; every problem is a ConfigError that
    names the key."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - set(_SECTIONS) - {"seed", "out_dir"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {
        key: _typed(key, data[key], getattr(RunConfig, key))
        for key in ("seed", "out_dir")
        if key in data
    }
    for section in _SECTIONS:
        body = data.get(section, {})
        if not isinstance(body, dict):
            raise ConfigError(f"'{section}' must be a JSON object")
        defaults = _SECTION_TYPES[section]()
        known = {f.name for f in fields(defaults)}
        bad = set(body) - known
        if bad:
            raise ConfigError(f"unknown keys in '{section}': {sorted(bad)}")
        kwargs[section] = replace(
            defaults,
            **{k: _typed(f"{section}.{k}", v, getattr(defaults, k)) for k, v in body.items()},
        )
    config = RunConfig(**kwargs)
    config.validate()
    return config


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(data)


def save_config(config: RunConfig, path):
    with jsonl.atomic_open(path) as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def apply_override(data: dict, dotted_key: str, raw_value: str) -> dict:
    """Apply a ``section.key=value`` override onto a config dict.

    Values are parsed as JSON when possible, else taken as strings.
    """
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    parts = dotted_key.split(".")
    if len(parts) == 1:
        data = dict(data)
        data[parts[0]] = value
        return data
    if len(parts) == 2 and parts[0] in _SECTIONS:
        data = dict(data)
        body = dict(data.get(parts[0], {}))
        if parts[1] in _MANAGED_KEYS.get(parts[0], set()):
            raise ConfigError(
                f"'{dotted_key}' is derived from the global seed; set 'seed' instead"
            )
        body[parts[1]] = value
        data[parts[0]] = body
        return data
    raise ConfigError(f"cannot apply override '{dotted_key}'")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineArtifacts:
    out_dir: Path
    dataset: Path
    graph: Path
    params: Path
    ratings: Path
    loss_trace: Path
    predictions: dict[str, Path]
    report_text: Path
    report_json: Path
    curves: Path
    resolved_config: Path


def _artifact_paths(out_dir: Path) -> PipelineArtifacts:
    return PipelineArtifacts(
        out_dir=out_dir,
        dataset=out_dir / "dataset.jsonl",
        graph=out_dir / "graph.jsonl",
        params=out_dir / "params.json",
        ratings=out_dir / "ratings.jsonl",
        loss_trace=out_dir / "loss_trace.csv",
        predictions={
            m: out_dir / f"pred_{m}.jsonl" for m in (DBGAE_METHOD,) + BASELINE_METHODS
        },
        report_text=out_dir / "report.txt",
        report_json=out_dir / "report.json",
        curves=out_dir / "curves.csv",
        resolved_config=out_dir / "resolved_config.json",
    )


@dataclass
class RunResult:
    """What one run computes, in memory."""

    config: RunConfig  # as executed: section seeds set
    dataset: GpllDataset
    graph: DualBipartiteGraph
    train_result: TrainResult
    predictions: dict[str, list[Prediction]]
    report: EvalReport


def _stage(name, fn):
    try:
        return fn()
    except (DbgaeError, OSError) as exc:
        raise PipelineError(name, str(exc)) from exc


def execute(resolved: RunConfig) -> RunResult:
    """Generate, build the graph, train, predict with every method, evaluate.

    ``resolved`` is taken as given: its generator and model sections carry
    the seeds used (``RunConfig.resolved`` derives them from the global
    seed).  Nothing is written.  Raises PipelineError naming the failing
    stage.
    """
    return _score(resolved, *_fit(resolved))


def _fit(resolved: RunConfig):
    """The generate, build-graph and train stages: (dataset, graph, train result)."""
    gc = resolved.graph
    ds = _stage("generate", lambda: generate_synthetic(resolved.generator))
    graph = _stage(
        "build-graph",
        lambda: build_dual_graph(ds, eps=gc.eps, min_pts=gc.min_pts, threshold=gc.threshold),
    )
    result = _stage("train", lambda: train(graph, resolved.model))
    return ds, graph, result


def _score(resolved: RunConfig, ds, graph, result) -> RunResult:
    """The predict and evaluate stages on what ``_fit`` returned."""
    gc = resolved.graph
    predictions = _stage(
        "predict",
        lambda: {
            DBGAE_METHOD: pool_labels(result.ratings, graph, tau=resolved.inference.tau),
            "cluster_voting": baseline_cluster_voting(graph, eps=gc.eps, min_pts=gc.min_pts),
            "pair_clustering": baseline_pair_clustering(graph),
        },
    )
    report = _stage("evaluate", lambda: build_report(predictions, ds))
    return RunResult(resolved, ds, graph, result, predictions, report)


# What ``run_pipeline`` does between the fork of the encoder and writing the
# graph and ratings files, in ``jsonl``'s cost units (an int slot of a
# ``Columns`` block: 0.11 us on one core of a 2-core Xeon VM, where the
# graph and ratings files of the runs below took 0.106-0.116 us a unit).
# Fitted to the serial CPU of each piece in ``run_pipeline`` on the
# benchmark config (run seed 0, 3 epochs) at 200, 400, 800 and 1600 groups,
# one BLAS thread, best of 4 runs: ``pool_labels`` takes about one unit a
# ratings row (0.8-1.2); cluster voting, pair clustering, ``build_report``
# and the three predictions files about 200 units an instance (170 at 200
# groups, 250 at 1600); a feature value of the dataset file or a parameter
# of the checkpoint, dumped by ``json.dumps``, about 6 units (5 and 7).
# The model is within 8% of the measured sum at every size.  The loss
# trace, report and curves files (under 1 ms) are left out.
WORK_PER_RATING = 1
WORK_PER_INSTANCE = 200
WORK_PER_JSON_FLOAT = 6


def _work_after_train(graph: DualBipartiteGraph, result: TrainResult) -> int:
    """The cost model above for one run."""
    n = graph.num_instances
    params = sum(t.value.size for t in result.params.tensors.values())
    return (
        WORK_PER_RATING * len(result.ratings)
        + WORK_PER_INSTANCE * n
        + WORK_PER_JSON_FLOAT * (n * graph.feature_dim + params)
    )


def _write_artifacts(run: RunResult, paths: PipelineArtifacts):
    """Every artifact but the resolved config; the graph and ratings files,
    which the encoder shares, last."""
    result = run.train_result
    save_dataset(run.dataset, paths.dataset)
    save_params(result.params, paths.params)
    save_loss_trace(result, paths.loss_trace)
    for method, predictions in run.predictions.items():
        save_predictions(predictions, method, paths.predictions[method])
    save_report(run.report, paths.report_text, paths.report_json)
    save_curves(run.report, paths.curves)
    save_graph(run.graph, paths.graph)
    save_ratings(result.ratings, paths.ratings)


def run_pipeline(config: RunConfig, out_dir=None) -> tuple[EvalReport, PipelineArtifacts]:
    """Resolve ``config``, run the stages of ``execute``, write every artifact.

    ``resolved_config.json`` is written before the first stage.  When train
    returns, one encoder process (``jsonl.encoder``) starts on the tail of
    the graph and ratings files' column blocks, cut at the middle of the
    work left (``_work_after_train`` plus the blocks).  Predict and evaluate
    run beside it; then every other artifact is written, and the graph and
    ratings files last, each completed with the encoder's part.  A failed
    stage kills the encoder and leaves only the resolved config.  Raises
    PipelineError naming the failing stage ("write" for the artifacts).
    """
    config.validate()
    resolved = config.resolved()
    paths = _artifact_paths(Path(out_dir if out_dir is not None else resolved.out_dir))
    paths.out_dir.mkdir(parents=True, exist_ok=True)
    save_config(resolved, paths.resolved_config)
    ds, graph, result = _fit(resolved)
    shared = {paths.graph: graph_file(graph)[1], paths.ratings: ratings_file(result.ratings)[1]}
    with contextlib.ExitStack() as stack:
        work = _work_after_train(graph, result)
        _stage("write", lambda: stack.enter_context(jsonl.encoder(shared, work)))
        run = _score(resolved, ds, graph, result)
        _stage("write", lambda: _write_artifacts(run, paths))
    return run.report, paths


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    param: str  # dotted config key, e.g. generator.cross_rate or model.variant
    values: tuple
    replicates: int = 1

    def validate(self):
        if not self.values:
            raise ConfigError("sweep needs at least one value")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if self.param in ("seed", "out_dir"):
            raise ConfigError(
                f"sweep param '{self.param}' is set per run by the sweep itself"
                " (derived seeds, run directories)"
            )


@dataclass
class SweepRow:
    value: object
    replicate: int
    method: str
    accuracy: float
    f1: float


def run_sweep(spec: SweepSpec, base: RunConfig, out_dir) -> list[SweepRow]:
    """One pipeline run per (value, replicate) with derived seeds.

    Values whose run directories would be the same (``full,full``, ``"a b"``
    and ``ab``, ``0.1`` and ``0.10``), and a sweep over ``seed`` or
    ``out_dir``, which the sweep sets for each run, raise ConfigError before
    any run.
    Failures are recorded in ``sweep_errors.csv`` and the sweep continues.
    """
    spec.validate()
    out_root = Path(out_dir)
    value_dirs = {}  # run directory name -> its value, in value order
    for value in spec.values:
        safe = str(value).replace("/", "_").replace(" ", "")
        name = f"{spec.param.replace('.', '_')}={safe}"
        if name in value_dirs:
            raise ConfigError(
                f"sweep values {value_dirs[name]!r} and {value!r} share the run directory {name}"
            )
        value_dirs[name] = value
    out_root.mkdir(parents=True, exist_ok=True)
    rows: list[SweepRow] = []
    failures: list[tuple] = []
    base_dict = config_to_dict(base)
    for vi, (name, value) in enumerate(value_dirs.items()):
        for rep in range(spec.replicates):
            run_dict = apply_override(dict(base_dict), spec.param, json.dumps(value))
            run_dict["seed"] = derive_seed(base.seed, vi, rep)
            run_dir = out_root / name / f"rep{rep}"
            run_dict["out_dir"] = str(run_dir)
            try:
                config = config_from_dict(run_dict)
                report, _ = run_pipeline(config, out_dir=run_dir)
            except DbgaeError as exc:
                failures.append((value, rep, str(exc)))
                continue
            for method_report in report.methods:
                rows.append(
                    SweepRow(
                        value=value,
                        replicate=rep,
                        method=method_report.method,
                        accuracy=method_report.accuracy,
                        f1=method_report.macro_f1,
                    )
                )
    save_sweep(rows, out_root / "sweep.csv")
    if failures:
        save_sweep_errors(failures, out_root / "sweep_errors.csv")
    return rows


def save_sweep(rows: list[SweepRow], path):
    """One ``value,replicate,method,accuracy,f1`` row per method of each run."""
    with jsonl.atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "replicate", "method", "accuracy", "f1"])
        for row in rows:
            writer.writerow(
                [row.value, row.replicate, row.method, f"{row.accuracy:.6f}", f"{row.f1:.6f}"]
            )


def save_sweep_errors(failures: list[tuple], path):
    """One ``value,replicate,error`` row per sweep run that raised."""
    with jsonl.atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "replicate", "error"])
        writer.writerows(failures)
