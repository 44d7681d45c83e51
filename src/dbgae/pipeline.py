"""End-to-end pipeline: generate, build graph, train, predict, evaluate.

A run is driven by one nested config with a single global seed; the
generator and model seeds are derived from it, every artifact is written
into the run directory, and the resolved config is emitted alongside the
results so any run can be reproduced from its own output directory.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import jsonl
from .data import GeneratorConfig, generate_synthetic, save_dataset
from .errors import ConfigError, DbgaeError, PipelineError
from .evaluation import DEFAULT_FREQUENCY_EDGES, EvalReport, build_report, save_curves, save_report
from .graph import build_dual_graph, save_graph
from .inference import (
    POOL_THRESHOLD,
    baseline_cluster_voting,
    baseline_pair_clustering,
    pool_labels,
    save_predictions,
)
from .model import ModelConfig, save_loss_trace, save_params, save_ratings, train

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
    cosine_on_raw: bool = True  # False: cosine over learned instance embeddings

    def validate(self):
        if not 0 <= self.tau <= 1:
            raise ConfigError("tau must lie in [0, 1]")


@dataclass(frozen=True)
class EvaluationConfig:
    ambiguity_bins: int = 10
    frequency_edges: tuple[int, int] = DEFAULT_FREQUENCY_EDGES

    def validate(self):
        if self.ambiguity_bins < 1:
            raise ConfigError("ambiguity_bins must be >= 1")
        lo, hi = self.frequency_edges
        if not 0 <= lo < hi:
            raise ConfigError("frequency_edges must be increasing and non-negative")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/run"
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)

    def validate(self):
        self.generator.validate()
        self.graph.validate()
        self.model.validate()
        self.inference.validate()
        self.evaluation.validate()

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


_SECTIONS = ("generator", "graph", "model", "inference", "evaluation")
_SECTION_TYPES = {
    "generator": GeneratorConfig,
    "graph": GraphConfig,
    "model": ModelConfig,
    "inference": InferenceConfig,
    "evaluation": EvaluationConfig,
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


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - set(_SECTIONS) - {"seed", "out_dir"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    if "seed" in data:
        kwargs["seed"] = int(data["seed"])
    if "out_dir" in data:
        kwargs["out_dir"] = str(data["out_dir"])
    for section in _SECTIONS:
        body = dict(data.get(section, {}))
        cls = _SECTION_TYPES[section]
        known = {f.name for f in fields(cls)}
        bad = set(body) - known
        if bad:
            raise ConfigError(f"unknown keys in '{section}': {sorted(bad)}")
        for key in ("rating_levels", "frequency_edges"):
            if key in body and isinstance(body[key], list):
                body[key] = tuple(body[key])
        kwargs[section] = cls(**body)
    config = RunConfig(**kwargs)
    config.validate()
    return config


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(data)


def save_config(config: RunConfig, path):
    with jsonl.atomic_open(path) as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def apply_override(data: dict, dotted_key: str, raw_value: str) -> dict:
    """Apply a ``section.key=value`` override onto a config dict.

    ``model.variant`` is a virtual key expanding to the ablation flags.
    Values are parsed as JSON when possible, else taken as strings.
    """
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    parts = dotted_key.split(".")
    if parts == ["model", "variant"]:
        from .model import VARIANTS

        if value not in VARIANTS:
            raise ConfigError(f"model.variant must be one of {sorted(VARIANTS)}")
        body = dict(data.get("model", {}))
        body.update(VARIANTS[value])
        data = dict(data)
        data["model"] = body
        return data
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


def run_pipeline(config: RunConfig, out_dir=None) -> tuple[EvalReport, PipelineArtifacts]:
    """Execute every stage, writing all intermediate artifacts.

    Raises PipelineError naming the failing stage.
    """
    config.validate()
    resolved = config.resolved()
    paths = _artifact_paths(Path(out_dir if out_dir is not None else resolved.out_dir))
    paths.out_dir.mkdir(parents=True, exist_ok=True)
    save_config(resolved, paths.resolved_config)

    def stage(name, fn):
        try:
            return fn()
        except DbgaeError as exc:
            raise PipelineError(name, str(exc)) from exc
        except OSError as exc:
            raise PipelineError(name, str(exc)) from exc

    ds = stage("generate", lambda: generate_synthetic(resolved.generator))
    stage("generate", lambda: save_dataset(ds, paths.dataset))

    graph = stage(
        "build-graph",
        lambda: build_dual_graph(
            ds,
            eps=resolved.graph.eps,
            min_pts=resolved.graph.min_pts,
            threshold=resolved.graph.threshold,
        ),
    )
    stage("build-graph", lambda: save_graph(graph, paths.graph))

    result = stage("train", lambda: train(graph, resolved.model))
    stage("train", lambda: save_params(result.params, paths.params))
    stage("train", lambda: save_ratings(result.ratings, paths.ratings))
    stage("train", lambda: save_loss_trace(result, paths.loss_trace))

    predictions = {}

    def predict_dbgae():
        vectors = None if resolved.inference.cosine_on_raw else result.embeddings
        return pool_labels(
            result.ratings, graph, tau=resolved.inference.tau, instance_vectors=vectors
        )

    predictions[DBGAE_METHOD] = stage("predict", predict_dbgae)
    predictions["cluster_voting"] = stage(
        "predict",
        lambda: baseline_cluster_voting(ds, eps=resolved.graph.eps, min_pts=resolved.graph.min_pts),
    )
    predictions["pair_clustering"] = stage("predict", lambda: baseline_pair_clustering(graph))
    for method, preds in predictions.items():
        stage("predict", lambda m=method, p=preds: save_predictions(p, m, paths.predictions[m]))

    report = stage(
        "evaluate",
        lambda: build_report(
            predictions,
            ds,
            ambiguity_bin_count=resolved.evaluation.ambiguity_bins,
            frequency_edges=resolved.evaluation.frequency_edges,
        ),
    )
    stage("evaluate", lambda: save_report(report, paths.report_text, paths.report_json))
    stage("evaluate", lambda: save_curves(report, paths.curves))
    return report, paths


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


@dataclass
class SweepRow:
    value: object
    replicate: int
    method: str
    accuracy: float
    f1: float


def run_sweep(spec: SweepSpec, base: RunConfig, out_dir) -> list[SweepRow]:
    """One pipeline run per (value, replicate) with derived seeds.

    Failures are recorded in ``sweep_errors.csv`` and the sweep continues.
    """
    spec.validate()
    out_root = Path(out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    rows: list[SweepRow] = []
    failures: list[tuple] = []
    base_dict = config_to_dict(base)
    for vi, value in enumerate(spec.values):
        for rep in range(spec.replicates):
            run_dict = apply_override(dict(base_dict), spec.param, json.dumps(value))
            run_dict["seed"] = derive_seed(base.seed, vi, rep)
            safe = str(value).replace("/", "_").replace(" ", "")
            run_dir = out_root / f"{spec.param.replace('.', '_')}={safe}" / f"rep{rep}"
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
