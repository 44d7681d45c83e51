"""Outside-in span tracing of dbgae's public module-level functions.

The library is timed without touching it: each traced function is replaced,
in every loaded ``dbgae`` module that binds it, by a wrapper that records a
span (name, start, end, parent, run id).  Spans are kept in memory and turned
into per-layer totals, self times and counters when the run ends.

Two target levels exist.  Stage targets (the calls ``run_pipeline`` and
``run_sweep`` make once per stage, plus artifact I/O) are wrapped in every
run, because the end-to-end stage times come from them.  Layer targets (the
graph sub-steps, the encoder pieces, backward, scatter-add, Adam) are
wrapped only in traced runs.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

STAGE, LAYER = "stage", "layer"


@dataclass(frozen=True)
class Target:
    span: str  # span and metric prefix, e.g. "graph.dbscan"
    module: str
    attr: str  # "name" or "Class.method"
    level: str

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.attr}"


def _t(span, module, attr, level=LAYER):
    return Target(span, f"dbgae.{module}", attr, level)


TARGETS = (
    _t("data.generate_synthetic", "data", "generate_synthetic", STAGE),
    _t("graph.build_dual_graph", "graph", "build_dual_graph", STAGE),
    _t("graph.count_cooccurrence", "graph", "count_cooccurrence"),
    _t("graph.dbscan", "graph", "dbscan"),
    _t("graph.within_weights", "graph", "within_weights"),
    _t("graph.homogeneous_neighbors", "graph", "homogeneous_neighbors"),
    _t("graph.cross_links", "graph", "cross_links"),
    _t("model.train", "model", "train", STAGE),
    _t("model.prepare_graph", "model", "prepare_graph"),
    _t("model.encode", "model", "encode"),
    _t("model.aggregate_paths", "model", "aggregate_paths"),
    _t("model.propagation_messages", "model", "propagation_messages"),
    _t("model.attention_coefficients", "model", "attention_coefficients"),
    _t("model.decode_logits", "model", "decode_logits"),
    _t("model.reconstruction_loss", "model", "reconstruction_loss"),
    _t("model.decode", "model", "decode"),
    _t("autodiff.backward", "autodiff", "backward"),
    _t("autodiff.sum_into", "autodiff", "RowIndex.sum_into"),
    _t("optim.adam_step", "optim", "adam_step"),
    _t("inference.pool_labels", "inference", "pool_labels", STAGE),
    _t("inference.baseline_cluster_voting", "inference", "baseline_cluster_voting", STAGE),
    _t("inference.baseline_pair_clustering", "inference", "baseline_pair_clustering", STAGE),
    _t("evaluation.build_report", "evaluation", "build_report", STAGE),
    _t("io.save_config", "pipeline", "save_config", STAGE),
    _t("io.save_dataset", "data", "save_dataset", STAGE),
    _t("io.save_graph", "graph", "save_graph", STAGE),
    _t("io.save_params", "model", "save_params", STAGE),
    _t("io.save_ratings", "model", "save_ratings", STAGE),
    _t("io.save_predictions", "inference", "save_predictions", STAGE),
    _t("io.save_report", "evaluation", "save_report", STAGE),
    _t("io.save_curves", "evaluation", "save_curves", STAGE),
    _t("io.load_dataset", "data", "load_dataset", STAGE),
    _t("io.load_graph", "graph", "load_graph", STAGE),
    _t("io.load_ratings", "model", "load_ratings", STAGE),
    _t("pipeline.run_pipeline", "pipeline", "run_pipeline", STAGE),
    _t("pipeline.run_sweep", "pipeline", "run_sweep", STAGE),
)

# Saved artifacts read back after the run, with the module holding the load
# and equality functions that check them:
# save span -> (artifact, module, loader, equality).
READ_BACK = {
    "io.save_dataset": ("dataset", "dbgae.data", "load_dataset", "datasets_equal"),
    "io.save_graph": ("graph", "dbgae.graph", "load_graph", "graphs_equal"),
    "io.save_ratings": ("ratings", "dbgae.model", "load_ratings", "ratings_equal"),
}

ARTIFACTS = ("config", "dataset", "graph", "params", "ratings", "predictions", "report", "curves")

# Operation names a model tape holds today; each gets a per-epoch count.
TAPE_OPS = (
    "param",
    "const",
    "matmul",
    "add",
    "mul",
    "scale",
    "relu",
    "leaky_relu",
    "concat_cols",
    "gather_rows",
    "scatter_rows",
    "row_sum",
    "segment_softmax",
    "cross_entropy",
    "mean_all",
)


def tape_stats(loss) -> dict:
    """Nodes, value bytes and per-op counts of the tape reachable from ``loss``."""
    seen = {id(loss)}
    stack = [loss]
    nbytes = 0
    ops = Counter()
    while stack:
        node = stack.pop()
        nbytes += node.value.nbytes
        ops[node.op] += 1
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return {"nodes": len(seen), "bytes": nbytes, "ops": dict(ops)}


class Tracer:
    """Wraps targets, records spans and counters for one run of one process.

    Hooks also keep what the checks need: saved artifacts with their paths,
    train inputs and results, and evaluation reports.  A failed call is
    recorded once, at the innermost wrapped function it escaped from.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, parent, start, end)
        self.counters: Counter = Counter()
        self.failures: list[str] = []
        self._failed: list[BaseException] = []
        self.saved: list[tuple] = []  # (span, obj, path)
        self.train_results: list = []
        self.train_inputs: list[tuple] = []  # (graph, config)
        self.reports: list = []
        self.tapes: dict[int, dict] = {}  # train span id -> first epoch's tape
        self.wrapped: list[Target] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._hooks = self._after_hooks()

    # -- patching ----------------------------------------------------------

    def install(self, targets):
        """Wrap every target; raises AttributeError naming a missing one."""
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or not hasattr(owner, attr):
                    raise AttributeError(f"{target.qualname} does not exist")
                orig = getattr(owner, attr)
                self._patch(owner, attr, self._wrapper(target, orig))
            else:
                orig = getattr(module, attr, None)
                if orig is None:
                    raise AttributeError(f"{target.qualname} does not exist")
                wrapper = self._wrapper(target, orig)
                # Rebind every module-level name bound to the same function,
                # so ``from .graph import dbscan`` callers see the wrapper too.
                for name, mod in list(sys.modules.items()):
                    if name == "dbgae" or name.startswith("dbgae."):
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                self._patch(mod, key, wrapper)
            self.wrapped.append(target)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def _wrapper(self, target: Target, orig):
        span = target.span
        after = self._hooks.get(span)
        signature = inspect.signature(orig) if after is not None else None
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append((sid, span))
            start = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                self._record_failure(target, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, span, parent, start, end))
            if after is not None:
                try:
                    after(signature.bind(*args, **kwargs).arguments, result)
                except Exception as exc:  # a benchmark fault must not alter the run
                    self.failures.append(f"hook {span}: {type(exc).__name__}: {exc}")
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _record_failure(self, target: Target, exc: BaseException):
        cause = exc
        while cause is not None:
            if any(cause is seen for seen in self._failed):
                return  # already counted where it was first raised
            cause = cause.__cause__ or cause.__context__
        self._failed.append(exc)
        self.failures.append(f"{target.qualname}: {type(exc).__name__}: {exc}")

    # -- per-target hooks: (bound arguments, result), run after the span ------

    def _after_hooks(self):
        c = self.counters

        def on_dbscan(arguments, result):
            n = len(arguments["points"])
            c["graph.dbscan.points"] += n
            c["graph.dense_bytes"] += n * n * 8

        def on_neighbors(arguments, result):
            n = len(arguments["features"])
            c["graph.dense_bytes"] += n * n * 8

        def on_build(arguments, result):
            c["graph.within_edges"] += len(result.within.inst)
            c["graph.cross_edges"] += len(result.cross.inst)
            c["graph.instances"] += result.num_instances
            c["graph.label_nodes"] += result.num_label_nodes

        def on_train(arguments, result):
            self.train_results.append(result)
            self.train_inputs.append((arguments["graph"], arguments["config"]))

        def on_loss(arguments, result):
            train_sid = next((s for s, name in reversed(self._stack) if name == "model.train"), -1)
            if train_sid not in self.tapes:
                self.tapes[train_sid] = tape_stats(result)

        def on_report(arguments, result):
            self.reports.append(result)

        def saver(artifact):
            span = f"io.save_{artifact}"

            def on_save(arguments, result):
                paths = [v for k, v in arguments.items() if k.endswith("path") and v is not None]
                for path in paths:
                    c[f"io.{artifact}.bytes"] += os.path.getsize(path)
                if span in READ_BACK:
                    self.saved.append((span, next(iter(arguments.values())), paths[0]))

            return on_save

        hooks = {
            "graph.dbscan": on_dbscan,
            "graph.homogeneous_neighbors": on_neighbors,
            "graph.build_dual_graph": on_build,
            "model.train": on_train,
            "model.reconstruction_loss": on_loss,
            "evaluation.build_report": on_report,
        }
        for artifact in ARTIFACTS:
            hooks[f"io.save_{artifact}"] = saver(artifact)
        return hooks

    # -- derived figures ----------------------------------------------------

    def span_table(self):
        """Per span name: calls, total seconds, self seconds."""
        child = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        for sid, name, _, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[sid]
        return calls, total, self_s

    def epoch_ms(self) -> list[float]:
        """Epoch lengths: gaps between consecutive Adam steps in one train call."""
        name_of = {sid: name for sid, name, _, _, _ in self.spans}
        parent_of = {sid: parent for sid, _, parent, _, _ in self.spans}
        ends_by_train = defaultdict(list)
        for sid, name, parent, _, end in self.spans:
            if name == "optim.adam_step":
                while parent is not None and name_of[parent] != "model.train":
                    parent = parent_of[parent]
                ends_by_train[parent].append(end)
        gaps = []
        for ends in ends_by_train.values():
            ends.sort()
            gaps.extend((b - a) * 1000.0 for a, b in zip(ends, ends[1:]))
        return gaps

    def tape_totals(self) -> dict:
        """Per-epoch tape figures summed over the run's train calls."""
        out = Counter()
        for tape in self.tapes.values():
            out["autodiff.tape.nodes"] += tape["nodes"]
            out["autodiff.tape.bytes"] += tape["bytes"]
            for op, n in tape["ops"].items():
                out[f"autodiff.tape.ops.{op}"] += n
        return dict(out)

    def uncovered(self) -> list[str]:
        """Wrapped functions that were never called."""
        called = {name for _, name, _, _, _ in self.spans}
        return [t.qualname for t in self.wrapped if t.span not in called]

    def spans_json(self) -> list[dict]:
        return [
            {"run": self.run_id, "id": sid, "name": name, "parent": parent, "start": start, "end": end}
            for sid, name, parent, start, end in sorted(self.spans)
        ]


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# Per-layer metrics: (name, unit, kind, source).  Kinds: "total" and "self"
# seconds of a span name, "calls" of a span name, "counter" from hooks,
# "epoch" a quantile of epoch lengths, "sum" and "self_sum" over span names.
LAYER_METRICS = (
    ("data.generate_synthetic.s", "s", "total", "data.generate_synthetic"),
    ("graph.build_dual_graph.s", "s", "total", "graph.build_dual_graph"),
    ("graph.count_cooccurrence.s", "s", "total", "graph.count_cooccurrence"),
    ("graph.dbscan.s", "s", "total", "graph.dbscan"),
    ("graph.dbscan.calls", "count", "calls", "graph.dbscan"),
    ("graph.dbscan.points", "count", "counter", "graph.dbscan.points"),
    ("graph.dense_bytes", "bytes", "counter", "graph.dense_bytes"),
    ("graph.within_weights.s", "s", "total", "graph.within_weights"),
    ("graph.homogeneous_neighbors.s", "s", "total", "graph.homogeneous_neighbors"),
    ("graph.cross_links.s", "s", "total", "graph.cross_links"),
    ("graph.within_edges", "count", "counter", "graph.within_edges"),
    ("graph.cross_edges", "count", "counter", "graph.cross_edges"),
    ("model.prepare_graph.s", "s", "total", "model.prepare_graph"),
    ("model.encode.s", "s", "total", "model.encode"),
    ("model.aggregate_paths.self_s", "s", "self", "model.aggregate_paths"),
    ("model.propagation_messages.self_s", "s", "self", "model.propagation_messages"),
    ("model.attention_coefficients.self_s", "s", "self", "model.attention_coefficients"),
    ("model.decode_logits.s", "s", "total", "model.decode_logits"),
    ("model.reconstruction_loss.s", "s", "total", "model.reconstruction_loss"),
    ("model.decode.s", "s", "total", "model.decode"),
    ("model.train.self_s", "s", "self", "model.train"),
    ("model.epoch_ms.p50", "ms", "epoch", 0.5),
    ("model.epoch_ms.p90", "ms", "epoch", 0.9),
    ("autodiff.backward.s", "s", "total", "autodiff.backward"),
    ("autodiff.sum_into.s", "s", "total", "autodiff.sum_into"),
    ("autodiff.sum_into.calls", "count", "calls", "autodiff.sum_into"),
    ("autodiff.tape.nodes", "count", "counter", "autodiff.tape.nodes"),
    ("autodiff.tape.bytes", "bytes", "counter", "autodiff.tape.bytes"),
    *(
        (f"autodiff.tape.ops.{op}", "count", "counter", f"autodiff.tape.ops.{op}")
        for op in TAPE_OPS
    ),
    ("optim.adam_step.s", "s", "total", "optim.adam_step"),
    ("inference.predict.s", "s", "sum", ("inference.pool_labels", "inference.baseline_cluster_voting", "inference.baseline_pair_clustering")),
    ("inference.pool_labels.s", "s", "total", "inference.pool_labels"),
    ("inference.baseline_cluster_voting.self_s", "s", "self", "inference.baseline_cluster_voting"),
    ("inference.baseline_pair_clustering.self_s", "s", "self", "inference.baseline_pair_clustering"),
    ("evaluation.build_report.s", "s", "total", "evaluation.build_report"),
    ("io.s", "s", "sum", tuple(t.span for t in TARGETS if t.span.startswith("io."))),
    *(
        (f"io.{op}_{artifact}.s", "s", "total", f"io.{op}_{artifact}")
        for op, artifact in (
            ("save", "config"),
            ("save", "dataset"),
            ("save", "graph"),
            ("save", "params"),
            ("save", "ratings"),
            ("save", "predictions"),
            ("save", "report"),
            ("save", "curves"),
            ("load", "dataset"),
            ("load", "graph"),
            ("load", "ratings"),
        )
    ),
    *(
        (f"io.{artifact}.bytes", "bytes", "counter", f"io.{artifact}.bytes")
        for artifact in ARTIFACTS
    ),
    ("pipeline.self_s", "s", "self_sum", ("pipeline.run_pipeline", "pipeline.run_sweep")),
)

def layer_metrics(tracer: Tracer) -> dict[str, float]:
    calls, total, self_s = tracer.span_table()
    counters = Counter(tracer.counters)
    counters.update(tracer.tape_totals())
    epochs = tracer.epoch_ms()
    out = {}
    for name, _, kind, source in LAYER_METRICS:
        if kind == "total":
            out[name] = total[source]
        elif kind == "self":
            out[name] = self_s[source]
        elif kind == "calls":
            out[name] = calls[source]
        elif kind == "counter":
            out[name] = counters[source]
        elif kind == "epoch":
            out[name] = _quantile(epochs, source)
        elif kind == "sum":
            out[name] = sum(total[s] for s in source)
        elif kind == "self_sum":
            out[name] = sum(self_s[s] for s in source)
    return out


def exact_counts(tracer: Tracer) -> dict[str, int]:
    """Counts that a same-seed run must reproduce exactly.

    Untraced runs only have the stage-level ones (graph sizes, artifact
    bytes); traced runs add DBSCAN work, scatter-add calls and the tape.
    """
    calls, _, _ = tracer.span_table()
    counts = Counter(tracer.counters)
    counts.update(tracer.tape_totals())
    for span in ("graph.dbscan", "autodiff.sum_into"):
        if calls[span]:
            counts[f"{span}.calls"] = calls[span]
    return {k: int(v) for k, v in sorted(counts.items())}
