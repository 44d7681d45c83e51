"""Command-line entry point.

Subcommands mirror the pipeline stages (generate, build-graph, train,
predict, evaluate) plus the chained pipeline and parameter sweeps.  Config
keys can be overridden with repeated ``--set section.key=value`` flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .data import dataset_stats, generate_synthetic, load_dataset, save_dataset
from .errors import DbgaeError, EvalError
from .evaluation import build_report, save_curves, save_report
from .graph import build_dual_graph, load_graph, save_graph
from .inference import (
    baseline_cluster_voting,
    baseline_pair_clustering,
    load_predictions,
    pool_labels,
    save_predictions,
)
from .model import load_params, load_ratings, save_loss_trace, save_params, save_ratings, train
from .pipeline import (
    RunConfig,
    SweepSpec,
    apply_override,
    config_from_dict,
    config_to_dict,
    load_config,
    run_pipeline,
    run_sweep,
)


def _resolve_config(args) -> RunConfig:
    data = config_to_dict(load_config(args.config) if args.config else RunConfig())
    for override in args.set or []:
        key, _, value = override.partition("=")
        if not _:
            raise DbgaeError(f"--set expects key=value, got '{override}'")
        data = apply_override(data, key.strip(), value.strip())
    if args.seed is not None:
        data["seed"] = args.seed
    if getattr(args, "out_dir", None) is not None:
        data["out_dir"] = args.out_dir
    return config_from_dict(data)


def _cmd_generate(args) -> int:
    config = _resolve_config(args).resolved()
    ds = generate_synthetic(config.generator)
    save_dataset(ds, args.out)
    stats = dataset_stats(ds)
    print(
        f"wrote {args.out}: {stats.num_groups} groups, {stats.num_instances} instances, "
        f"null fraction {stats.null_fraction:.3f}, mean ambiguity {stats.mean_ambiguity:.3f}"
    )
    return 0


def _cmd_build_graph(args) -> int:
    gc = _resolve_config(args).graph
    ds = load_dataset(getattr(args, "in"))
    graph = build_dual_graph(ds, eps=gc.eps, min_pts=gc.min_pts, threshold=gc.threshold)
    save_graph(graph, args.out)
    print(
        f"wrote {args.out}: {graph.num_instances} instances, {graph.num_label_nodes} label "
        f"nodes, {len(graph.within.inst)} within edges, {len(graph.cross.inst)} cross edges"
    )
    return 0


def _cmd_train(args) -> int:
    config = _resolve_config(args).resolved()
    graph = load_graph(args.graph)
    initial = load_params(args.resume) if args.resume else None
    result = train(graph, config.model, initial_params=initial)
    save_params(result.params, args.out_params)
    save_ratings(result.ratings, args.out_ratings)
    if args.loss_trace:
        save_loss_trace(result, args.loss_trace)
    print(
        f"trained {config.model.epochs} epochs, final loss {result.loss_trace[-1]:.6f}; "
        f"wrote {args.out_params} and {args.out_ratings}"
    )
    return 0


def _cmd_predict(args) -> int:
    config = _resolve_config(args)
    graph = load_graph(args.graph)
    if args.method == "dbgae":
        predictions = pool_labels(load_ratings(args.ratings), graph, tau=config.inference.tau)
    elif args.method == "cluster_voting":
        predictions = baseline_cluster_voting(
            graph, eps=config.graph.eps, min_pts=config.graph.min_pts
        )
    else:
        predictions = baseline_pair_clustering(graph)
    save_predictions(predictions, args.method, args.out)
    print(f"wrote {args.out}: {len(predictions)} predictions ({args.method})")
    return 0


def _cmd_evaluate(args) -> int:
    _resolve_config(args)  # checks --config and --set; evaluation has no setting
    ds = load_dataset(args.dataset)
    by_method, source = {}, {}
    for path in args.pred:
        method, predictions = load_predictions(path)
        if method in by_method:
            raise EvalError(f"{source[method]} and {path} both hold {method!r} predictions")
        by_method[method], source[method] = predictions, path
    report = build_report(by_method, ds)
    save_report(report, args.out_report, args.out_json)
    if args.out_curves:
        save_curves(report, args.out_curves)
    for m in report.methods:
        print(f"{m.method}: accuracy {m.accuracy:.4f}, macro-F1 {m.macro_f1:.4f}")
    return 0


def _cmd_pipeline(args) -> int:
    config = _resolve_config(args)
    report, paths = run_pipeline(config)
    for m in report.methods:
        print(f"{m.method}: accuracy {m.accuracy:.4f}, macro-F1 {m.macro_f1:.4f}")
    print(f"artifacts in {paths.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    config = _resolve_config(args)
    values = []
    for raw in args.values.split(","):
        raw = raw.strip()
        try:
            values.append(json.loads(raw))
        except json.JSONDecodeError:
            values.append(raw)
    spec = SweepSpec(param=args.param, values=tuple(values), replicates=args.replicates)
    rows = run_sweep(spec, config, args.out_dir or "runs/sweep")
    print(f"sweep wrote {len(rows)} rows to {args.out_dir or 'runs/sweep'}/sweep.csv")
    return 0


def _add_config_flags(parser, with_out_dir=False):
    parser.add_argument("--config", help="run config JSON file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key by dotted path (repeatable)",
    )
    parser.add_argument("--seed", type=int, help="global seed override")
    if with_out_dir:
        parser.add_argument("--out-dir", help="output directory override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbgae",
        description="Dual bipartite graph autoencoder for group-level partial label learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("build-graph", help="construct the dual bipartite graph (config.graph)")
    _add_config_flags(p)
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_build_graph)

    p = sub.add_parser("train", help="train the autoencoder on a graph")
    _add_config_flags(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--out-params", required=True)
    p.add_argument("--out-ratings", required=True)
    p.add_argument("--loss-trace")
    p.add_argument(
        "--resume",
        help="parameter checkpoint to start from; Adam restarts at step 0 with zero "
        "moments, so N epochs and N more differ from 2N epochs in one run",
    )
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("predict", help="predict instance labels")
    _add_config_flags(p)
    p.add_argument("--method", choices=["dbgae", "cluster_voting", "pair_clustering"], default="dbgae")
    p.add_argument("--ratings", help="ratings file, read by --method dbgae only")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("evaluate", help="score prediction files against ground truth")
    _add_config_flags(p)
    p.add_argument("--pred", action="append", required=True, help="prediction file (repeatable)")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-json")
    p.add_argument("--out-curves")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    _add_config_flags(p, with_out_dir=True)
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("sweep", help="run the pipeline over a parameter grid")
    _add_config_flags(p, with_out_dir=True)
    p.add_argument("--param", required=True, help="dotted config key, e.g. generator.cross_rate")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--replicates", type=int, default=1)
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "predict" and args.method == "dbgae" and not args.ratings:
        parser.error("predict --method dbgae requires --ratings")
    if args.command == "sweep" and not all(v.strip() for v in args.values.split(",")):
        parser.error(f"sweep --values has an empty item: {args.values!r}")
    try:
        return args.fn(args)
    except DbgaeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
