import json
from unittest import mock

import pytest

from dbgae import graph as graph_module
from dbgae import model as model_module
from dbgae.cli import main
from dbgae.data import datasets_equal, load_dataset
from dbgae.errors import ConfigError
from dbgae.graph import graphs_equal, load_graph
from dbgae.model import load_ratings, ratings_equal
from dbgae.pipeline import (
    RunConfig,
    SweepSpec,
    apply_override,
    config_from_dict,
    config_to_dict,
    derive_seed,
    load_config,
    run_pipeline,
    run_sweep,
)

SMALL_OVERRIDES = {
    "generator": {
        "num_classes": 5,
        "feature_dim": 6,
        "num_groups": 12,
        "min_instances": 1,
        "max_instances": 2,
        "separation": 1.0,
        "noise_scale": 0.08,
        "null_rate": 0.2,
        "cross_rate": 0.2,
        "distractor_rate": 0.3,
    },
    "model": {
        "gcn_hidden": 8,
        "dense_hidden": 4,
        "num_heads": 1,
        "epochs": 25,
        "lr": 0.01,
    },
}


def small_config(seed=7, out_dir="run"):
    data = config_to_dict(RunConfig())
    data.update({"seed": seed, "out_dir": out_dir})
    for section, body in SMALL_OVERRIDES.items():
        data[section] = {**data[section], **body}
    return config_from_dict(data)


class TestConfig:
    def test_round_trip(self, tmp_path):
        from dbgae.pipeline import save_config

        config = small_config()
        path = tmp_path / "config.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"generator": {"bogus": 1}})
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"not_a_section": {}})

    def test_every_field_has_a_default(self):
        config = config_from_dict({})
        assert config.model.gcn_hidden == 1000
        assert config.generator.num_classes == 20

    def test_override_dotted_path(self):
        data = config_to_dict(RunConfig())
        data = apply_override(data, "generator.num_groups", "33")
        data = apply_override(data, "model.lr", "0.005")
        config = config_from_dict(data)
        assert config.generator.num_groups == 33
        assert config.model.lr == pytest.approx(0.005)

    def test_variant_override_expands_flags(self):
        data = apply_override(config_to_dict(RunConfig()), "model.variant", '"no_cross"')
        config = config_from_dict(data)
        assert not config.model.use_cross_links

    def test_section_seed_override_rejected(self):
        with pytest.raises(ConfigError, match="global seed"):
            apply_override(config_to_dict(RunConfig()), "generator.rng_seed", "3")

    def test_derive_seed_stable_and_decorrelated(self):
        assert derive_seed(7, 0, 0) == derive_seed(7, 0, 0)
        assert derive_seed(7, 0, 0) != derive_seed(7, 0, 1)
        assert derive_seed(7, 0, 0) != derive_seed(8, 0, 0)


class TestPipeline:
    def test_smoke_run_writes_all_artifacts(self, tmp_path):
        config = small_config(out_dir=str(tmp_path / "run"))
        report, paths = run_pipeline(config)
        assert {m.method for m in report.methods} == {
            "dbgae",
            "cluster_voting",
            "pair_clustering",
        }
        for path in (
            paths.dataset,
            paths.graph,
            paths.params,
            paths.ratings,
            paths.loss_trace,
            paths.report_text,
            paths.report_json,
            paths.curves,
            paths.resolved_config,
        ):
            assert path.exists(), path
        for pred_path in paths.predictions.values():
            assert pred_path.exists()

    def test_identical_seeds_byte_identical_reports(self, tmp_path):
        config = small_config()
        _, a = run_pipeline(config, out_dir=tmp_path / "a")
        _, b = run_pipeline(config, out_dir=tmp_path / "b")
        assert a.report_text.read_bytes() == b.report_text.read_bytes()
        assert a.report_json.read_bytes() == b.report_json.read_bytes()
        assert a.ratings.read_bytes() == b.ratings.read_bytes()
        assert a.curves.read_bytes() == b.curves.read_bytes()

    def test_rerun_from_resolved_config_reproduces(self, tmp_path):
        config = small_config()
        _, first = run_pipeline(config, out_dir=tmp_path / "a")
        resolved = load_config(first.resolved_config)
        _, second = run_pipeline(resolved, out_dir=tmp_path / "b")
        assert first.report_text.read_bytes() == second.report_text.read_bytes()

    def test_artifacts_round_trip(self, tmp_path):
        config = small_config()
        _, paths = run_pipeline(config, out_dir=tmp_path / "run")
        ds = load_dataset(paths.dataset)
        assert datasets_equal(ds, load_dataset(paths.dataset))
        graph = load_graph(paths.graph)
        assert graphs_equal(graph, load_graph(paths.graph))
        ratings = load_ratings(paths.ratings)
        assert ratings_equal(ratings, load_ratings(paths.ratings))

    def test_cosine_over_learned_embeddings(self, tmp_path):
        data = config_to_dict(small_config())
        data["inference"] = {"cosine_on_raw": False}
        config = config_from_dict(data)
        prepare = mock.Mock(wraps=model_module.prepare_graph)
        encode = mock.Mock(wraps=model_module.encode)
        with mock.patch("dbgae.model.prepare_graph", prepare), mock.patch(
            "dbgae.model.encode", encode
        ):
            report, _ = run_pipeline(config, out_dir=tmp_path / "run")
        assert any(m.method == "dbgae" for m in report.methods)
        # the embeddings are those training decoded its final ratings from
        assert prepare.call_count == 1
        assert encode.call_count == config.model.epochs + 1

    def test_one_link_tuple_clustering_per_run(self, tmp_path):
        dbscan = mock.Mock(wraps=graph_module.dbscan)
        with mock.patch("dbgae.graph.dbscan", dbscan), mock.patch("dbgae.inference.dbscan", dbscan):
            run_pipeline(small_config(), out_dir=tmp_path / "run")
        # link tuples while building the graph, instances for cluster voting
        assert dbscan.call_count == 2


class TestSweep:
    def test_sweep_rows_and_csv(self, tmp_path):
        base = small_config()
        spec = SweepSpec(param="generator.cross_rate", values=(0.0, 0.2), replicates=2)
        rows = run_sweep(spec, base, tmp_path / "sweep")
        assert len(rows) == 2 * 2 * 3  # values x replicates x methods
        csv_path = tmp_path / "sweep" / "sweep.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "value,replicate,method,accuracy,f1"
        assert len(lines) == 1 + len(rows)

    def test_single_value_single_replicate_matches_pipeline(self, tmp_path):
        base = small_config()
        spec = SweepSpec(param="generator.cross_rate", values=(0.2,), replicates=1)
        rows = run_sweep(spec, base, tmp_path / "sweep")
        assert len(rows) == 3


class TestCli:
    def test_stagewise_chain(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        from dbgae.pipeline import save_config

        save_config(small_config(), cfg_path)
        ds = tmp_path / "ds.jsonl"
        graph = tmp_path / "graph.jsonl"
        params = tmp_path / "params.json"
        ratings = tmp_path / "ratings.jsonl"
        pred = tmp_path / "pred.jsonl"
        pred_cv = tmp_path / "pred_cv.jsonl"
        report = tmp_path / "report.txt"
        curves = tmp_path / "curves.csv"

        assert main(["generate", "--config", str(cfg_path), "--out", str(ds)]) == 0
        assert main(["build-graph", "--in", str(ds), "--out", str(graph)]) == 0
        assert (
            main(
                [
                    "train",
                    "--config",
                    str(cfg_path),
                    "--graph",
                    str(graph),
                    "--out-params",
                    str(params),
                    "--out-ratings",
                    str(ratings),
                    "--loss-trace",
                    str(tmp_path / "trace.csv"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "predict",
                    "--ratings",
                    str(ratings),
                    "--graph",
                    str(graph),
                    "--dataset",
                    str(ds),
                    "--out",
                    str(pred),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "predict",
                    "--method",
                    "cluster_voting",
                    "--dataset",
                    str(ds),
                    "--out",
                    str(pred_cv),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "evaluate",
                    "--pred",
                    str(pred),
                    "--pred",
                    str(pred_cv),
                    "--dataset",
                    str(ds),
                    "--out-report",
                    str(report),
                    "--out-curves",
                    str(curves),
                ]
            )
            == 0
        )
        assert report.exists() and curves.exists()
        out = capsys.readouterr().out
        assert "dbgae" in out and "cluster_voting" in out

    def test_train_loss_trace_is_the_pipeline_trace(self, tmp_path):
        from dbgae.pipeline import save_config

        config = small_config()
        _, paths = run_pipeline(config, out_dir=tmp_path / "run")
        cfg_path = tmp_path / "config.json"
        save_config(config, cfg_path)
        trace = tmp_path / "trace.csv"
        args = ["train", "--config", str(cfg_path), "--graph", str(paths.graph)]
        args += ["--out-params", str(tmp_path / "params.json")]
        args += ["--out-ratings", str(tmp_path / "ratings.jsonl"), "--loss-trace", str(trace)]
        assert main(args) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "epoch,loss,prob_sum_err,m_hat_min,m_hat_max"
        assert len(lines) == 1 + config.model.epochs
        assert trace.read_bytes() == paths.loss_trace.read_bytes()

    def test_pair_clustering_predict_reads_the_graph(self, tmp_path):
        _, paths = run_pipeline(small_config(), out_dir=tmp_path / "run")
        args = ["predict", "--method", "pair_clustering", "--dataset", str(paths.dataset)]
        out = tmp_path / "pred.jsonl"
        with pytest.raises(SystemExit):
            main(args + ["--out", str(out)])
        assert main(args + ["--graph", str(paths.graph), "--out", str(out)]) == 0
        pipeline_pred = paths.predictions["pair_clustering"]
        assert out.read_bytes() == pipeline_pred.read_bytes()

    def test_predict_reads_the_dataset_only_for_cluster_voting(self, tmp_path):
        _, paths = run_pipeline(small_config(), out_dir=tmp_path / "run")
        missing = str(tmp_path / "no_such_dataset.jsonl")
        inputs = {
            "dbgae": ["--ratings", str(paths.ratings), "--graph", str(paths.graph)],
            "pair_clustering": ["--graph", str(paths.graph)],
        }
        for method, args in inputs.items():
            out = tmp_path / f"pred_{method}.jsonl"
            for dataset in ([], ["--dataset", missing]):
                argv = ["predict", "--method", method, *args, *dataset, "--out", str(out)]
                assert main(argv) == 0
                assert out.read_bytes() == paths.predictions[method].read_bytes()
        out = tmp_path / "pred_cluster_voting.jsonl"
        with pytest.raises(SystemExit):
            main(["predict", "--method", "cluster_voting", "--out", str(out)])
        args = ["predict", "--method", "cluster_voting", "--dataset", str(paths.dataset)]
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == paths.predictions["cluster_voting"].read_bytes()

    def test_pipeline_subcommand_with_overrides(self, tmp_path):
        args = ["pipeline", "--seed", "7", "--out-dir", str(tmp_path / "run")]
        for section, body in SMALL_OVERRIDES.items():
            for key, value in body.items():
                args += ["--set", f"{section}.{key}={json.dumps(value)}"]
        assert main(args) == 0
        assert (tmp_path / "run" / "report.txt").exists()

    def test_missing_input_path_fails_with_name(self, tmp_path, capsys):
        rc = main(["build-graph", "--in", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "g")])
        assert rc == 1
        assert "nope.jsonl" in capsys.readouterr().err

    def test_sweep_subcommand(self, tmp_path):
        from dbgae.pipeline import save_config

        cfg_path = tmp_path / "config.json"
        save_config(small_config(), cfg_path)
        rc = main(
            [
                "sweep",
                "--config",
                str(cfg_path),
                "--param",
                "generator.null_rate",
                "--values",
                "0.0,0.2",
                "--out-dir",
                str(tmp_path / "sweep"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "sweep" / "sweep.csv").exists()
