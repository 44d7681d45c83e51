import json
import os
import runpy
import signal
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dbgae import graph as graph_module
from dbgae import jsonl, runtime
from dbgae.cli import main
from dbgae.data import datasets_equal, generate_synthetic, load_dataset
from dbgae.errors import ConfigError, PipelineError, SchemaError, TrainingError
from dbgae.graph import build_dual_graph, graphs_equal, load_graph
from dbgae.model import VARIANTS, load_ratings, quantize_levels, ratings_equal
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
from test_artifacts import _without_fork

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
        # removed: the cross links' cosine over learned embeddings
        with pytest.raises(ConfigError, match=r"unknown keys in 'inference': \['cosine_on_raw'\]"):
            config_from_dict({"inference": {"cosine_on_raw": False}})

    def test_every_field_has_a_default(self):
        config = config_from_dict({})
        assert config.model.gcn_hidden == 1000
        assert config.generator.num_classes == 20

    def test_default_graph_has_cross_edges_and_several_target_levels(self):
        config = RunConfig().resolved()
        gc = config.graph
        ds = generate_synthetic(config.generator)
        graph = build_dual_graph(ds, eps=gc.eps, min_pts=gc.min_pts, threshold=gc.threshold)
        targets = quantize_levels(graph.within.weight, config.model.rating_levels)
        assert len(graph.cross.inst) > 0
        assert len(np.unique(targets)) >= 2

    def test_override_dotted_path(self):
        data = config_to_dict(RunConfig())
        data = apply_override(data, "generator.num_groups", "33")
        data = apply_override(data, "model.lr", "0.005")
        config = config_from_dict(data)
        assert config.generator.num_groups == 33
        assert config.model.lr == pytest.approx(0.005)

    def test_variant_override_sets_the_field(self):
        data = apply_override(config_to_dict(RunConfig()), "model.variant", "no_cross")
        assert data["model"]["variant"] == "no_cross"
        assert config_from_dict(data).model.variant == "no_cross"
        data = apply_override(data, "model.variant", '"bogus"')
        with pytest.raises(ConfigError, match="unknown variant 'bogus'"):
            config_from_dict(data)

    def test_config_file_names_a_variant(self, tmp_path):
        path = tmp_path / "config.json"
        data = config_to_dict(small_config())
        data["model"] = {**data["model"], "variant": "no_cross"}
        path.write_text(json.dumps(data))
        config = load_config(path)
        assert config.model.variant == "no_cross"
        _, paths = run_pipeline(config, out_dir=tmp_path / "run")
        resolved = load_config(paths.resolved_config)
        assert resolved == config.resolved()
        assert json.loads(paths.resolved_config.read_text())["model"]["variant"] == "no_cross"
        assert "cross" not in paths.ratings.read_text()

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"model": {"use_cross_links": False}}, r"'model': \['use_cross_links'\]"),
            ({"model": {"use_attention": False}}, r"'model': \['use_attention'\]"),
            ({"model": {"use_dual_paths": False}}, r"'model': \['use_dual_paths'\]"),
            ({"evaluation": {"ambiguity_bins": 10}}, r"\['evaluation'\]"),
        ],
    )
    def test_removed_keys_are_unknown(self, data, key):
        with pytest.raises(ConfigError, match=r"unknown (config )?keys.*" + key):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"seed": "x"}, "seed must be an integer, got 'x'"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"out_dir": 3}, "out_dir must be a string, got 3"),
            ({"model": {"epochs": "ten"}}, "model.epochs must be an integer, got 'ten'"),
            ({"model": {"rating_levels": 5}}, "model.rating_levels must be a list of finite numbers"),
            ({"model": {"rating_levels": [0, "a"]}}, "model.rating_levels must be a list"),
            ({"model": {"rating_levels": [False, 1]}}, "model.rating_levels must be a list"),
            ({"model": {"lr": "fast"}}, "model.lr must be a finite number, got 'fast'"),
            ({"model": {"lr": 10**400}}, "model.lr must be a finite number"),
            ({"model": {"lr": float("nan")}}, "model.lr must be a finite number, got nan"),
            ({"graph": {"eps": float("inf")}}, "graph.eps must be a finite number, got inf"),
            ({"model": {"rating_levels": [0, float("nan")]}}, "model.rating_levels must be a list"),
            ({"model": {"variant": 3}}, "model.variant must be a string, got 3"),
            ({"generator": {"num_groups": 2.5}}, "generator.num_groups must be an integer"),
            ({"graph": {"min_pts": False}}, "graph.min_pts must be an integer, got False"),
            ({"model": []}, "'model' must be a JSON object"),
            ({"inference": None}, "'inference' must be a JSON object"),
        ],
    )
    def test_wrong_typed_value_names_the_key(self, data, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert message in str(info.value)

    def test_number_fields_take_integers(self):
        config = config_from_dict({"model": {"lr": 1, "rating_levels": [0, 0.5, 1]}})
        assert type(config.model.lr) is float and config.model.lr == 1.0
        assert config.model.rating_levels == (0.0, 0.5, 1.0)
        assert all(type(x) is float for x in config.model.rating_levels)

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

    def test_failed_stage_leaves_only_the_resolved_config(self, tmp_path):
        failing = mock.Mock(side_effect=TrainingError("no supervision"))
        with mock.patch("dbgae.pipeline.train", failing):
            with pytest.raises(PipelineError, match="stage 'train': no supervision"):
                run_pipeline(small_config(), out_dir=tmp_path / "run")
        assert [p.name for p in (tmp_path / "run").iterdir()] == ["resolved_config.json"]

    @pytest.mark.parametrize("row_block", [4, jsonl.ROW_BLOCK])
    def test_one_encoder_process_per_run_writes_the_serial_bytes(self, tmp_path, row_block):
        """Blocks of 4 rows put the cut inside the graph or ratings file."""
        config = small_config()
        # no diagnostics worker in train, so the one fork is the encoder's
        with mock.patch.object(jsonl, "ROW_BLOCK", row_block), mock.patch.object(
            runtime, "second_core", return_value=False
        ):
            with mock.patch.object(os, "fork", wraps=os.fork) as fork:
                _, paths = run_pipeline(config, out_dir=tmp_path / "forked")
            with _without_fork():
                run_pipeline(config, out_dir=tmp_path / "serial")
        assert fork.call_count == 1
        names = sorted(p.name for p in paths.out_dir.iterdir())
        assert names == sorted(p.name for p in (tmp_path / "serial").iterdir())
        for name in set(names) - {"resolved_config.json"}:
            assert (paths.out_dir / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

    def test_failed_predict_kills_the_running_encoder(self, tmp_path):
        parent, floats = os.getpid(), jsonl._ENCODERS["f"]

        def slow_floats(values):
            if os.getpid() != parent:
                time.sleep(60)  # the encoder outlives the test unless killed
            return floats(values)

        failing = mock.Mock(side_effect=SchemaError("no scores"))
        start = time.monotonic()
        with mock.patch.dict(jsonl._ENCODERS, f=slow_floats), mock.patch(
            "dbgae.pipeline.pool_labels", failing
        ), mock.patch.object(  # no diagnostics worker: the one fork is the encoder's
            runtime, "second_core", return_value=False
        ), mock.patch.object(os, "fork", wraps=os.fork) as fork:
            with pytest.raises(PipelineError, match="stage 'predict': no scores"):
                run_pipeline(small_config(), out_dir=tmp_path / "run")
        assert fork.call_count == 1
        assert time.monotonic() - start < 30
        assert os.listdir(tmp_path / "run") == ["resolved_config.json"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_encoder_that_dies_fails_the_write_naming_its_file(self, tmp_path):
        parent, write_parts = os.getpid(), jsonl._write_parts

        def dying(fh, parts):
            if os.getpid() != parent and ".ratings.jsonl." in fh.name:
                os.kill(os.getpid(), signal.SIGKILL)
            write_parts(fh, parts)

        with mock.patch.object(jsonl, "_write_parts", dying):
            with pytest.raises(PipelineError) as info:
                run_pipeline(small_config(), out_dir=tmp_path / "run")
        ratings = tmp_path / "run" / "ratings.jsonl"
        assert info.value.stage == "write"
        assert f"{ratings}: the encoder process exited with status -9" in str(info.value)
        assert not ratings.exists()
        assert not [p for p in (tmp_path / "run").iterdir() if p.name.endswith(".tmp")]

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

    def test_variant_sweep_runs_the_model_each_row_names(self, tmp_path):
        # The base names another variant: every row must replace it.
        data = config_to_dict(small_config())
        data["model"] = {**data["model"], "variant": "no_attention"}
        base = config_from_dict(data)
        spec = SweepSpec(param="model.variant", values=VARIANTS)
        rows = run_sweep(spec, base, tmp_path / "sweep")
        assert [r.value for r in rows[::3]] == list(spec.values)
        assert not (tmp_path / "sweep" / "sweep_errors.csv").exists()
        for k, variant in enumerate(spec.values):
            run_dir = tmp_path / "sweep" / f"model_variant={variant}" / "rep0"
            resolved = json.loads((run_dir / "resolved_config.json").read_text())
            assert resolved["model"]["variant"] == variant
            path = tmp_path / f"{variant}.json"
            model = {**data["model"], "variant": variant}
            seed = derive_seed(base.seed, k, 0)
            path.write_text(json.dumps({**data, "seed": seed, "model": model}))
            _, paths = run_pipeline(load_config(path), out_dir=tmp_path / variant)
            assert (run_dir / "ratings.jsonl").read_bytes() == paths.ratings.read_bytes()

    def test_single_value_single_replicate_matches_pipeline(self, tmp_path):
        base = small_config()
        spec = SweepSpec(param="generator.cross_rate", values=(0.2,), replicates=1)
        rows = run_sweep(spec, base, tmp_path / "sweep")
        assert len(rows) == 3

    @pytest.mark.parametrize("param", ["seed", "out_dir"])
    def test_a_sweep_over_what_the_sweep_sets_is_rejected_before_any_run(self, tmp_path, param):
        spec = SweepSpec(param=param, values=(1, 2))
        with pytest.raises(ConfigError, match=f"sweep param '{param}' is set per run"):
            run_sweep(spec, small_config(), tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()


class TestCli:
    def test_stagewise_chain(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        from dbgae.pipeline import save_config

        data = config_to_dict(small_config())
        data["graph"] = {**data["graph"], "min_pts": 3, "threshold": 0.5}  # not the defaults
        config = config_from_dict(data)
        save_config(config, cfg_path)
        _, paths = run_pipeline(config, out_dir=tmp_path / "run")
        ds = tmp_path / "ds.jsonl"
        graph = tmp_path / "graph.jsonl"
        params = tmp_path / "params.json"
        ratings = tmp_path / "ratings.jsonl"
        pred = tmp_path / "pred.jsonl"
        pred_cv = tmp_path / "pred_cv.jsonl"
        report = tmp_path / "report.txt"
        curves = tmp_path / "curves.csv"

        assert main(["generate", "--config", str(cfg_path), "--out", str(ds)]) == 0
        argv = ["build-graph", "--config", str(cfg_path), "--in", str(ds), "--out", str(graph)]
        assert main(argv) == 0
        assert graph.read_bytes() == paths.graph.read_bytes()
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
                    "--config",
                    str(cfg_path),
                    "--method",
                    "cluster_voting",
                    "--graph",
                    str(graph),
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
        assert ds.read_bytes() == paths.dataset.read_bytes()
        assert ratings.read_bytes() == paths.ratings.read_bytes()
        assert pred.read_bytes() == paths.predictions["dbgae"].read_bytes()
        assert pred_cv.read_bytes() == paths.predictions["cluster_voting"].read_bytes()
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

    def test_train_resume_rejects_a_tensor_the_model_lacks(self, tmp_path, capsys):
        from dbgae.pipeline import save_config

        config = small_config()
        _, paths = run_pipeline(config, out_dir=tmp_path / "run")
        cfg_path = tmp_path / "config.json"
        save_config(config, cfg_path)
        checkpoint = json.loads(paths.params.read_text())
        checkpoint["tensors"]["junk"] = {"shape": [2, 2], "data": [0.0, 1.0, 2.0, 3.0]}
        resume = tmp_path / "resume.json"
        resume.write_text(json.dumps(checkpoint))
        out_params = tmp_path / "params.json"
        args = ["train", "--config", str(cfg_path), "--graph", str(paths.graph), "--resume"]
        args += [str(resume), "--out-params", str(out_params)]
        args += ["--out-ratings", str(tmp_path / "ratings.jsonl")]
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: checkpoint tensor 'junk' is not a tensor of this model"]
        assert not out_params.exists()

    def test_evaluate_rejects_two_files_of_one_method(self, tmp_path, capsys):
        _, paths = run_pipeline(small_config(), out_dir=tmp_path / "run")
        pred = paths.predictions["dbgae"]
        copy = tmp_path / "pred_copy.jsonl"
        copy.write_bytes(pred.read_bytes())
        report = tmp_path / "report.txt"
        args = ["evaluate", "--pred", str(pred), "--pred", str(copy)]
        args += ["--dataset", str(paths.dataset), "--out-report", str(report)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert str(pred) in err and str(copy) in err and "'dbgae'" in err
        assert not report.exists()

    def test_pair_clustering_predict_reads_the_graph(self, tmp_path):
        _, paths = run_pipeline(small_config(), out_dir=tmp_path / "run")
        args = ["predict", "--method", "pair_clustering"]
        out = tmp_path / "pred.jsonl"
        with pytest.raises(SystemExit):
            main(args + ["--out", str(out)])
        assert main(args + ["--graph", str(paths.graph), "--out", str(out)]) == 0
        pipeline_pred = paths.predictions["pair_clustering"]
        assert out.read_bytes() == pipeline_pred.read_bytes()

    def test_every_method_predicts_from_the_graph_alone(self, tmp_path):
        from dbgae.pipeline import save_config

        data = config_to_dict(small_config())
        data["graph"] = {**data["graph"], "min_pts": 3}  # cluster voting reads it
        config = config_from_dict(data)
        _, paths = run_pipeline(config, out_dir=tmp_path / "run")
        cfg_path = tmp_path / "config.json"
        save_config(config, cfg_path)
        graph = ["--graph", str(paths.graph)]
        for method in ("dbgae", "cluster_voting", "pair_clustering"):
            out = tmp_path / f"pred_{method}.jsonl"
            argv = ["predict", "--method", method, "--config", str(cfg_path), "--out", str(out)]
            if method == "dbgae":
                argv += ["--ratings", str(paths.ratings)]
            assert main(argv + graph) == 0
            assert out.read_bytes() == paths.predictions[method].read_bytes()
            for rejected in (argv, argv + graph + ["--dataset", str(paths.dataset)]):
                with pytest.raises(SystemExit) as info:
                    main(rejected)
                assert info.value.code == 2

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

    def test_config_file_not_utf8_fails_with_its_name(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(b'{"seed": 1\xff}')
        rc = main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "ds.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(cfg_path) in err
        assert "Traceback" not in err and not (tmp_path / "ds.jsonl").exists()

    def test_wrong_typed_override_fails_with_the_key(self, tmp_path, capsys):
        argv = ["pipeline", "--set", 'model.epochs="ten"', "--out-dir", str(tmp_path / "run")]
        assert main(argv) == 1
        assert "model.epochs must be an integer, got 'ten'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize("values", ["2,,3", "", "2, "])
    def test_sweep_rejects_an_empty_value_before_any_run(self, tmp_path, capsys, values):
        out = tmp_path / "sweep"
        argv = ["sweep", "--param", "model.num_heads", "--values", values, "--out-dir", str(out)]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "--values has an empty item" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "param, values, first, second",
        [
            ("model.variant", "full,full", "'full'", "'full'"),
            ("model.variant", '"a b",ab', "'a b'", "'ab'"),
            ("generator.null_rate", "0.1,0.10", "0.1", "0.1"),
        ],
        ids=["repeated", "space-dropped", "same-float"],
    )
    def test_sweep_rejects_values_sharing_a_run_directory(
        self, tmp_path, capsys, param, values, first, second
    ):
        from dbgae.pipeline import save_config

        save_config(small_config(), tmp_path / "config.json")
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(tmp_path / "config.json"), "--param", param]
        assert main(argv + ["--values", values, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"sweep values {first} and {second} share the run directory" in err
        assert not out.exists()

    @pytest.mark.parametrize("param", ["seed", "out_dir"])
    def test_sweep_rejects_a_param_the_sweep_sets(self, tmp_path, capsys, param):
        out = tmp_path / "sweep"
        argv = ["sweep", "--param", param, "--values", "1,2", "--out-dir", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sweep param '{param}' is set per run")
        assert "Traceback" not in err
        assert not out.exists()


class TestScripts:
    def test_run_benchmark_writes_rows_and_means_per_variant(self, tmp_path):
        from dataclasses import replace

        from dbgae import benchmark

        script = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "run_benchmark.py"))
        config = benchmark.benchmark_model_config

        def two_epochs(seed, variant="full"):
            return replace(config(seed, variant), epochs=2)

        out = tmp_path / "benchmark.csv"
        with mock.patch("dbgae.benchmark.benchmark_model_config", two_epochs):
            argv = ["--seeds", "0", "--variants", "full,no_cross", "--out", str(out)]
            assert script["main"](argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "variant,seed,method,accuracy,f1"
        assert len(lines) == 1 + 2 * 3 + 2 * 3  # header, variant x method runs, then means
        means = [line.split(",")[:2] for line in lines[7:]]
        assert means == [["full", "mean"]] * 3 + [["no_cross", "mean"]] * 3

    @pytest.mark.parametrize("seeds", ["0,,1", "x"])
    def test_run_benchmark_rejects_seeds_that_are_not_integers(self, tmp_path, capsys, seeds):
        script = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "run_benchmark.py"))
        with pytest.raises(SystemExit) as info:
            script["main"](["--seeds", seeds, "--out", str(tmp_path / "benchmark.csv")])
        assert info.value.code == 2
        assert f"--seeds {seeds!r} is not a comma-separated list of integers" in capsys.readouterr().err
        assert not (tmp_path / "benchmark.csv").exists()


class TestDependencies:
    def test_the_package_imports_only_the_standard_library_and_numpy(self):
        # numpy is the one runtime dependency; function-level imports count.
        import ast
        import sys

        allowed = set(sys.stdlib_module_names) | {"numpy", "dbgae"}
        package = Path(__file__).parents[1] / "src" / "dbgae"
        found = {}
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    found.setdefault(name.split(".")[0], []).append(f"{path.name}:{node.lineno}")
        assert "numpy" in found and "ctypes" in found  # the walk sees the imports
        assert {name: at for name, at in found.items() if name not in allowed} == {}
