import contextlib
import copy
import dataclasses
import gc
import glob
import hashlib
import io
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import types
import typing
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anticipation
from anticipation import NetworkConfig, artifacts, cli, errors, labels, network, workflow


def tiny_config(**overrides):
    config = {
        "seed": 5,
        "horizons": [3.0],
        "sim": {
            "instruments": 2,
            "phases": 2,
            "duration_mean": 150,
            "duration_std": 15,
            "phase_plan": [{"length_mean": 75, "length_std": 10},
                           {"length_mean": 75, "length_std": 10}],
            "usage_rules": [
                {"instrument": 0, "phase": 0, "probability": 1.0, "length_mean": 12},
                {"instrument": 1, "phase": 1, "probability": 0.8, "length_mean": 10},
            ],
            "trigger_rules": [],
            "features": {"noise_std": 0.05},
            "instrument_names": ["probe", "lifter"],
        },
        "split": {"n_train": 3, "n_test": 2},
        "model": {"hidden": 8, "encoder": [8], "dropout": 0.2,
                  "output_mode": "linear_clamped", "phase_classes": 0,
                  "lambda_cls": 0.1, "lambda_phase": None, "weight_decay": 1e-5},
        "train": {"epochs": 2, "learning_rate": 1e-3, "window": 64, "accum_steps": 2},
        "eval": {"samples": 3, "bins": 20, "instruments": None,
                 "methods": ["meanhist", "oraclehist", "model"]},
        "analysis": {"percentiles": [50, 100], "trigger": {"trigger": 0, "target": 1},
                     "use_std": False, "memory_frames": 0},
    }
    config.update(overrides)
    return config


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config()))
    return str(path)


def run_chain(config_path, out_dir, commands=("simulate", "train", "evaluate", "analyze")):
    for command in commands:
        code = cli.main([command, "--config", config_path, "--out", out_dir])
        assert code == 0, f"{command} failed"


def read_manifest(out):
    return json.loads(Path(out, "manifest.json").read_text())


def read_test_split(out):
    """The annotations of a run's test split, in file order, as the CLI reads them."""
    paths = sorted(glob.glob(os.path.join(out, "dataset", "test", "*.csv")))
    return [workflow.load_annotations(path, format="generic_csv") for path in paths
            if not path.endswith(".features.csv")]


def checksum(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestPipeline:
    def test_full_chain_writes_artifacts(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        run_chain(config_path, out)
        assert os.path.exists(os.path.join(out, "dataset", "train", "proc_0000.csv"))
        assert os.path.exists(os.path.join(out, "checkpoints", "model_h3.bin"))
        assert os.path.exists(os.path.join(out, "reports", "metrics_h3.csv"))
        assert os.path.exists(os.path.join(out, "reports", "analysis_pcc_h3.csv"))
        assert os.path.exists(os.path.join(out, "reports", "analysis_trigger_h3.csv"))
        manifest = read_manifest(out)
        assert [r["command"] for r in manifest["runs"]] == [
            "simulate", "train", "evaluate", "analyze"
        ]
        for run in manifest["runs"]:
            assert run["seed"] == 5
            assert run["config_hash"]
            for rel, digest in run["artifacts"].items():
                assert checksum(os.path.join(out, rel)) == digest

    def test_chain_is_deterministic(self, config_path, tmp_path):
        outs = [str(tmp_path / f"run{i}") for i in range(2)]
        for out in outs:
            run_chain(config_path, out)
        for rel in ("reports/metrics_h3.csv", "reports/metrics_h3.json",
                    "reports/analysis_pcc_h3.csv", "reports/analysis_filtering_h3.csv",
                    "reports/analysis_tpfp_h3.csv", "reports/analysis_trigger_h3.csv"):
            assert checksum(os.path.join(outs[0], rel)) == checksum(os.path.join(outs[1], rel)), rel

    def test_data_option_reads_the_dataset_of_another_run(self, config_path, tmp_path, capsys):
        """With ``--data``, a run finds annotations and features there and writes what a
        run over its own ``dataset/`` writes; a missing feature file is named under it."""
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        data = os.path.join(a, "dataset")
        run_chain(config_path, a, commands=("simulate",))
        for command in (["baseline"], ["train"], ["predict"], ["evaluate"], ["analyze", "--plots"]):
            for out, extra in ((a, []), (b, ["--data", data])):
                assert cli.main([*command, "--config", config_path, "--out", out, *extra]) == 0

        def files(root):
            return sorted(os.path.relpath(os.path.join(d, f), root)
                          for d, _, names in os.walk(root) for f in names)

        assert not os.path.exists(os.path.join(b, "dataset"))
        assert files(b) == [f for f in files(a) if not f.startswith("dataset" + os.sep)]
        for name in files(b):
            if name != "manifest.json":
                assert checksum(os.path.join(a, name)) == checksum(os.path.join(b, name)), name
        runs_a, runs_b = read_manifest(a)["runs"], read_manifest(b)["runs"]
        assert {r["config_hash"] for r in runs_a} == {r["config_hash"] for r in runs_b}
        assert runs_b == runs_a[1:]  # all but simulate's entry

        path = os.path.join(data, "test", f"{read_test_split(a)[0].id}.features.csv")
        os.remove(path)
        capsys.readouterr()
        assert cli.main(["predict", "--config", config_path, "--out", b, "--data", data,
                         "--overwrite"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"input error: feature file not found: {path} (the model needs one per sequence)"]

    def test_horizon_sweep_one_report_each(self, tmp_path):
        config = tiny_config(horizons=[2.0, 3.0, 5.0, 7.0],
                             train={"epochs": 1, "learning_rate": 1e-3,
                                    "window": 64, "accum_steps": 2})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = str(tmp_path / "sweep")
        run_chain(str(path), out, commands=("simulate", "train", "evaluate"))
        for h in (2, 3, 5, 7):
            assert os.path.exists(os.path.join(out, "reports", f"metrics_h{h}.csv"))

    def test_lockstep_train_equals_one_run_per_horizon(self, config_path, tmp_path):
        """All horizons train in one pass; each checkpoint and log is the file
        a run of that horizon alone writes."""
        config = tiny_config(horizons=[2.0, 3.0])
        config["model"]["output_mode"] = "scaled_sigmoid"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        together = str(tmp_path / "together")
        run_chain(str(path), together, commands=("simulate", "train"))
        for h in (2.0, 3.0):
            alone = str(tmp_path / f"alone{h:g}")
            shutil.copytree(os.path.join(together, "dataset"), os.path.join(alone, "dataset"))
            alone_path = tmp_path / f"c{h:g}.json"
            alone_path.write_text(json.dumps({**config, "horizons": [h]}))
            assert cli.main(["train", "--config", str(alone_path), "--out", alone]) == 0
            for rel in (f"checkpoints/model_h{h:g}.bin", f"reports/train_log_h{h:g}.csv"):
                assert checksum(os.path.join(together, rel)) == checksum(os.path.join(alone, rel))

    @pytest.mark.parametrize("trained, predicted", [([3], [3.0]), ([3.0], [3])])
    def test_horizon_written_as_integer_or_float_is_one_checkpoint(self, tmp_path, trained,
                                                                   predicted):
        """``predict`` reads the checkpoint ``train`` wrote with the horizon spelled the
        other way: both are one config, with one hash."""
        paths = [tmp_path / "train.json", tmp_path / "predict.json"]
        for path, horizons in zip(paths, (trained, predicted)):
            path.write_text(json.dumps(tiny_config(horizons=horizons)))
        out = str(tmp_path / "run")
        run_chain(str(paths[0]), out, commands=("simulate", "train"))
        run_chain(str(paths[1]), out, commands=("predict",))
        assert sorted(os.listdir(os.path.join(out, "summaries"))) == [
            "summary_proc_0003_h3.bin", "summary_proc_0004_h3.bin"]
        assert len({run["config_hash"] for run in read_manifest(out)["runs"]}) == 1

    def test_train_log_is_the_loss_log_of_each_horizon(self, tmp_path, monkeypatch):
        """Header ``epoch,<loss terms>,total``, then one row per epoch: the log
        ``network.train`` returned, written with the other report CSVs' line ends."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(horizons=[2.0, 3.0])))
        out = str(tmp_path / "run")
        logs = []
        train = network.train

        def recording_train(*args, **kwargs):
            trained = train(*args, **kwargs)
            logs.extend(log for _, log in trained)
            return trained

        monkeypatch.setattr(network, "train", recording_train)
        run_chain(str(path), out, commands=("simulate", "train"))
        for h, log in zip((2, 3), logs):
            lines = Path(out, "reports", f"train_log_h{h}.csv").read_bytes().decode().split("\r\n")
            assert lines.pop() == ""
            header, *rows = (line.split(",") for line in lines)
            assert header == ["epoch", "regression", "classification", "l2", "total"]
            assert header == list(log[0])
            assert len(rows) == len(log) == 2
            for row, entry in zip(rows, log):
                assert [float(cell) for cell in row] == [float(v) for v in entry.values()]

    def test_predict_draws_each_sequence_in_one_call_as_per_horizon_calls_would(
            self, tmp_path, monkeypatch):
        """One ``mc_predict`` call per test sequence covers all three horizons, and
        its summaries equal one call per horizon with that horizon's seed."""
        from anticipation import inference

        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config(horizons=[1.0, 2.0, 3.0])))
        out = str(tmp_path / "run")
        run_chain(str(path), out, commands=("simulate", "train"))
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["horizons"])
            return mc_predict(*args, **kwargs)

        mc_predict = inference.mc_predict
        monkeypatch.setattr(inference, "mc_predict", counted)
        # Serial, so that the calls of every sequence are counted here.
        monkeypatch.setattr(cli, "_fork_map", lambda fn, items: ([fn(i) for i in items], 1))
        run_chain(str(path), out, commands=("predict",))
        assert calls == [[1.0, 2.0, 3.0]] * 2
        config = cli.load_config(str(path))
        test_dir = os.path.join(out, "dataset", "test")
        for index, seq in enumerate(read_test_split(out)):
            feats = workflow.load_features(os.path.join(test_dir, f"{seq.id}.features.csv"))
            for h in config["horizons"]:
                net_config = cli.network_config(config, feats.shape[1], seq.n_instruments, h)
                params = artifacts.load_checkpoint(
                    os.path.join(out, "checkpoints", f"model_h{h:g}.bin"),
                    lambda width: net_config)[0]
                ref = mc_predict(params, net_config, feats, samples=config["eval"].samples,
                                 seed=cli._summary_seed(config["seed"], h, index))
                summary = artifacts.load_summary(
                    os.path.join(out, "summaries", f"summary_{seq.id}_h{h:g}.bin"))
                for name in artifacts.SUMMARY_ARRAYS:
                    assert getattr(summary, name).tobytes() == getattr(ref, name).tobytes(), \
                        (seq.id, h, name)

    def test_predict_then_evaluate_reuses_summaries(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        run_chain(config_path, out, commands=("simulate", "train", "predict"))
        summaries = sorted(os.listdir(os.path.join(out, "summaries")))
        digests = [checksum(os.path.join(out, "summaries", f)) for f in summaries]
        assert cli.main(["evaluate", "--config", config_path, "--out", out]) == 0
        after = [checksum(os.path.join(out, "summaries", f)) for f in summaries]
        assert digests == after

    def test_baseline_command(self, tmp_path):
        """The manifest entry of each mode lists its fitted models and nothing else."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(horizons=[2.0, 3.0])))
        out = str(tmp_path / "run")
        run_chain(str(path), out, commands=("simulate",))
        for mode in ("mean", "oracle"):
            assert cli.main(["baseline", "--config", str(path), "--out", out, "--mode", mode]) == 0
            run = read_manifest(out)["runs"][-1]
            assert run["command"] == "baseline"
            assert sorted(run["artifacts"]) == [
                os.path.join("baselines", f"baseline_{mode}_h{h}.bin") for h in (2, 3)]
        assert sorted(os.listdir(os.path.join(out, "baselines"))) == [
            f"baseline_{mode}_h{h}.bin" for mode in ("mean", "oracle") for h in (2, 3)]

    def test_evaluate_scores_the_saved_baselines(self, tmp_path):
        """``evaluate``'s MeanHist and OracleHist rows are the scores of the files
        ``baseline`` wrote, on the test split: no number is lost to scoring them once."""
        from anticipation import baselines, metrics

        config = tiny_config(horizons=[2.0, 3.0])
        config["eval"]["methods"] = ["meanhist", "oraclehist"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = str(tmp_path / "run")
        run_chain(str(path), out, commands=("simulate",))
        for mode in ("mean", "oracle"):
            assert cli.main(["baseline", "--config", str(path), "--out", out, "--mode", mode]) == 0
        run_chain(str(path), out, commands=("evaluate",))
        test_seqs = read_test_split(out)
        for h in (2.0, 3.0):
            table = json.loads(Path(out, "reports", f"metrics_h{h:g}.json").read_text())
            remaining = [labels.compute_targets(s, h).remaining for s in test_seqs]
            for mode in ("mean", "oracle"):
                model = artifacts.load_baseline(
                    os.path.join(out, "baselines", f"baseline_{mode}_h{h:g}.bin"))
                preds = [baselines.predict_baseline(model, duration=s.n_frames)
                         for s in test_seqs]
                report = metrics.evaluate_predictions(preds, remaining, h,
                                                      names=test_seqs[0].names)
                expected = json.loads(json.dumps(report.to_dict()))
                assert table[f"{mode}hist"] == expected

    def test_sim_fps_is_honoured(self, tmp_path, monkeypatch):
        config = tiny_config()
        config["sim"]["fps"] = 5
        config["eval"]["methods"] = ["meanhist"]  # scored without a checkpoint
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = str(tmp_path / "run")
        run_chain(str(path), out, commands=("simulate",))
        compute = labels.compute_targets
        targets = {}

        def recording(seq, h):
            targets[seq.id] = compute(seq, h)
            return targets[seq.id]

        monkeypatch.setattr(cli.labels, "compute_targets", recording)
        assert cli.main(["baseline", "--config", str(path), "--out", out]) == 0
        saved = artifacts.load_baseline(os.path.join(out, "baselines", "baseline_mean_h3.bin"))
        assert saved.fps == 5.0
        assert cli.main(["evaluate", "--config", str(path), "--out", out]) == 0
        generated = workflow.generate_dataset(cli.load_config(str(path))["sim"], 5, seed=5)
        for seq in generated[3:]:  # the test split
            expected = compute(seq, 3.0)
            assert targets[seq.id].fps == 5.0
            np.testing.assert_array_equal(targets[seq.id].remaining, expected.remaining)
            np.testing.assert_array_equal(targets[seq.id].classes, expected.classes)

    def test_analyze_emits_svg_plots(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        run_chain(config_path, out, commands=("simulate", "train", "predict"))
        assert cli.main(["analyze", "--config", config_path, "--out", out, "--plots"]) == 0
        plots = os.listdir(os.path.join(out, "plots"))
        assert any(p.endswith(".svg") for p in plots)
        assert "filtering_h3.svg" in plots
        assert "trigger_h3.svg" in plots  # the config sets analysis.trigger
        for name in plots:
            root = ElementTree.parse(os.path.join(out, "plots", name)).getroot()
            assert root.tag == "{http://www.w3.org/2000/svg}svg", name
            for element in root.iter():
                for value in element.attrib.values():
                    assert "nan" not in value.lower() and "inf" not in value.lower(), (name, value)
        run = read_manifest(out)["runs"][-1]
        assert run["command"] == "analyze"
        digests = {}
        for name in plots:
            rel = os.path.join("plots", name)
            digests[rel] = checksum(os.path.join(out, rel))
            assert run["artifacts"][rel] == digests[rel]
        assert cli.main(["analyze", "--config", config_path, "--out", out, "--plots",
                         "--overwrite"]) == 0
        assert {rel: checksum(os.path.join(out, rel)) for rel in digests} == digests

    def test_instrument_subset_filters_report(self, tmp_path):
        config = tiny_config()
        config["eval"]["instruments"] = ["lifter"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = str(tmp_path / "run")
        run_chain(str(path), out)
        header = Path(out, "reports", "metrics_h3.csv").read_text().splitlines()[0]
        assert "wmae_lifter" in header and "wmae_probe" not in header


def test_cli_imports_numpy_only():
    """The command line loads no scipy module; scipy is a test-only dependency."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(anticipation.__file__)))
    code = ("import sys, anticipation.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout.strip() == "[]"


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "mystery": True}))
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, key, value", [
        ("train", "model.hidden", "abc"),
        ("train", "model.encoder", 64),
        ("train", "train.epochs", 2.5),
        ("train", "model", 5),
        ("simulate", "sim.phase_plan", [5, 5]),
        ("simulate", "sim.features", [1]),
        ("simulate", "split.n_train", "3"),
        ("predict", "eval.samples", "3"),
        ("analyze", "analysis.trigger", 5),
        ("train", "horizons", "3"),
        ("predict", "eval.samples", 0),
        ("evaluate", "eval.bins", 0),
        ("evaluate", "horizons", [-1.0]),
        ("analyze", "analysis.percentiles", [150]),
        ("analyze", "analysis.memory_frames", -1),
    ])
    def test_malformed_value_names_its_key(self, predicted_run, tmp_path, capsys,
                                           command, key, value):
        _, out = copy_run(predicted_run, tmp_path)
        config = tiny_config()
        *parents, name = key.split(".")
        section = config
        for part in parents:
            section = section[part]
        section[name] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert cli.main([command, "--config", str(path), "--out", out, "--overwrite"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}") and "Traceback" not in err

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("horizons", [[1.0, 1.0000001], [3, 3.0], []])
    def test_horizons_without_distinct_file_tags_rejected(self, tmp_path, capsys, command, horizons):
        """Artifact names tag a horizon as f"{h:g}"; two horizons with one tag
        would write one file twice.  No horizon at all is rejected too."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(horizons=horizons)))
        out = tmp_path / "run"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: horizons: expected one or more horizons with "
                              "distinct file tags")
        assert not out.exists()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(json.dumps(tiny_config()).encode() + b"\xff")
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: not UTF-8 text") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_config_nested_too_deep(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"sim": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: invalid JSON") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_invalid_sim_values(self, tmp_path):
        config = tiny_config()
        config["sim"]["usage_rules"][0]["probability"] = 1.7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("names", [["a,b", "c"], [" a", "c"], ["a", "c\n"], ["", "c"],
                                       ["a", "a"], ["frame", "c"], ["a", "phase"],
                                       ["a", "\ud800"]])
    def test_instrument_names_that_cannot_round_trip(self, tmp_path, capsys, names):
        """Names a CSV header cannot carry are a config error, before any file is written."""
        config = tiny_config()
        config["sim"]["instrument_names"] = names
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "instrument_names" in err and "Traceback" not in err
        assert not (out / "dataset").exists()

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")]) == 3

    def test_missing_dataset(self, config_path, tmp_path):
        assert cli.main(["train", "--config", config_path, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("mode", ["mean", "oracle"])
    def test_baseline_without_a_test_split(self, config_path, tmp_path, mode):
        """A baseline is fitted on the train split alone: OracleHist takes the
        durations of the videos it is applied to, not of a test split."""
        outs = [str(tmp_path / name) for name in ("with_test", "without_test")]
        run_chain(config_path, outs[0], commands=("simulate",))
        shutil.copytree(outs[0], outs[1])
        shutil.rmtree(os.path.join(outs[1], "dataset", "test"))
        for out in outs:
            assert cli.main(["baseline", "--config", config_path, "--out", out,
                             "--mode", mode]) == 0
        rel = os.path.join("baselines", f"baseline_{mode}_h3.bin")
        assert os.listdir(os.path.join(outs[1], "baselines")) == [os.path.basename(rel)]
        assert Path(outs[1], rel).read_bytes() == Path(outs[0], rel).read_bytes()

    def test_rerun_requires_overwrite(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        run_chain(config_path, out, commands=("simulate",))
        assert cli.main(["simulate", "--config", config_path, "--out", out]) == 3
        assert cli.main(["simulate", "--config", config_path, "--out", out,
                         "--overwrite"]) == 0

    def test_missing_checkpoint(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        run_chain(config_path, out, commands=("simulate",))
        assert cli.main(["evaluate", "--config", config_path, "--out", out]) == 3

    def test_empty_analysis(self, config_path, tmp_path):
        """Hand-written summaries with no anticipating predictions anywhere."""
        from anticipation.artifacts import save_summary
        from anticipation.inference import PredictiveSummary

        out = str(tmp_path / "run")
        run_chain(config_path, out, commands=("simulate",))
        os.makedirs(os.path.join(out, "summaries"))
        test_files = sorted(
            f for f in os.listdir(os.path.join(out, "dataset", "test"))
            if f.endswith(".csv") and not f.endswith(".features.csv")
        )
        for name in test_files:
            seq_csv = os.path.join(out, "dataset", "test", name)
            seq_id = name[:-4]
            n = len(Path(seq_csv).read_text().splitlines()) - 1
            background = np.tile([0.0, 0.0, 1.0], (n, 2, 1))
            zeros = np.zeros((n, 2))
            summary = PredictiveSummary(
                samples=3, horizon=3.0,
                reg_mean=np.full((n, 2), 3.0), reg_epistemic_var=zeros,
                class_mean=background,
                class_epistemic_per_class=np.zeros((n, 2, 3)),
                class_aleatoric_per_class=np.zeros((n, 2, 3)),
            )
            save_summary(summary, os.path.join(out, "summaries", f"summary_{seq_id}_h3.bin"))
        assert cli.main(["analyze", "--config", config_path, "--out", out]) == 5

    def test_numeric_failure_exit_code(self, tmp_path):
        """An exploding learning rate drives the loss to infinity."""
        config = tiny_config(train={"epochs": 2, "learning_rate": 1e155,
                                    "window": 32, "accum_steps": 1})
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = str(tmp_path / "run")
        run_chain(str(path), out, commands=("simulate",))
        with np.errstate(all="ignore"):
            assert cli.main(["train", "--config", str(path), "--out", out]) == 4


@pytest.fixture(scope="module")
def predicted_run(tmp_path_factory):
    """A run directory after simulate, train and predict on ``tiny_config``."""
    root = tmp_path_factory.mktemp("predicted")
    path = root / "config.json"
    path.write_text(json.dumps(tiny_config()))
    out = str(root / "run")
    run_chain(str(path), out, commands=("simulate", "train", "predict"))
    return str(path), out


def copy_run(predicted_run, tmp_path):
    config_path, out = predicted_run
    copy = str(tmp_path / "run")
    shutil.copytree(out, copy)
    return config_path, copy


class TestDamagedRunDirectory:
    """Damaged or mismatched artifacts exit 3 and name the file, never a traceback."""

    def test_summaries_are_bin_listed_in_manifest(self, predicted_run):
        _, out = predicted_run
        files = sorted(os.listdir(os.path.join(out, "summaries")))
        assert files and all(f.endswith(".bin") for f in files)
        run = read_manifest(out)["runs"][-1]
        assert run["command"] == "predict"
        for name in files:
            rel = os.path.join("summaries", name)
            assert run["artifacts"][rel] == checksum(os.path.join(out, rel))

    def test_truncated_summary(self, predicted_run, tmp_path, capsys):
        config_path, out = copy_run(predicted_run, tmp_path)
        path = os.path.join(out, "summaries", sorted(os.listdir(os.path.join(out, "summaries")))[0])
        data = Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        for command in ("evaluate", "analyze"):
            capsys.readouterr()
            assert cli.main([command, "--config", config_path, "--out", out]) == 3
            assert path in capsys.readouterr().err

    def test_summary_of_wrong_length(self, predicted_run, tmp_path, capsys):
        from anticipation.artifacts import SUMMARY_ARRAYS, load_summary, save_summary

        config_path, out = copy_run(predicted_run, tmp_path)
        path = os.path.join(out, "summaries", sorted(os.listdir(os.path.join(out, "summaries")))[0])
        summary = load_summary(path)
        n = summary.n_frames
        for name in SUMMARY_ARRAYS:
            setattr(summary, name, getattr(summary, name)[: n - 7])
        save_summary(summary, path)
        for command in ("evaluate", "analyze"):
            capsys.readouterr()
            assert cli.main([command, "--config", config_path, "--out", out]) == 3
            err = capsys.readouterr().err
            assert path in err and f"({n - 7}, 2)" in err and f"({n}, 2)" in err

    @staticmethod
    def seven_samples_config(tmp_path):
        """``tiny_config`` with ``eval.samples`` 7, where the predicted run drew 3."""
        config = tiny_config()
        config["eval"]["samples"] = 7
        path = tmp_path / "c7.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_summary_of_other_sample_count_recomputed_with_overwrite(self, predicted_run,
                                                                      tmp_path):
        from anticipation.artifacts import load_summary

        _, out = copy_run(predicted_run, tmp_path)
        assert cli.main(["evaluate", "--config", self.seven_samples_config(tmp_path),
                         "--out", out, "--overwrite"]) == 0
        run = read_manifest(out)["runs"][-1]
        assert run["resolved_config"]["eval"]["samples"] == 7
        files = sorted(os.listdir(os.path.join(out, "summaries")))
        for name in files:
            rel = os.path.join("summaries", name)
            assert load_summary(os.path.join(out, rel)).samples == 7
            assert run["artifacts"][rel] == checksum(os.path.join(out, rel))

    def test_summary_of_other_sample_count_refused(self, predicted_run, tmp_path, capsys):
        _, out = copy_run(predicted_run, tmp_path)
        path = os.path.join(out, "summaries", sorted(os.listdir(os.path.join(out, "summaries")))[0])
        before = checksum(path)
        assert cli.main(["evaluate", "--config", self.seven_samples_config(tmp_path),
                         "--out", out]) == 3
        err = capsys.readouterr().err
        assert path in err and "3 MC samples" in err and "eval.samples is 7" in err
        assert checksum(path) == before

    def test_truncated_checkpoint(self, predicted_run, tmp_path, capsys):
        config_path, out = copy_run(predicted_run, tmp_path)
        path = os.path.join(out, "checkpoints", "model_h3.bin")
        data = Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(data[:-100])
        assert cli.main(["predict", "--config", config_path, "--out", out, "--overwrite"]) == 3
        err = capsys.readouterr().err
        assert path in err and "truncated" in err

    def test_truncation_sweep(self, predicted_run, tmp_path, capsys):
        """Every proper prefix of a summary is an input error naming the file."""
        from anticipation.artifacts import SUMMARY_ARRAYS, load_summary, save_summary

        config_path, out = copy_run(predicted_run, tmp_path)
        path = os.path.join(out, "summaries", sorted(os.listdir(os.path.join(out, "summaries")))[0])
        data = Path(path).read_bytes()
        # At the CLI: cuts in the header, at its end and around each array boundary.
        head = data.index(b"\n") + 1
        summary = load_summary(path)
        ends = head + np.cumsum([getattr(summary, name).nbytes for name in SUMMARY_ARRAYS])
        assert ends[-1] == len(data)
        cuts = sorted({0, 1, head // 2, head - 1, head, head + 1, len(data) - 1}
                      | {int(end) + d for end in ends[:-1] for d in (-1, 0, 1)})
        for cut in cuts:
            with open(path, "wb") as fh:
                fh.write(data[:cut])
            capsys.readouterr()
            assert cli.main(["evaluate", "--config", config_path, "--out", out]) == 3, cut
            assert path in capsys.readouterr().err
        # Every prefix of a small summary, through the loader the CLI uses.
        for name in SUMMARY_ARRAYS:
            setattr(summary, name, getattr(summary, name)[:2])
        save_summary(summary, path)
        data = Path(path).read_bytes()
        seq = read_test_split(out)[0]
        seq_path = os.path.join(out, "dataset", "test", f"{seq.id}.csv")
        for cut in range(len(data)):
            with open(path, "wb") as fh:
                fh.write(data[:cut])
            with pytest.raises(cli.InputError) as info:
                artifacts.reusable_summary(path, seq, seq_path, 3.0, 3, False)
            assert path in str(info.value), cut

    def test_old_npz_summaries_are_recomputed(self, predicted_run, tmp_path):
        config_path, out = copy_run(predicted_run, tmp_path)
        summary_dir = os.path.join(out, "summaries")
        before = {name: checksum(os.path.join(summary_dir, name)) for name in os.listdir(summary_dir)}
        for name in before:
            os.rename(os.path.join(summary_dir, name), os.path.join(summary_dir, name[:-4] + ".npz"))
        assert cli.main(["evaluate", "--config", config_path, "--out", out]) == 0
        run = read_manifest(out)["runs"][-1]
        for name, digest in before.items():
            assert checksum(os.path.join(summary_dir, name)) == digest
            assert run["artifacts"][os.path.join("summaries", name)] == digest

    def test_v1_summary_is_refused_until_predict_overwrite(self, predicted_run, tmp_path,
                                                           capsys):
        """A summary in the older format, which also stored the class-averaged
        variances, exits 3 naming it; ``predict --overwrite`` redraws it."""
        from anticipation.artifacts import load_summary

        config_path, out = copy_run(predicted_run, tmp_path)
        path = os.path.join(out, "summaries", sorted(os.listdir(os.path.join(out, "summaries")))[0])
        before, summary = checksum(path), load_summary(path)
        arrays = {name: getattr(summary, name) for name in (
            "reg_mean", "reg_epistemic_var", "class_mean", "class_epistemic_var",
            "class_aleatoric_var", "class_epistemic_per_class", "class_aleatoric_per_class")}
        artifacts.save_container(path, "anticipation-summary-v1", arrays,
                                 samples=summary.samples, horizon=summary.horizon)
        for command in ("evaluate", "analyze"):
            capsys.readouterr()
            assert cli.main([command, "--config", config_path, "--out", out]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"input error: unreadable summary: {path}: "
                                  "not an anticipation-summary-v2 file")
            assert "Traceback" not in err
        assert cli.main(["predict", "--config", config_path, "--out", out, "--overwrite"]) == 0
        assert checksum(path) == before
        run_chain(config_path, out, commands=("evaluate", "analyze"))

    @pytest.mark.parametrize("damage, found", [
        (lambda arrays: arrays.pop("reg_mean"),
         "['class_aleatoric_per_class', 'class_epistemic_per_class', 'class_mean', "
         "'reg_epistemic_var']"),
        (lambda arrays: arrays.update(extra=np.zeros(2)),
         "['class_aleatoric_per_class', 'class_epistemic_per_class', 'class_mean', 'extra', "
         "'reg_epistemic_var', 'reg_mean']"),
    ], ids=["missing", "extra"])
    def test_summary_of_other_arrays_is_refused(self, predicted_run, tmp_path, capsys, damage,
                                                found):
        """A summary whose container holds one array too few or too many exits 3 naming it."""
        config_path, out = copy_run(predicted_run, tmp_path)
        path = os.path.join(out, "summaries", sorted(os.listdir(os.path.join(out, "summaries")))[0])
        header, arrays = artifacts.load_container(path, artifacts.SUMMARY_FORMAT)
        damage(arrays)
        artifacts.save_container(path, artifacts.SUMMARY_FORMAT, arrays, samples=header["samples"],
                                 horizon=header["horizon"], names=header["names"])
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", config_path, "--out", out]) == 3
        assert capsys.readouterr().err == (
            f"input error: unreadable summary: {path}: holds arrays {found}, expected "
            "['class_aleatoric_per_class', 'class_epistemic_per_class', 'class_mean', "
            "'reg_epistemic_var', 'reg_mean']\n")

    def test_summaries_record_the_checkpoint_instruments(self, predicted_run):
        from anticipation.artifacts import load_summary

        _, out = predicted_run
        for name in os.listdir(os.path.join(out, "summaries")):
            assert load_summary(os.path.join(out, "summaries", name)).names == ["probe", "lifter"]

    def test_summary_of_other_instruments_is_refused(self, predicted_run, tmp_path, capsys):
        """Reused summaries drawn for other instruments than the test files name."""
        config_path, out = copy_run(predicted_run, tmp_path)
        dataset = Path(out, "dataset")
        for path in (dataset / "test").glob("proc_????.csv"):
            path.write_text(path.read_text().replace("lifter", "hook", 1))
        assert cli.main(["analyze", "--config", config_path, "--out", out]) == 3
        err = capsys.readouterr().err
        summary = os.path.join(out, "summaries", "summary_proc_0003_h3.bin")
        assert err.startswith(
            f"input error: summary {summary}: drawn for instruments ['probe', 'lifter'], but "
            f"{dataset / 'test' / 'proc_0003.csv'} names ['probe', 'hook']")
        assert "Traceback" not in err
        assert not list(Path(out, "reports").glob("analysis_*"))

    def test_summary_without_names_is_not_compared(self, predicted_run, tmp_path):
        from anticipation.artifacts import load_summary, save_summary

        config_path, out = copy_run(predicted_run, tmp_path)
        for name in os.listdir(os.path.join(out, "summaries")):
            path = os.path.join(out, "summaries", name)
            summary = load_summary(path)
            summary.names = None
            save_summary(summary, path)
        for path in Path(out, "dataset", "test").glob("proc_????.csv"):
            path.write_text(path.read_text().replace("lifter", "hook", 1))
        run_chain(config_path, out, commands=("analyze",))

    @pytest.mark.parametrize("artifact", ["checkpoint", "summary"])
    @pytest.mark.parametrize("damage", ["params deleted", "shape 'xx'"])
    def test_damaged_container_header(self, predicted_run, tmp_path, capsys, artifact, damage):
        config_path, out = copy_run(predicted_run, tmp_path)
        if artifact == "checkpoint":
            path = os.path.join(out, "checkpoints", "model_h3.bin")
            command = ["predict", "--overwrite"]
        else:
            path = os.path.join(out, "summaries",
                                sorted(os.listdir(os.path.join(out, "summaries")))[0])
            command = ["evaluate"]
        with open(path, "rb") as fh:
            header, payload = json.loads(fh.readline()), fh.read()
        if damage == "params deleted":
            del header["params"]
        else:
            header["params"][0][1] = "xx"
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + payload)
        assert cli.main([command[0], "--config", config_path, "--out", out, *command[1:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and path in err

    def test_checkpoint_for_other_model_config(self, predicted_run, tmp_path, capsys):
        _, out = copy_run(predicted_run, tmp_path)
        config = tiny_config()
        config["model"]["hidden"] = 16
        config_path = tmp_path / "other.json"
        config_path.write_text(json.dumps(config))
        assert cli.main(["predict", "--config", str(config_path), "--out", out,
                         "--overwrite"]) == 3
        err = capsys.readouterr().err
        assert os.path.join(out, "checkpoints", "model_h3.bin") in err
        assert "different configuration" in err

    def test_failed_manifest_write_keeps_previous_manifest(self, config_path, tmp_path,
                                                          monkeypatch):
        out = str(tmp_path / "run")
        run_chain(config_path, out, commands=("simulate",))
        manifest_path = os.path.join(out, "manifest.json")
        before = Path(manifest_path).read_bytes()

        def failing_dump(obj, fh, **kwargs):
            fh.write('{"runs": [')
            raise OSError("disk full")

        monkeypatch.setattr(cli.json, "dump", failing_dump)
        assert cli.main(["simulate", "--config", config_path, "--out", out, "--overwrite"]) == 3
        monkeypatch.undo()
        assert Path(manifest_path).read_bytes() == before
        assert [r["command"] for r in json.loads(before)["runs"]] == ["simulate"]
        assert sorted(os.listdir(out)) == ["dataset", "manifest.json"]

    def test_evaluate_loads_each_sequence_once(self, tmp_path, monkeypatch):
        config = tiny_config(horizons=[2.0, 3.0])
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = str(tmp_path / "run")
        run_chain(str(config_path), out, commands=("simulate", "train"))
        loaded = []
        load = cli.workflow.load_annotations

        def counting_load(path, *args, **kwargs):
            loaded.append(os.path.relpath(path, out))
            return load(path, *args, **kwargs)

        monkeypatch.setattr(cli.workflow, "load_annotations", counting_load)
        assert cli.main(["evaluate", "--config", str(config_path), "--out", out]) == 0
        test_files = [os.path.join("dataset", "test", f"proc_{i:04d}.csv") for i in (3, 4)]
        assert sorted(p for p in loaded if p.startswith(os.path.join("dataset", "test"))) \
            == test_files
        assert len(loaded) == len(set(loaded)) == 5

    def test_evaluate_builds_each_sequences_targets_once_per_horizon(self, tmp_path,
                                                                     monkeypatch):
        """Both baseline modes fit from one set of train targets per horizon."""
        config = tiny_config(horizons=[2.0, 3.0])
        config["eval"]["methods"] = ["meanhist", "oraclehist"]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = str(tmp_path / "run")
        run_chain(str(config_path), out, commands=("simulate",))
        built = []
        compute = labels.compute_targets

        def counting_compute(seq, horizon):
            built.append((seq.id, horizon))
            return compute(seq, horizon)

        monkeypatch.setattr(labels, "compute_targets", counting_compute)
        assert cli.main(["evaluate", "--config", str(config_path), "--out", out]) == 0
        assert sorted(built) == [(f"proc_{i:04d}", h) for i in range(5) for h in (2.0, 3.0)]

    @pytest.mark.parametrize("command", ["predict", "evaluate", "analyze"])
    def test_each_checkpoint_is_opened_once_per_horizon(self, trained_run, tmp_path,
                                                         monkeypatch, command):
        config_path, out = copy_run(trained_run, tmp_path)
        opened = []
        load = artifacts.load_container

        def counting_load(path, *args, **kwargs):
            opened.append(os.path.relpath(path, out))
            return load(path, *args, **kwargs)

        monkeypatch.setattr(artifacts, "load_container", counting_load)
        assert cli.main([command, "--config", config_path, "--out", out]) == 0
        assert sorted(p for p in opened if p.startswith("checkpoints")) == [
            os.path.join("checkpoints", f"model_h{h}.bin") for h in (2, 3)]

    @pytest.mark.parametrize("command, split, seq_id", [
        ("train", "train", "proc_0001"),
        ("predict", "test", "proc_0004"),
        ("evaluate", "test", "proc_0004"),
        ("analyze", "test", "proc_0004"),
    ])
    def test_missing_feature_file_names_it(self, predicted_run, tmp_path, capsys,
                                           command, split, seq_id):
        """Every sequence is checked, not only the first one of its split."""
        config_path, out = copy_run(predicted_run, tmp_path)
        shutil.rmtree(os.path.join(out, "summaries"))
        path = os.path.join(out, "dataset", split, f"{seq_id}.features.csv")
        os.remove(path)
        assert cli.main([command, "--config", config_path, "--out", out, "--overwrite"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: feature file not found: {path}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, split, seq_id", [
        ("train", "train", "proc_0001"),
        # The first test file is read before any other, the second after one.
        ("predict", "test", "proc_0003"),
        ("predict", "test", "proc_0004"),
        ("evaluate", "test", "proc_0003"),
        ("evaluate", "test", "proc_0004"),
        ("analyze", "test", "proc_0003"),
        ("analyze", "test", "proc_0004"),
    ])
    @pytest.mark.parametrize("damage", ["one row short", "one column narrower"])
    def test_malformed_feature_file_names_it(self, predicted_run, tmp_path, capsys,
                                             command, split, seq_id, damage):
        config_path, out = copy_run(predicted_run, tmp_path)
        shutil.rmtree(os.path.join(out, "summaries"))
        path = os.path.join(out, "dataset", split, f"{seq_id}.features.csv")
        feats = workflow.load_features(path)
        n = len(feats)
        if damage == "one row short":
            workflow.save_features(feats[:-1], path)
            message = f"{path}: feature rows ({n - 1}) do not match sequence length ({n})"
        else:
            workflow.save_features(feats[:, :-1], path)
            source = ("as in the first train file" if split == "train"
                      else "the checkpoint's input_dim")
            message = f"{path}: 3 feature columns, expected 4 ({source})"
        assert cli.main([command, "--config", config_path, "--out", out, "--overwrite"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {message}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, split, seq_id, value", [
        ("train", "train", "proc_0001", "nan"),
        ("predict", "test", "proc_0003", "1e999"),
        ("predict", "test", "proc_0004", "nan"),
        ("evaluate", "test", "proc_0004", "-inf"),
        ("analyze", "test", "proc_0004", "nan"),
    ])
    def test_non_finite_feature_names_its_file_line_and_column(self, predicted_run, tmp_path,
                                                                capsys, command, split, seq_id,
                                                                value):
        """A non-finite cell would carry NaN through the recurrence into a quiet
        wrong summary (or, in ``train``, into the loss): it exits 3 instead."""
        config_path, out = copy_run(predicted_run, tmp_path)
        shutil.rmtree(os.path.join(out, "summaries"))
        path = os.path.join(out, "dataset", split, f"{seq_id}.features.csv")
        lines = Path(path).read_text().splitlines(keepends=True)
        cells = lines[6].split(",")
        cells[1] = value
        lines[6] = ",".join(cells)
        Path(path).write_text("".join(lines))
        assert cli.main([command, "--config", config_path, "--out", out, "--overwrite"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: line 7, column 2: feature value "
                              f"'{value}' is not a finite number")
        assert "Traceback" not in err

    def test_empty_feature_file_is_one_line_on_stderr(self, predicted_run, tmp_path):
        """A process with default warning filters: numpy's 'no data' warning
        must not reach stderr beside the exit-3 message."""
        config_path, out = copy_run(predicted_run, tmp_path)
        path = os.path.join(out, "dataset", "test", "proc_0004.features.csv")
        Path(path).write_text("")
        src = os.path.dirname(os.path.dirname(os.path.abspath(anticipation.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        result = subprocess.run(
            [sys.executable, "-m", "anticipation", "predict", "--config", config_path,
             "--out", out, "--overwrite"],
            capture_output=True, text=True, env={**env, "PYTHONPATH": src}, timeout=300,
        )
        assert result.returncode == 3
        assert result.stderr == f"input error: {path}: feature file has no rows\n"

    def test_annotation_file_that_is_not_utf8_names_it(self, predicted_run, tmp_path, capsys):
        config_path, out = copy_run(predicted_run, tmp_path)
        path = os.path.join(out, "dataset", "test", "proc_0004.csv")
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        assert cli.main(["evaluate", "--config", config_path, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: not UTF-8 text") and "Traceback" not in err

    @pytest.mark.parametrize("command, split, seq_id", [
        ("baseline", "train", "proc_0002"),
        ("train", "train", "proc_0002"),
        ("evaluate", "train", "proc_0002"),
        ("predict", "test", "proc_0004"),
        ("evaluate", "test", "proc_0004"),
        ("analyze", "test", "proc_0004"),
    ])
    def test_file_with_other_instruments_names_it(self, predicted_run, tmp_path, capsys,
                                                  command, split, seq_id):
        """A file lacking a column of its split's first file exits 3 naming both files."""
        config_path, out = copy_run(predicted_run, tmp_path)
        shutil.rmtree(os.path.join(out, "summaries"))
        path = Path(out, "dataset", split, f"{seq_id}.csv")
        first = Path(out, "dataset", split, {"train": "proc_0000", "test": "proc_0003"}[split])
        rows = [line.split(",") for line in path.read_text().splitlines()]
        path.write_text("".join(",".join(row[:2] + row[3:]) + "\n" for row in rows))
        assert cli.main([command, "--config", config_path, "--out", out, "--overwrite"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: instruments ['probe'] differ from "
                              f"['probe', 'lifter'] of {first}.csv")
        assert "Traceback" not in err

    def test_splits_with_other_instruments_are_refused(self, predicted_run, tmp_path, capsys):
        """Each split consistent, but the test split names another instrument."""
        config_path, out = copy_run(predicted_run, tmp_path)
        dataset = Path(out, "dataset")
        for path in (dataset / "test").glob("proc_????.csv"):
            path.write_text(path.read_text().replace("lifter", "hook", 1))
        assert cli.main(["evaluate", "--config", config_path, "--out", out, "--overwrite"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            f"input error: {dataset / 'test' / 'proc_0003.csv'}: instruments "
            f"['probe', 'hook'] differ from ['probe', 'lifter'] of "
            f"{dataset / 'train' / 'proc_0000.csv'}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["predict", "analyze"])
    def test_checkpoint_of_other_instruments_is_refused(self, predicted_run, tmp_path, capsys,
                                                        command):
        """The test split names other instruments than the checkpoint was trained on."""
        config_path, out = copy_run(predicted_run, tmp_path)
        shutil.rmtree(os.path.join(out, "summaries"))
        dataset = Path(out, "dataset")
        for path in (dataset / "test").glob("proc_????.csv"):
            path.write_text(path.read_text().replace("lifter", "hook", 1))
        assert cli.main([command, "--config", config_path, "--out", out, "--overwrite"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            f"input error: {os.path.join(out, 'checkpoints', 'model_h3.bin')}: trained on "
            f"instruments ['probe', 'lifter'], but {dataset / 'test' / 'proc_0003.csv'} names "
            "['probe', 'hook']")
        assert "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "summaries"))

    @pytest.mark.parametrize("command", ["baseline", "predict"])
    def test_stray_feature_sidecar_is_ignored(self, predicted_run, tmp_path, command):
        config_path, out = copy_run(predicted_run, tmp_path)
        with open(os.path.join(out, "dataset", "test", "proc_0003.features.csv.hdr"), "w") as fh:
            fh.write("F=3 n=99\n")
        assert cli.main([command, "--config", config_path, "--out", out, "--overwrite"]) == 0

    def test_only_network_commands_read_feature_files(self, tmp_path, monkeypatch):
        """Feature files are read where the network runs, each once per command.

        Reads are logged to a file opened for appending, so the reads of
        forked summary workers count as well.
        """
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config(horizons=[2.0, 3.0])))
        out = str(tmp_path / "run")
        run_chain(str(config_path), out, commands=("simulate",))
        log = tmp_path / "reads.log"
        attach = cli.workflow.attach_features

        def counting_attach(seq, path):
            fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, f"{os.path.relpath(path, os.path.join(out, 'dataset'))}\n".encode())
            finally:
                os.close(fd)
            return attach(seq, path)

        monkeypatch.setattr(cli.workflow, "attach_features", counting_attach)
        split_files = {split: [os.path.join(split, f"proc_{i:04d}.features.csv") for i in ids]
                       for split, ids in (("train", (0, 1, 2)), ("test", (3, 4)))}
        expected = {"baseline": [], "train": split_files["train"], "predict": split_files["test"],
                    "evaluate": [], "analyze": []}
        for command, files in expected.items():
            log.write_text("")
            run_chain(str(config_path), out, commands=(command,))
            assert sorted(log.read_text().splitlines()) == files, command

    def test_checkpoint_without_config_hash(self, predicted_run, tmp_path, capsys):
        """A checkpoint of another model size, stamped with no config hash."""
        config_path, out = copy_run(predicted_run, tmp_path)
        ckpt = os.path.join(out, "checkpoints", "model_h3.bin")
        other = NetworkConfig(input_dim=4, instruments=2, horizon=3.0, hidden=5, encoder=(8,))
        artifacts.save_container(ckpt, artifacts.CHECKPOINT_FORMAT,
                                 network.init_params(other, seed=0), config_hash=None)
        assert cli.main(["predict", "--config", config_path, "--out", out, "--overwrite"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {ckpt}: checkpoint was written for a different "
                              "configuration (config hash None")
        assert "Traceback" not in err

    @pytest.mark.parametrize("old, new", [(b'"cls_b"', b'"cls_c"'),
                                          (b'["reg_b", [2]]', b'["reg_b", [1, 2]]')])
    def test_checkpoint_of_other_arrays_than_its_model(self, predicted_run, tmp_path, capsys,
                                                       old, new):
        """A checkpoint stamped for the run's config whose arrays are renamed or reshaped
        (its byte count kept, so only its model can tell) exits 3 naming it."""
        config_path, out = copy_run(predicted_run, tmp_path)
        ckpt = os.path.join(out, "checkpoints", "model_h3.bin")
        raw = Path(ckpt).read_bytes()
        assert raw.count(old) == 1
        Path(ckpt).write_bytes(raw.replace(old, new))
        assert cli.main(["predict", "--config", config_path, "--out", out, "--overwrite"]) == 3
        assert capsys.readouterr().err == (f"input error: {ckpt}: checkpoint arrays are not "
                                           "those of its config's model\n")

    @pytest.mark.parametrize("phase_classes, strip_phase_column, found", [
        (1, False, "it has phase index 1"),
        (2, True, "its annotations have no phase column"),
    ])
    def test_phase_head_that_does_not_fit_names_its_key(self, tmp_path, capsys, phase_classes,
                                                        strip_phase_column, found):
        config = tiny_config()
        config["model"]["phase_classes"] = phase_classes
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = str(tmp_path / "run")
        run_chain(str(path), out, commands=("simulate",))
        if strip_phase_column:
            for name in os.listdir(os.path.join(out, "dataset", "train")):
                if not name.endswith(".features.csv"):
                    csv = os.path.join(out, "dataset", "train", name)
                    lines = Path(csv).read_text().splitlines()
                    assert lines[0].endswith(",phase")
                    with open(csv, "w") as fh:
                        fh.write("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        assert cli.main(["train", "--config", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model.phase_classes: ")
        assert "'proc_0000'" in err and found in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "checkpoints"))


class TestRunLedger:
    """Every output a command writes is listed in its manifest entry, also on failure."""

    @staticmethod
    def write_summaries(out, h, anticipating):
        from anticipation.artifacts import save_summary
        from anticipation.inference import PredictiveSummary

        rng = np.random.default_rng(int(h))
        for seq in read_test_split(out):
            n = seq.n_frames
            probs = [1.0, 0.0, 0.0] if anticipating else [0.0, 0.0, 1.0]
            summary = PredictiveSummary(
                samples=3, horizon=h,
                reg_mean=np.full((n, 2), h / 2 if anticipating else h),
                reg_epistemic_var=rng.uniform(0.1, 1.0, (n, 2)),
                class_mean=np.tile(probs, (n, 2, 1)),
                class_epistemic_per_class=np.zeros((n, 2, 3)),
                class_aleatoric_per_class=np.zeros((n, 2, 3)),
            )
            save_summary(summary, os.path.join(out, "summaries",
                                               f"summary_{seq.id}_h{h:g}.bin"))

    def test_partial_failure_lists_what_was_written(self, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(tiny_config(horizons=[3.0, 5.0])))
        out = str(tmp_path / "run")
        run_chain(str(config_path), out, commands=("simulate",))
        os.makedirs(os.path.join(out, "summaries"))
        self.write_summaries(out, 3.0, anticipating=True)
        self.write_summaries(out, 5.0, anticipating=False)
        capsys.readouterr()
        assert cli.main(["analyze", "--config", str(config_path), "--out", out]) == 5
        captured = capsys.readouterr()
        assert "wrote" not in captured.out
        runs = read_manifest(out)["runs"]
        assert [r["command"] for r in runs] == ["simulate", "analyze"]
        written = {os.path.join("reports", f"analysis_{name}_h3.csv")
                   for name in ("pcc", "filtering", "tpfp", "trigger")}
        assert set(runs[1]["artifacts"]) == written
        for rel in written:
            assert runs[1]["artifacts"][rel] == checksum(os.path.join(out, rel))
        assert runs[1]["error"] == \
            "no anticipating predictions anywhere at horizon 5; nothing to analyze"
        assert captured.err == f"empty result: {runs[1]['error']}\n"
        assert "error" not in runs[0]
        # The overwrite policy is unchanged: the listed outputs are still refused.
        config_path.write_text(json.dumps(tiny_config(horizons=[3.0])))
        assert cli.main(["analyze", "--config", str(config_path), "--out", out]) == 3

    def test_failure_before_writing_adds_no_entry(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        run_chain(config_path, out, commands=("simulate",))
        before = Path(os.path.join(out, "manifest.json")).read_bytes()
        assert cli.main(["evaluate", "--config", config_path, "--out", out]) == 3  # no checkpoint
        assert Path(os.path.join(out, "manifest.json")).read_bytes() == before
        assert sorted(os.listdir(out)) == ["dataset", "manifest.json"]

    @pytest.mark.parametrize("damage", [
        b"garbage", b"[]", b'{"runs": 5}', b"\xff\xfe",
        pytest.param(b'{"runs": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", id="nested-too-deep"),
    ])
    def test_damaged_manifest_stops_the_command_before_it_writes(self, config_path, tmp_path,
                                                                capsys, damage):
        out = str(tmp_path / "run")
        run_chain(config_path, out, commands=("simulate",))
        manifest = os.path.join(out, "manifest.json")
        with open(manifest, "wb") as fh:
            fh.write(damage)

        def files():
            return sorted(os.path.join(d, f) for d, _, names in os.walk(out) for f in names)

        before = files()
        capsys.readouterr()
        assert cli.main(["baseline", "--config", config_path, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"input error: damaged run manifest {manifest}")
        assert "Traceback" not in err
        assert files() == before
        assert Path(manifest).read_bytes() == damage

    def test_evaluate_writes_no_baseline_files(self, predicted_run, tmp_path):
        config_path, out = copy_run(predicted_run, tmp_path)
        assert cli.main(["evaluate", "--config", config_path, "--out", out]) == 0
        run = read_manifest(out)["runs"][-1]
        assert run["command"] == "evaluate"
        assert sorted(run["artifacts"]) == [os.path.join("reports", "metrics_h3.csv"),
                                            os.path.join("reports", "metrics_h3.json")]
        assert not os.path.exists(os.path.join(out, "baselines"))


SRC = os.path.dirname(os.path.dirname(os.path.abspath(anticipation.__file__)))
# With BLAS pinned to one thread, importing numpy starts no thread, so the
# process may fork its summary workers.
PINNED_ENV = {**os.environ, "PYTHONPATH": SRC, "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CAN_FORK = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and os.path.isdir("/proc/self/task") and len(os.sched_getaffinity(0)) >= 2)
# Runs one command in-process, on one core if asked to, then reports its exit
# code and whether it left a child process behind.
RUN_AND_REAP = """
import os, sys
from anticipation import cli
if sys.argv[1] == "serial":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
code = cli.main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
    print(code, "child left")
except ChildProcessError:
    print(code, "no child left")
"""


def run_pinned(code, *args):
    """Run ``code`` in a single-threaded Python process on two cores."""
    two_cores = "import os; os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])\n"
    return subprocess.run([sys.executable, "-c", two_cores + code, *args], capture_output=True,
                          text=True, env=PINNED_ENV, timeout=300)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A run directory after simulate and train: three test sequences, two horizons."""
    root = tmp_path_factory.mktemp("trained")
    path = root / "config.json"
    path.write_text(json.dumps(tiny_config(horizons=[2.0, 3.0],
                                           split={"n_train": 3, "n_test": 3})))
    out = str(root / "run")
    run_chain(str(path), out, commands=("simulate", "train"))
    return str(path), out


class TestForkedSummaries:
    """Summaries drawn on forked workers are those of the serial loop."""

    def test_fork_map_without_items_or_with_one_does_not_fork(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert cli._fork_map(abs, []) == ([], 1)
        assert cli._fork_map(abs, [-2]) == ([2], 1)

    @pytest.mark.skipif(not CAN_FORK, reason="needs os.fork, /proc and two cores")
    def test_a_second_thread_stops_the_fork(self):
        code = """
import os, threading
from anticipation import cli
def pids():
    found, n = cli._fork_map(lambda item: os.getpid(), [0, 1, 2])
    return len(set(found)), n
alone = pids()
stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
try:
    print(alone, pids())
finally:
    stop.set()
    thread.join()
"""
        result = run_pinned(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["(2,", "2)", "(1,", "1)"]

    @pytest.mark.skipif(not CAN_FORK, reason="needs os.fork, /proc and two cores")
    def test_fork_map_keeps_order_and_the_serial_error(self):
        code = """
import os
from anticipation import cli
parent = os.getpid()
def fn(item):
    if item == "die" and os.getpid() != parent:
        os._exit(7)
    if item.startswith("bad"):
        raise ValueError(item)
    return item.upper()
print(cli._fork_map(fn, list("abcde")))
for items in (["a", "bad1", "bad2"], ["bad0", "bad1"], ["a", "die", "c"]):
    try:
        cli._fork_map(fn, items)
    except Exception as exc:
        print(type(exc).__name__, exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""
        result = run_pinned(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "(['A', 'B', 'C', 'D', 'E'], 2)",
            "ValueError bad1",
            "ValueError bad0",
            "OSError worker process exited with code 7 before returning its results for die",
            "no child left",
        ]

    @pytest.mark.skipif(not CAN_FORK, reason="needs os.fork, /proc and two cores")
    def test_forked_predict_writes_the_serial_summaries(self, trained_run, tmp_path):
        config_path, out = trained_run
        runs = {}
        for mode in ("serial", "forked"):
            runs[mode] = str(tmp_path / mode)
            shutil.copytree(out, runs[mode])
            result = run_pinned(RUN_AND_REAP, mode, "predict", "--config", config_path,
                                "--out", runs[mode])
            assert result.stdout.splitlines()[-1] == "0 no child left", result.stderr
        names = sorted(os.listdir(os.path.join(runs["serial"], "summaries")))
        assert len(names) == 6
        assert sorted(os.listdir(os.path.join(runs["forked"], "summaries"))) == names
        for name in names:
            assert checksum(os.path.join(runs["serial"], "summaries", name)) == \
                checksum(os.path.join(runs["forked"], "summaries", name)), name
        assert read_manifest(runs["serial"])["runs"][-1]["workers"] == 1
        assert read_manifest(runs["forked"])["runs"][-1]["workers"] == 2
        # With every summary present, evaluate draws none and records no workers.
        result = run_pinned(RUN_AND_REAP, "forked", "evaluate", "--config", config_path,
                            "--out", runs["forked"])
        assert result.stdout.splitlines()[-1] == "0 no child left", result.stderr
        assert "workers" not in read_manifest(runs["forked"])["runs"][-1]

    @pytest.mark.skipif(not CAN_FORK, reason="needs os.fork, /proc and two cores")
    @pytest.mark.parametrize("removed, named, written", [
        # Shares are round-robin: proc_0003 and proc_0005 in this process,
        # proc_0004 in the child.
        (["proc_0004"], "proc_0004", ["proc_0003", "proc_0005"]),
        (["proc_0004", "proc_0005"], "proc_0004", ["proc_0003"]),
        (["proc_0003", "proc_0004"], "proc_0003", []),
    ])
    def test_missing_feature_file_in_a_share(self, trained_run, tmp_path, removed, named,
                                             written):
        config_path, out = copy_run(trained_run, tmp_path)
        for seq_id in removed:
            os.remove(os.path.join(out, "dataset", "test", f"{seq_id}.features.csv"))
        result = run_pinned(RUN_AND_REAP, "forked", "predict", "--config", config_path,
                            "--out", out)
        assert result.stdout.splitlines()[-1] == "3 no child left"
        path = os.path.join(out, "dataset", "test", f"{named}.features.csv")
        assert result.stderr.startswith(f"input error: feature file not found: {path}")
        assert "Traceback" not in result.stderr
        # The summaries the other items wrote are listed with the error.
        files = sorted(os.path.join("summaries", f"summary_{seq_id}_h{h}.bin")
                       for seq_id in written for h in (2, 3))
        assert sorted(os.path.join("summaries", name)
                      for name in os.listdir(os.path.join(out, "summaries"))) == files
        entry = read_manifest(out)["runs"][-1]
        if files:
            assert entry["command"] == "predict" and "error" in entry
            assert sorted(entry["artifacts"]) == files
        else:
            assert entry["command"] == "train"


# Runs commands in-process through cli.main, then allocates and frees the
# kind of arrays a training window leaves behind (eight of 48-256 KB) and
# prints the minor page faults that costs per repeat, after a warm-up.
WINDOW_FAULTS = """
import resource, sys
import numpy as np
from anticipation import cli
config_path, out = sys.argv[1:3]
for command in sys.argv[3:]:
    assert cli.main([command, "--config", config_path, "--out", out]) == 0
sizes = [(48 + 208 * i // 7) << 10 for i in range(8)]

def window():
    arrays = [np.ones(size // 8) for size in sizes]
    del arrays

for _ in range(5):
    window()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    window()
print("faults per repeat", (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


class TestMemoryPolicy:
    """The CLI keeps freed heap memory mapped; nothing it writes changes."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt(3) is glibc's")
    @pytest.mark.parametrize("commands", [("simulate",), ("simulate", "train", "predict")])
    def test_freed_window_buffers_are_not_faulted_in_again(self, config_path, tmp_path,
                                                            commands):
        result = subprocess.run(
            [sys.executable, "-c", WINDOW_FAULTS, config_path, str(tmp_path / "run"), *commands],
            capture_output=True, text=True, env=PINNED_ENV, timeout=300)
        assert result.returncode == 0, result.stderr
        assert float(result.stdout.split()[-1]) < 1.0

    def test_both_thresholds_are_set(self, config_path, tmp_path, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        libc = types.SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        run_chain(config_path, str(tmp_path / "run"), commands=("simulate",))
        # M_TRIM_THRESHOLD and M_MMAP_THRESHOLD: setting either one alone
        # would leave large blocks mapped and unmapped afresh.
        assert calls == [(-1, 64 << 20), (-3, 32 << 20)]

    @staticmethod
    def raise_os_error(name):
        raise OSError("no C library")

    @staticmethod
    def raise_type_error(name):
        raise TypeError("expected a path")

    @pytest.mark.parametrize("cdll", [raise_os_error, raise_type_error, lambda name: object()],
                             ids=["OSError", "TypeError", "no mallopt"])
    def test_runs_where_mallopt_is_missing(self, config_path, tmp_path, monkeypatch, cdll):
        commands = ("simulate", "baseline", "train", "evaluate")
        reference = str(tmp_path / "reference")
        run_chain(config_path, reference, commands=commands)
        opened = []

        def cdll_recorded(name):
            opened.append(name)
            return cdll(name)

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll_recorded)
        out = str(tmp_path / "run")
        run_chain(config_path, out, commands=commands)
        assert opened == [None] * len(commands)
        written = [e["artifacts"] for e in read_manifest(out)["runs"]]
        assert written == [e["artifacts"] for e in read_manifest(reference)["runs"]]
        for artifacts_of in written:
            for rel, digest in artifacts_of.items():
                assert checksum(os.path.join(out, rel)) == digest


# Registers its probe before the CLI registers anything; atexit runs its
# handlers last in, first out, so the probe sees the heap after the CLI's one.
EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
from anticipation import cli
sys.exit(cli.main(sys.argv[1:]))
"""


class TestExitPolicy:
    """The CLI freezes the heap at exit, so the interpreter does not collect it on the
    way out; while a command runs nothing is frozen, and what it prints and returns
    reaches its caller."""

    @pytest.mark.parametrize("args, code", [
        (["--help"], 0), (["simulate"], 2), (["simulate", "--config", "missing.json"], 3),
        (["simulate", "--config", "{config}"], 0),
    ], ids=["help", "usage error", "missing config", "simulate"])
    def test_heap_is_frozen_before_the_probe_runs(self, config_path, tmp_path, args, code):
        args = [a.format(config=config_path) for a in args]
        if args[1:]:
            args += ["--out", str(tmp_path / "run")]
        result = subprocess.run([sys.executable, "-c", EXIT_PROBE, *args], capture_output=True,
                                text=True, env=PINNED_ENV, cwd=tmp_path, timeout=120)
        assert result.returncode == code, result.stderr
        assert result.stdout.splitlines()[-1] == "frozen at exit: True"

    def test_nothing_is_frozen_while_the_process_runs(self, config_path, tmp_path):
        before = gc.get_freeze_count(), gc.isenabled()
        run_chain(config_path, str(tmp_path / "run"), commands=("simulate", "baseline"))
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_one_registration_however_often_main_runs(self, config_path, tmp_path,
                                                      monkeypatch):
        handlers, calls = [], []

        def register(func):
            calls.append(func)
            handlers.append(func)

        def unregister(func):
            handlers[:] = [h for h in handlers if h != func]

        monkeypatch.setattr(cli, "atexit", types.SimpleNamespace(register=register,
                                                                 unregister=unregister))
        run_chain(config_path, str(tmp_path / "run"), commands=("simulate", "baseline"))
        assert calls == [gc.freeze, gc.freeze] and handlers == [gc.freeze]

    def test_piped_stdout_and_exit_codes_survive_the_exit(self, config_path, tmp_path):
        out = str(tmp_path / "run")
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        codes = {}
        for name, config in (("good", config_path), ("bad", str(bad)),
                             ("missing", str(tmp_path / "missing.json"))):
            result = subprocess.run(
                [sys.executable, "-m", "anticipation", "simulate", "--config", config,
                 "--out", out], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=PINNED_ENV, timeout=120)
            codes[name] = result.returncode
            if name == "good":
                assert re.fullmatch(rf"simulate: wrote \d+ artifact\(s\) under {re.escape(out)}\n",
                                    result.stdout), result.stdout
            else:
                assert result.stdout == "" and result.stderr.count("\n") == 1, result.stderr
        assert codes == {"good": 0, "bad": 2, "missing": 3}


# The options that once set a config key, each with a value and the commands that took it.
REMOVED_FLAGS = {"--seed": ("99", list(cli.COMMANDS)), "--horizon": ("3", list(cli.COMMANDS)),
                 "--samples": ("7", ["predict", "evaluate"]),
                 "--percentiles": ("50,100", ["analyze"])}


class TestSettingsFromTheConfigFileAlone:
    @pytest.mark.parametrize("command, flag", [(command, flag)
                                               for flag, (_, commands) in REMOVED_FLAGS.items()
                                               for command in commands])
    def test_removed_flag_is_an_unrecognized_argument(self, config_path, tmp_path, capsys,
                                                      command, flag):
        out = tmp_path / "run"
        out.mkdir()
        manifest = out / "manifest.json"
        manifest.write_text('{"runs": []}\n')
        value = REMOVED_FLAGS[flag][0]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", config_path, "--out", str(out), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {flag} {value}" in err
        assert "Traceback" not in err
        assert os.listdir(out) == ["manifest.json"]
        assert manifest.read_text() == '{"runs": []}\n'

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_config_is_checked_once_per_command(self, predicted_run, tmp_path, monkeypatch,
                                                command):
        config_path, out = copy_run(predicted_run, tmp_path)
        hints = []
        check = errors.check

        def counted(value, hint, key=""):
            hints.append(hint)
            return check(value, hint, key)

        monkeypatch.setattr(errors, "check", counted)
        monkeypatch.setattr(cli, "check", counted)
        assert cli.main([command, "--config", config_path, "--out", out, "--overwrite"]) == 0
        assert sum(hint is cli._CONFIG_TYPES for hint in hints) == 1


class TestConfigHandling:
    def test_type_hints_are_evaluated_once_per_class(self, tmp_path, monkeypatch):
        """Walking and building the config reuse each record type's field types."""
        config = tiny_config()
        config["sim"]["trigger_rules"] = [{"trigger": 0, "target": 1, "delay_mean": 5}]
        config["analysis"] = {"trigger": {"trigger": 0, "target": 1}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        evaluated = []
        get_type_hints = typing.get_type_hints
        monkeypatch.setattr(typing, "get_type_hints",
                            lambda cls, **kw: evaluated.append(cls) or get_type_hints(cls, **kw))
        cli._hints.cache_clear()
        for _ in range(2):
            cli.load_config(str(path))
        assert workflow.SimConfig in evaluated and workflow.TriggerRule in evaluated
        assert len(evaluated) == len(set(evaluated))

    def test_defaults_fill_missing_sections(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sim": tiny_config()["sim"]}))
        config = cli.load_config(str(path))
        assert config["train"]["epochs"] == 100
        assert config["train"]["learning_rate"] == 1e-4
        assert config["train"]["window"] == 128
        assert config["train"]["accum_steps"] == 3
        assert config["model"]["dropout"] == 0.2
        assert config["model"]["lambda_cls"] == 1e-2
        assert config["model"]["weight_decay"] == 1e-5
        assert config["eval"].samples == 10
        assert config["eval"].bins == 1000

    def test_nested_unknown_keys_rejected(self, tmp_path):
        levels = [
            ("top level", lambda c: c), ("sim", lambda c: c["sim"]),
            ("split", lambda c: c["split"]), ("model", lambda c: c["model"]),
            ("train", lambda c: c["train"]), ("eval", lambda c: c["eval"]),
            ("analysis", lambda c: c["analysis"]),
            ("sim.phase_plan[1]", lambda c: c["sim"]["phase_plan"][1]),
            ("sim.usage_rules[0]", lambda c: c["sim"]["usage_rules"][0]),
            ("sim.trigger_rules[0]", lambda c: c["sim"]["trigger_rules"][0]),
            ("sim.features", lambda c: c["sim"]["features"]),
            ("analysis.trigger", lambda c: c["analysis"]["trigger"]),
        ]
        # Settings of other feature layouts: the layout is fixed, so none is a key.
        cases = [(where, at, "wings", [[1.0]]) for where, at in levels] + [
            ("sim.features", lambda c: c["sim"]["features"], key, value)
            for key, value in (("dim", 6), ("instrument_gain", 2.0), ("phase_gain", 0.5),
                               ("instrument_signatures", [[1.0]]),
                               ("phase_signatures", [[1.0]]))
        ]
        for where, at, key, value in cases:
            config = tiny_config()
            config["sim"]["trigger_rules"] = [{"trigger": 0, "target": 1, "delay_mean": 5}]
            at(config)[key] = value
            path = tmp_path / "c.json"
            path.write_text(json.dumps(config))
            with pytest.raises(cli.ConfigError, match=rf"in {re.escape(where)}: {key}$"):
                cli.load_config(str(path))

    # A non-default value for every NetworkConfig field the config file sets,
    # with the section it belongs in.
    NON_DEFAULT = {
        "hidden": ("model", 7), "encoder": ("model", [5, 3]), "phase_classes": ("model", 2),
        "dropout": ("model", 0.3), "output_mode": ("model", "scaled_sigmoid"),
        "lambda_cls": ("model", 0.5), "lambda_phase": ("model", 0.25),
        "weight_decay": ("model", 0.0), "learning_rate": ("train", 0.01),
        "window": ("train", 17), "accum_steps": ("train", 4), "epochs": ("train", 9),
    }

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(NetworkConfig)
        if f.name not in ("input_dim", "instruments", "horizon", "seed")
    ])
    def test_section_value_reaches_network_config(self, tmp_path, field):
        section, value = self.NON_DEFAULT[field]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 11, section: {field: value}}))
        config = cli.load_config(str(path))
        net = cli.network_config(config, input_dim=4, instruments=2, horizon=2.5)
        expected = tuple(value) if isinstance(value, list) else value
        assert getattr(net, field) == expected
        assert getattr(NetworkConfig(input_dim=4, instruments=2), field) != expected
        assert (net.input_dim, net.instruments, net.horizon, net.seed) == (4, 2, 2.5, 11)

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_trigger_pair_needs_both_keys(self, tmp_path, capsys, command):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(analysis={"trigger": {"trigger": 0}})))
        out = tmp_path / "run"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: analysis.trigger: missing key(s): target\n"
        assert not out.exists()

    def test_trigger_pair_beyond_the_instruments_writes_nothing(self, predicted_run, tmp_path,
                                                                 capsys):
        config_path, out = copy_run(predicted_run, tmp_path)
        runs = read_manifest(out)["runs"]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_config(analysis={"trigger": {"trigger": 0, "target": 2}})))
        assert cli.main(["analyze", "--config", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: analysis.trigger.target: instrument 2 out of range "
                       "for 2 instruments\n")
        assert not list(Path(out, "reports").glob("analysis_*"))
        assert read_manifest(out)["runs"] == runs

    def test_rule_level_unknown_keys_rejected(self, tmp_path):
        config = tiny_config()
        config["sim"]["usage_rules"][0]["speed"] = 3
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        with pytest.raises(cli.ConfigError, match="speed"):
            cli.load_config(str(path))

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_sim_fields_that_do_not_fit_each_other_exit_2_at_load(self, tmp_path, capsys,
                                                                  command):
        config = tiny_config()
        config["sim"]["phases"] = 3
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "config error: sim: phase_plan has 2 entries for 3 phases\n"
        assert not out.exists()

    def test_manifest_records_the_built_config_and_hashes_it(self, tmp_path):
        """``resolved_config`` holds every default, ``sim``'s too, and floats as floats, so
        spelling an integral float as an integer, or writing a default in, keeps the hash."""
        variant = tiny_config(horizons=[3])
        variant["sim"].update(duration_mean=150.0, fps=1)
        variant["sim"]["usage_rules"][1]["segments"] = 1
        variant["analysis"]["percentiles"] = [50.0, 100]
        entries = []
        for i, config in enumerate((tiny_config(), variant)):
            path, out = tmp_path / f"c{i}.json", str(tmp_path / f"run{i}")
            path.write_text(json.dumps(config))
            assert cli.main(["simulate", "--config", str(path), "--out", out]) == 0
            entries.append(read_manifest(out)["runs"][0])
        resolved = entries[0]["resolved_config"]
        assert entries[1]["resolved_config"] == resolved
        assert entries[0]["config_hash"] == entries[1]["config_hash"] == artifacts.digest(resolved)
        sim = resolved["sim"]
        assert set(sim) == {f.name for f in dataclasses.fields(workflow.SimConfig)}
        assert [rule["segments"] for rule in sim["usage_rules"]] == [1, 1]
        for value in (sim["fps"], sim["duration_mean"], sim["usage_rules"][0]["length_std"],
                      *resolved["horizons"], *resolved["analysis"]["percentiles"]):
            assert type(value) is float


# ---------------------------------------------------------------------------
# Declared ranges: one case per range, generated from the field types
# ---------------------------------------------------------------------------

# Values tried against each declared range, by the type it narrows; those the
# range refuses make the case.  A tuple or record range gets its own candidate.
CANDIDATES = {int: [-1, 0], float: [-1.0, 0.0, 1.0, 150.0, math.inf, math.nan], str: ["bogus"],
              tuple: [[]]}


def range_cases(hint, key=""):
    """``(dotted key, out-of-range values)`` of every range declared in type ``hint``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        yield from range_cases(args[0], key)
        base = typing.get_origin(args[0]) or args[0]
        candidates = CANDIDATES.get(base) or [dict.fromkeys(base.__required_keys__, 0)]
        yield key, [v for v in candidates if not args[2](v)]
    elif origin is typing.Union:  # Optional[X], or a choice of scalars
        yield from range_cases(args[0], key)
    elif origin is tuple:
        yield from range_cases(args[0], f"{key}[0]")
    elif isinstance(hint, dict) or dataclasses.is_dataclass(hint) or typing.is_typeddict(hint):
        fields = hint if isinstance(hint, dict) else typing.get_type_hints(hint, include_extras=True)
        for name, field_hint in fields.items():
            yield from range_cases(field_hint, f"{key}.{name}" if key else name)


def set_key(config: dict, key: str, value) -> None:
    """Set the value at a dotted key such as ``sim.usage_rules[0].probability``."""
    *parents, last = [int(p) if p.isdigit() else p for p in re.findall(r"[^.\[\]]+", key)]
    for part in parents:
        config = config[part]
    config[last] = value


def full_config():
    """``tiny_config`` with a value at every key that has a declared range."""
    config = tiny_config()
    config["sim"]["trigger_rules"] = [{"trigger": 0, "target": 1, "delay_mean": 5}]
    return config


CONSTRUCTED = {  # dataclass -> valid fields as JSON: how a Python caller could build it
    NetworkConfig: {"input_dim": 4, "instruments": 2, "encoder": [8]},
    workflow.SimConfig: full_config()["sim"],  # its nested specs are checked when it is built
}


@pytest.mark.parametrize("key, values", [pytest.param(key, values, id=key)
                                         for key, values in range_cases(cli._CONFIG_TYPES)])
def test_out_of_range_config_value_exits_2_at_load(tmp_path, capsys, key, values):
    """Each range declared on a dataclass field or in ``cli._CONFIG_TYPES`` is checked at
    load: no command gets to write anything."""
    assert values, f"no candidate value is out of the range of {key}"
    for value in values:
        config = full_config()
        set_key(config, key, value)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        for command in ("simulate", "train"):
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {key}: expected "), (value, err)
            assert "Traceback" not in err
            assert not out.exists()


@pytest.mark.parametrize("cls, key, values", [
    pytest.param(cls, key, values, id=f"{cls.__name__}-{key}")
    for cls in CONSTRUCTED for key, values in range_cases(cls)
])
def test_out_of_range_field_is_a_value_error_naming_it(cls, key, values):
    assert values, f"no candidate value is out of the range of {key}"
    for value in values:
        fields = json.loads(json.dumps(CONSTRUCTED[cls]))
        set_key(fields, key, value)
        with pytest.raises(ValueError, match=rf"^{re.escape(key)}: expected "):
            cls(**fields)


# Where ``full_config`` holds a record of each dataclass of the 'sim' section.
SIM_RECORDS = {workflow.SimConfig: "sim", workflow.PhaseSpec: "sim.phase_plan[0]",
               workflow.UsageRule: "sim.usage_rules[0]",
               workflow.TriggerRule: "sim.trigger_rules[0]"}


@pytest.mark.parametrize("key, name", [
    pytest.param(key, f.name, id=f"{key}.{f.name}")
    for cls, key in SIM_RECORDS.items() for f in dataclasses.fields(cls)
    if f.default is f.default_factory is dataclasses.MISSING
])
def test_missing_required_key_names_its_dotted_path(tmp_path, capsys, key, name):
    config = full_config()
    record = config
    for part in re.findall(r"[^.\[\]]+", key):
        record = record[int(part) if part.isdigit() else part]
    del record[name]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {key}: missing key(s): {name}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize("instruments", [["probe", "probe", 1], [1, 1], []])
def test_instrument_list_with_repeats_or_none_exits_2_at_load(tmp_path, capsys, command,
                                                              instruments):
    config = tiny_config()
    config["eval"]["instruments"] = instruments
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: eval.instruments: expected one or more distinct instrument names or "
        f"indices, got {json.dumps(instruments)}\n")
    assert not out.exists()


@pytest.mark.parametrize("instruments", [["probe", 0], [1, "lifter"]])
def test_instrument_named_and_indexed_stops_evaluate_before_it_draws(predicted_run, tmp_path,
                                                                     capsys, instruments):
    config_path, out = copy_run(predicted_run, tmp_path)
    shutil.rmtree(os.path.join(out, "summaries"))  # else evaluate would only read them
    manifest = read_manifest(out)
    config = tiny_config()
    config["eval"]["instruments"] = instruments
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert cli.main(["evaluate", "--config", str(path), "--out", out]) == 2
    name = "probe" if 0 in instruments else "lifter"
    assert capsys.readouterr().err == \
        f"config error: eval.instruments names instrument {name!r} twice\n"
    assert sorted(os.listdir(out)) == ["checkpoints", "dataset", "manifest.json", "reports"]
    assert not list(Path(out, "reports").glob("metrics_*"))
    assert read_manifest(out) == manifest


# ---------------------------------------------------------------------------
# The error contract of the two JSON files every command reads first
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Node:
    path: tuple
    value: object
    nullable: bool  # its declared type takes null
    required: bool  # its record has no default for it
    shape: object  # its declared type without range or Optional (None: undeclared)


def nodes(value, hint=None, path=(), required=False):
    """Every node of a JSON document of declared type ``hint`` (None: undeclared), root first."""
    nullable = False
    while True:  # strip ranges and Optional down to the type that shapes the value
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if origin is typing.Annotated:
            hint = args[0]
        elif origin is typing.Union and type(None) in args:
            nullable, hint = True, args[0]
        else:
            break
    yield Node(path, value, nullable, required, hint)
    if isinstance(value, dict):
        fields = ({} if hint is None else hint if isinstance(hint, dict)
                  else typing.get_type_hints(hint, include_extras=True))
        for key, item in value.items():
            yield from nodes(item, fields.get(key), path + (key,), key in errors._required(hint))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from nodes(item, args[0] if args else None, path + (i,))


def json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def dotted(path: tuple) -> str:
    """The key of a node as error messages name it, e.g. ``sim.usage_rules[0].probability``."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")


# An integer no float can hold: float() of it raises an OverflowError.
OVERSIZED = "1" + "0" * 400


def oversized_message(node: Node) -> str:
    return f"{dotted(node.path)}: expected a number, got an integer too large for a float"


MANIFEST = {"runs": [{"command": "simulate", "seed": 5, "config_hash": "0" * 16,
                      "resolved_config": tiny_config(), "artifacts": {}}]}
FILES = {  # a valid document, its nodes, and the damages that make it invalid
    "config": (tiny_config(), list(nodes(tiny_config(), cli._CONFIG_TYPES)),
               ("drop", "add", "retype", "non-finite", "oversized", "truncate", "non-utf8",
                "nest")),
    # A command asks only for an object with a 'runs' list of a manifest.
    "manifest": (MANIFEST, [dataclasses.replace(n, required=n.path == ("runs",))
                            for n in nodes(MANIFEST)],
                 ("drop", "retype", "truncate", "non-utf8", "nest")),
}
SENTINEL = "__damage__"


def damaged(data, name: str) -> tuple[bytes, str]:
    """The file ``name`` as JSON bytes with one damage drawn from ``data``, and the text
    its error line must hold ("" if only its exit code and prefix are pinned)."""
    doc, doc_nodes, kinds = FILES[name]
    kind = data.draw(st.sampled_from(kinds), label="damage")
    text = json.dumps(doc)
    if kind == "truncate":  # no proper prefix of a JSON object is JSON
        return text[:data.draw(st.integers(0, len(text) - 1), label="cut at")].encode(), ""
    if kind == "non-utf8":  # the text is ASCII, so a lone high byte is not UTF-8
        at = data.draw(st.integers(0, len(text)), label="insert at")
        return (text[:at].encode() + bytes([data.draw(st.integers(0x80, 0xFF))])
                + text[at:].encode(), "")
    candidates = {
        "drop": [n for n in doc_nodes if n.required],
        "add": [n for n in doc_nodes if isinstance(n.value, dict)],
        "retype": [n for n in doc_nodes if name == "config" or n.path in ((), ("runs",))],
        "non-finite": [n for n in doc_nodes if json_type(n.value) == "number"],
        "oversized": [n for n in doc_nodes if json_type(n.value) == "number" and n.shape is float],
        "nest": doc_nodes,
    }[kind]
    node = data.draw(st.sampled_from(candidates), label="node")
    box = [copy.deepcopy(doc)]
    *parents, last = (0,) + node.path
    parent = box
    for part in parents:
        parent = parent[part]
    token = None
    if kind == "drop":
        del parent[last]
    elif kind == "add":
        parent[last]["mystery"] = 1
    elif kind == "retype":  # to a JSON type its declared type refuses
        taken = {json_type(node.value)} | ({"number"} if node.shape is float else set())
        parent[last] = data.draw(st.sampled_from(
            [v for v in (None, True, 1.5, "x", [], {})
             if json_type(v) not in taken and not (v is None and node.nullable)]),
            label="as")
    else:
        parent[last] = SENTINEL
        if kind == "nest":
            token = "[" * 100_000 + "]" * 100_000
        elif kind == "oversized":
            token = OVERSIZED
        else:
            token = data.draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999"]))
    text = json.dumps(box[0])
    return ((text.replace(json.dumps(SENTINEL), token) if token else text).encode(),
            oversized_message(node) if kind == "oversized" else "")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_config_or_manifest_exits_with_its_code_and_writes_nothing(data):
    """A damaged config exits 2 and a damaged manifest 3, on every command: one line on
    stderr, no traceback, no manifest entry, and the manifest keeps its bytes.  Every
    case fails at load, so no dataset is needed."""
    name = data.draw(st.sampled_from(sorted(FILES)), label="file")
    command = data.draw(st.sampled_from(list(cli.COMMANDS)), label="command")
    files = {other: json.dumps(doc).encode() for other, (doc, _, _) in FILES.items()}
    files[name], said = damaged(data, name)
    with tempfile.TemporaryDirectory() as tmp:
        config_path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "run")
        os.mkdir(out)
        Path(config_path).write_bytes(files["config"])
        Path(out, "manifest.json").write_bytes(files["manifest"])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", config_path, "--out", out])
        err = err.getvalue()
        expected = (2, "config error: ") if name == "config" else (3, "input error: ")
        assert (code, err[:len(expected[1])]) == expected, err
        assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
        assert said in err
        assert os.listdir(out) == ["manifest.json"]
        assert Path(out, "manifest.json").read_bytes() == files["manifest"]


@pytest.mark.parametrize("node", [n for n in nodes(full_config(), cli._CONFIG_TYPES)
                                  if json_type(n.value) == "number" and n.shape is float],
                         ids=lambda n: dotted(n.path))
def test_integer_too_large_for_a_float_field_exits_2_at_load(tmp_path, capsys, node):
    """Every float field of the config, on every command: one line naming the key, and
    no run directory."""
    config = full_config()
    set_key(config, dotted(node.path), SENTINEL)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config).replace(json.dumps(SENTINEL), OVERSIZED))
    out = tmp_path / "run"
    for command in cli.COMMANDS:
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {oversized_message(node)}\n"
        assert not out.exists()


@pytest.mark.parametrize("node", [n for n in nodes(full_config(), cli._CONFIG_TYPES)
                                  if json_type(n.value) == "number" and n.shape is int],
                         ids=lambda n: dotted(n.path))
def test_integer_too_large_for_an_integer_field_exits_2_at_load(tmp_path, capsys, node):
    """Every integer field of the config, on every command, takes only what int64 can
    hold: one line naming the key, and no run directory."""
    config = full_config()
    set_key(config, dotted(node.path), SENTINEL)
    path = tmp_path / "c.json"
    out = tmp_path / "run"
    for value in (2 ** 63, -2 ** 63 - 1, OVERSIZED):
        path.write_text(json.dumps(config).replace(json.dumps(SENTINEL), str(value)))
        for command in cli.COMMANDS:
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (f"config error: {dotted(node.path)}: expected an "
                                               "integer, got an integer too large for int64\n")
            assert not out.exists()


@pytest.mark.parametrize("command", ["train", "baseline"])
def test_phase_index_beyond_int64_exits_3_naming_the_line(config_path, tmp_path, capsys,
                                                          command):
    out = str(tmp_path / "run")
    run_chain(config_path, out, commands=("simulate",))
    path = os.path.join(out, "dataset", "train", "proc_0000.csv")
    lines = Path(path).read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + "," + "9" * 30
    Path(path).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main([command, "--config", config_path, "--out", out]) == 3
    assert capsys.readouterr().err == (f"input error: {path}: line 3: phase index {'9' * 30} "
                                       "is too large for int64\n")


# ---------------------------------------------------------------------------
# The error contract of the derived files: checkpoints, summaries, manifests, baselines
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def derived_run(predicted_run, tmp_path_factory):
    """The predicted tiny run with a mean baseline file beside its checkpoint and summaries."""
    config_path, out = predicted_run
    copy = str(tmp_path_factory.mktemp("derived") / "run")
    shutil.copytree(out, copy)
    assert cli.main(["baseline", "--config", config_path, "--out", copy]) == 0
    return config_path, copy


DERIVED = {  # what a damaged file is, and a file of another format that may replace it
    "checkpoint": ("checkpoints/model_h3.bin", "summaries/summary_proc_0003_h3.bin"),
    "summary": ("summaries/summary_proc_0003_h3.bin", "checkpoints/model_h3.bin"),
    "manifest": ("manifest.json", "checkpoints/model_h3.bin"),
    "baseline": ("baselines/baseline_mean_h3.bin", "summaries/summary_proc_0004_h3.bin"),
}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_derived_file_exits_0_or_3_or_is_a_value_error_naming_it(derived_run, data):
    """One derived file of a predicted run is truncated, has a byte of its header line
    flipped, is deleted or is replaced by a file of another container format.  A command
    that may read it exits 0 or 3 with at most one line on stderr and no traceback; a
    baseline file, which no command reads, loads as a model or raises a ValueError
    naming it."""
    config_path, source = derived_run
    name = data.draw(st.sampled_from(sorted(DERIVED)), label="file")
    kind = data.draw(st.sampled_from(["truncate", "flip", "delete", "foreign"]), label="damage")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        shutil.copytree(source, out)
        rel, foreign = DERIVED[name]
        path = os.path.join(out, rel)
        raw = Path(path).read_bytes()
        if kind == "truncate":
            Path(path).write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="cut at")])
        elif kind == "flip":
            at = data.draw(st.integers(0, raw.index(b"\n")), label="flip at")
            flipped = raw[at] ^ data.draw(st.integers(1, 255), label="xor")
            Path(path).write_bytes(raw[:at] + bytes([flipped]) + raw[at + 1:])
        elif kind == "delete":
            os.remove(path)
        else:
            shutil.copyfile(os.path.join(out, foreign), path)
        if name == "baseline":
            try:
                model = artifacts.load_baseline(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: ") and not isinstance(exc, errors.ConfigError)
            else:
                assert model.hist.shape == (2, 20) and model.mode in ("mean", "oracle")
            return
        command = data.draw(st.sampled_from([["predict", "--overwrite"], ["evaluate"],
                                             ["analyze"]]), label="command")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*command, "--config", config_path, "--out", out])
        err = err.getvalue()
        assert code in (0, 3), err
        assert err.count("\n") <= 1 and "Traceback" not in err
        assert code == 0 or err.startswith("input error: ") and err.endswith("\n")


# ---------------------------------------------------------------------------
# The error contract of the dataset files: annotations and features
# ---------------------------------------------------------------------------

# What may be put in one cell: bytes that are not UTF-8, non-finite and
# oversized numbers, nothing, and numbers that are negative or fractional.
BAD_CELLS = [b"\xff\xfe", b"NaN", b"inf", b"-inf", b"1e400", b"", b"-1", b"-0.5", b"0.5", b"2.5"]
READERS = [["baseline"], ["train", "--overwrite"], ["predict", "--overwrite"], ["evaluate"],
           ["analyze"]]


def damaged_dataset_file(data, raw):
    """``raw`` with one damage drawn from ``data``, or None for a deleted file."""
    kind = data.draw(st.sampled_from(["drop column", "add column", "swap columns", "truncate",
                                      "flip", "delete", "cell"]), label="damage")
    if kind == "delete":
        return None
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="cut at")]
    if kind == "flip":
        at = data.draw(st.integers(0, len(raw) - 1), label="flip at")
        flipped = raw[at] ^ data.draw(st.integers(1, 255), label="xor")
        return raw[:at] + bytes([flipped]) + raw[at + 1:]
    rows = [line.split(b",") for line in raw.splitlines()]
    j = data.draw(st.integers(0, len(rows[0]) - 1), label="column")
    if kind == "drop column":
        for row in rows:
            del row[j]
    elif kind == "add column":
        for row in rows:
            row.insert(j, b"0")
    elif kind == "swap columns":
        k = data.draw(st.integers(0, len(rows[0]) - 1).filter(lambda k: k != j), label="with")
        for row in rows:
            row[j], row[k] = row[k], row[j]
    else:
        i = data.draw(st.integers(0, len(rows) - 1), label="row")
        rows[i][j] = data.draw(st.sampled_from(BAD_CELLS), label="cell")
    return b"".join(b",".join(row) + b"\n" for row in rows)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_dataset_file_exits_with_a_documented_code(predicted_run, data):
    """One annotation or feature file of a predicted run loses, gains or swaps a column,
    is truncated, has a byte flipped, is deleted or has one cell replaced.  Every command
    that reads the dataset exits with a documented code, writes one line on stderr
    exactly when it fails, and raises nothing."""
    config_path, source = predicted_run
    files = sorted(os.path.relpath(p, source)
                   for p in glob.glob(os.path.join(source, "dataset", "*", "*.csv")))
    rel = data.draw(st.sampled_from(files), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        shutil.copytree(source, out)
        path = os.path.join(out, rel)
        damaged = damaged_dataset_file(data, Path(path).read_bytes())
        if damaged is None:
            os.remove(path)
        else:
            Path(path).write_bytes(damaged)
        for command in READERS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*command, "--config", config_path, "--out", out])
            err = err.getvalue()
            assert code in (0, 2, 3, 4, 5), err
            assert err.count("\n") <= 1 and "Traceback" not in err, err
            assert (code == 0) == (err == ""), err
