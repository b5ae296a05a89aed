import json
import subprocess
import sys

import numpy as np
import pytest

from gnss_qsvm.cli import ExperimentConfig, fit_pipeline, main, run_experiment
from gnss_qsvm.data import load_csv
from gnss_qsvm.svm import load_model, save_model


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSynth:
    def test_writes_loadable_csv_with_preset_counts(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert run_cli("synth", "--preset", "T1_SHAPE", "--seed", 3, "--out", out) == 0
        ds = load_csv(out)
        assert ds.class_counts() == {"LOS": 23, "NLOS": 10, "LOS_NLOS": 8}

    def test_unknown_preset_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("synth", "--preset", "T9", "--out", tmp_path / "x.csv")


class TestTrainPredictEval:
    def test_full_flow_on_files(self, tmp_path):
        train_csv = tmp_path / "train.csv"
        test_csv = tmp_path / "test.csv"
        run_cli("synth", "--preset", "T1_SHAPE", "--seed", 1, "--out", train_csv)
        run_cli("synth", "--preset", "T1_SHAPE", "--seed", 2, "--out", test_csv)

        model_path = tmp_path / "model.json"
        assert run_cli(
            "train", "--train", train_csv, "--model", "svm", "--out", model_path
        ) == 0
        model, scaler = load_model(model_path)
        assert scaler is not None
        assert len(model.binary_models) == 3

        preds_csv = tmp_path / "preds.csv"
        assert run_cli(
            "predict", "--model-path", model_path, "--data", test_csv, "--out", preds_csv
        ) == 0
        preds = load_csv(preds_csv)  # re-parses under the dataset schema
        assert len(preds) == 41

        report_path = tmp_path / "report.json"
        assert run_cli(
            "eval", "--model-path", model_path, "--data", test_csv, "--out", report_path
        ) == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert sum(map(sum, report["confusion"])) == 41

    def test_boundary_grid_export(self, tmp_path):
        model_path = tmp_path / "model.json"
        run_cli("train", "--train", "T1_SHAPE", "--seed", 1, "--model", "svm",
                "--out", model_path)
        grid_path = tmp_path / "grid.csv"
        assert run_cli("boundary", "--model-path", model_path, "--resolution", 10,
                       "--out", grid_path) == 0
        lines = grid_path.read_text().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == 101

    def test_boundary_rejects_raw_model(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run_cli("train", "--train", "T1_SHAPE", "--model", "svm", "--raw",
                "--out", model_path)
        assert run_cli("boundary", "--model-path", model_path,
                       "--out", tmp_path / "g.csv") == 1
        assert "raw" in capsys.readouterr().err

    def test_sampled_kernel_round_trip(self, tmp_path):
        model_path = tmp_path / "model.json"
        assert run_cli(
            "train", "--train", "T1_SHAPE", "--seed", 4, "--model", "qsvm",
            "--kernel", "sampled", "--shots", 32, "--out", model_path
        ) == 0
        model, _ = load_model(model_path)
        assert model.kernel_config.mode == "fidelity_sampled"
        assert model.kernel_config.shots == 32


class TestExperiment:
    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["experiment", "--train", "T1_SHAPE", "--test", "T1_SHAPE",
                "--seed", 5, "--model", "svm", "--grid-resolution", 8,
                "--outdir", tmp_path]
        assert run_cli(*args) == 0
        first = {
            name: (tmp_path / name).read_bytes()
            for name in ("report.json", "grid.csv", "confusion.csv", "model.json")
        }
        assert run_cli(*args) == 0
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob, name

    def test_missing_test_file_exits_nonzero_without_outputs(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = run_cli("experiment", "--train", "T1_SHAPE",
                       "--test", tmp_path / "missing.csv", "--model", "svm",
                       "--outdir", outdir)
        assert code == 1
        assert "missing.csv" in capsys.readouterr().err
        assert not outdir.exists()

    def test_scaler_refit_per_invocation(self, tmp_path):
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        run_cli("experiment", "--train", "T1_SHAPE", "--test", "T2_SHAPE",
                "--seed", 1, "--model", "svm", "--outdir", out1)
        run_cli("experiment", "--train", "T1_SHAPE", "T2_SHAPE", "--test", "T1_SHAPE",
                "--seed", 1, "--model", "svm", "--outdir", out2)
        _, scaler1 = load_model(out1 / "model.json")
        _, scaler2 = load_model(out2 / "model.json")
        assert not np.array_equal(scaler1.data_min, scaler2.data_min)
        # rerunning the first phase afterwards reproduces it exactly
        blob = (out1 / "report.json").read_bytes()
        run_cli("experiment", "--train", "T1_SHAPE", "--test", "T2_SHAPE",
                "--seed", 1, "--model", "svm", "--outdir", out1)
        assert (out1 / "report.json").read_bytes() == blob

    def test_report_echoes_config(self, tmp_path):
        run_cli("experiment", "--train", "T1_SHAPE", "--test", "T1_SHAPE",
                "--seed", 6, "--model", "qsvm", "--kernel", "sampled",
                "--shots", 16, "--outdir", tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["model"] == "qsvm"
        assert report["config"]["kernel"] == "sampled"
        assert report["config"]["shots"] == 16
        assert report["config"]["seed"] == 6
        assert report["convergence_warnings"] == []

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GNSS_QSVM_OUTPUT_DIR", str(tmp_path / "envout"))
        run_cli("experiment", "--train", "T1_SHAPE", "--test", "T1_SHAPE",
                "--seed", 2, "--model", "svm")
        assert (tmp_path / "envout" / "report.json").exists()

    def test_raw_with_grid_rejected(self, tmp_path, capsys):
        code = run_cli("experiment", "--train", "T1_SHAPE", "--test", "T1_SHAPE",
                       "--model", "svm", "--raw", "--grid-resolution", 4,
                       "--outdir", tmp_path)
        assert code == 1
        assert "raw" in capsys.readouterr().err

    @pytest.mark.parametrize("option, field", [("--tolerance", "kkt_tolerance"), ("--C", "C")])
    def test_infinite_solver_setting_rejected(self, tmp_path, capsys, option, field):
        outdir = tmp_path / "out"
        code = run_cli("experiment", "--train", "T1_SHAPE", "--test", "T1_SHAPE",
                       "--model", "svm", option, "inf", "--outdir", outdir)
        assert code == 1
        assert f"{field} must be positive and finite" in capsys.readouterr().err
        assert not outdir.exists()

    def test_infinite_gamma_rejected(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        code = run_cli("experiment", "--train", "T1_SHAPE", "--test", "T1_SHAPE",
                       "--model", "svm", "--gamma", "inf", "--outdir", outdir)
        assert code == 1
        assert "gamma must be positive and finite" in capsys.readouterr().err
        assert not outdir.exists()


class TestRunExperimentApi:
    def test_returns_report_and_artifacts(self, tmp_path):
        config = ExperimentConfig(
            train_sources=["T1_SHAPE"], test_source="T1_SHAPE",
            model="svm", seed=0, outdir=str(tmp_path),
        )
        report, artifacts = run_experiment(config)
        assert report.n_total == 41
        for path in artifacts.values():
            assert path.exists()

    def test_no_training_source_rejected(self, tmp_path):
        config = ExperimentConfig(
            train_sources=[], test_source="T1_SHAPE", outdir=str(tmp_path)
        )
        with pytest.raises(ValueError):
            run_experiment(config)

    @pytest.mark.parametrize("field,value", [("model", "SVM"), ("kernel", "exakt")])
    def test_unknown_model_or_kernel_rejected(self, tmp_path, field, value):
        config = ExperimentConfig(
            train_sources=["T1_SHAPE"], test_source="T1_SHAPE",
            outdir=str(tmp_path / "out"), **{field: value},
        )
        with pytest.raises(ValueError, match=field):
            run_experiment(config)
        with pytest.raises(ValueError, match=field):
            fit_pipeline(config)
        assert not (tmp_path / "out").exists()

    def test_fit_pipeline_matches_train_command(self, tmp_path):
        model_path = tmp_path / "model.json"
        run_cli("train", "--train", "T1_SHAPE", "--seed", 3, "--model", "svm",
                "--out", model_path)
        config = ExperimentConfig(train_sources=["T1_SHAPE"], test_source="",
                                  model="svm", seed=3)
        model, scaler = fit_pipeline(config)
        save_model(model, tmp_path / "direct.json", scaler)
        assert (tmp_path / "direct.json").read_bytes() == model_path.read_bytes()


def test_module_entry_point(tmp_path):
    out = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "gnss_qsvm.cli", "synth", "--preset", "T1_SHAPE",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
