import hashlib
import json
import subprocess
import sys
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from gnss_qsvm.cli import ExperimentConfig, build_parser, fit_pipeline, main, run_experiment
from gnss_qsvm.data import apply_scaler, fit_scaler, generate_synthetic, load_csv
from gnss_qsvm.kernels import FIDELITY_EXACT, KernelConfig, gram_symmetric
from gnss_qsvm.svm import load_model, save_model


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestSynth:
    def test_writes_loadable_csv_with_preset_counts(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert run_cli("synth", "--preset", "T1_SHAPE", "--seed", 3, "--out", out) == 0
        ds = load_csv(out)
        assert Counter(ds.labels()) == {"LOS": 23, "NLOS": 10, "LOS_NLOS": 8}

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


# sha256 of every file each command writes, recorded before the CLI's
# defaults were left to ExperimentConfig alone and before the model's kernel
# section was written with dataclasses.asdict. A refactor must not move a
# byte of them. The train command writes model.json; the others an outdir.
ARTIFACT_DIGESTS = {
    "exact T0+T1 -> T2, grid 20": (
        ("experiment", "--train", "T0_SHAPE", "T1_SHAPE", "--test", "T2_SHAPE",
         "--grid-resolution", 20),
        {"confusion.csv": "a37f529ec7b0342d7066a98c3ae6ffe6749371cfb7d634b49c618fda5e19093f",
         "grid.csv": "913f13176742d356cbb8cff82fd0e7640c9c6a8284acca18ef38d55beca2b29c",
         "model.json": "252738d0a2b9c6bbcb0d204ff582cea7b9a09de0b742360928a459ff8a994720",
         "report.json": "6a216ffbb49181a0fa29c046f7e1b8b6d97d4348f057b6317c5d395003e44f61"}),
    "sampled T0 -> T1, 200 shots, seed 5": (
        ("experiment", "--train", "T0_SHAPE", "--test", "T1_SHAPE", "--kernel", "sampled",
         "--shots", 200, "--seed", 5),
        {"confusion.csv": "9a25fc42183423528213846f63e1fd2c3f9eb4455992095cf33c372a8f526948",
         "model.json": "f9f283833f491a0eb4881b8b19405431bf80c58b924ea03c14c3b031d6f427ac",
         "report.json": "6fec3e79409bb91f3e9314dea1a8f52d10187f1c86a3b4f20a3bb78f9c543d6a"}),
    "rbf T0+T1 -> T2, grid 10": (
        ("experiment", "--train", "T0_SHAPE", "T1_SHAPE", "--test", "T2_SHAPE",
         "--model", "svm", "--grid-resolution", 10),
        {"confusion.csv": "46416e791b285f46de6ca1f2591a241983013022a0292b587d2b8ee25cd585ba",
         "grid.csv": "3a5ab4b421e2e7fb4c295251c452a88aed825a0d4054c01ed0b7feb90b1acc37",
         "model.json": "21db13028668f7258b3094e5c9a35ce9769014b22adfc05337857b89eee65f41",
         "report.json": "35b390b936f5b625844a07ffc070f4c52699a96ccd9acdfd3f1d862c60102882"}),
    "raw T0 -> T1": (
        ("experiment", "--train", "T0_SHAPE", "--test", "T1_SHAPE", "--raw"),
        {"confusion.csv": "ee0a054a84ba3ee9ef716ea5b93b3d9a0fd55ee7a4ef8fd9162ad830511375f8",
         "model.json": "8c7cd9f1e865744c3b617b46dafe617bc4343f56b9d7ab9fa51d6d4f2627631f",
         "report.json": "af99d783ae825b820c8db67a56e2ef0220a9fe2df69ce75fe68fced1ff129bda"}),
    "T0 -> T1, non-default options": (
        ("experiment", "--train", "T0_SHAPE", "--test", "T1_SHAPE", "--reps", 1, "--C", 0.5,
         "--tolerance", "1e-2", "--scale-hi", "6.283185307179586"),
        {"confusion.csv": "ee0a054a84ba3ee9ef716ea5b93b3d9a0fd55ee7a4ef8fd9162ad830511375f8",
         "model.json": "beac8bf570f8d0262ad66a810aa5e17ea4522659ed3a92d935417106237b035f",
         "report.json": "78365eb6225bec9cfb7453f9c9583ddbab676d7981664542c547feef8944defa"}),
    "train sampled, 100 shots": (
        ("train", "--train", "T0_SHAPE", "--kernel", "sampled", "--shots", 100),
        {"model.json": "ac274a4c81761491d9c63016d6f2f722a253a1bef6fe3f125b1a5963fa9bc6bf"}),
}

# sha256 of the exact-kernel Gram of scaled T0 at data seed 0 on the platform
# the digests above were recorded on; another platform's exp/cos may move an
# overlap by an ulp, and then every artifact moves with it.
EXACT_T0_GRAM = "67bd6b245ff4570cb927936ba9e23b60e042aff2dde9e0e3e0ddd60e00abf002"


@pytest.fixture(scope="module")
def recorded_platform():
    t0 = generate_synthetic("T0_SHAPE", seed=0)
    gram = gram_symmetric(apply_scaler(fit_scaler(t0), t0), KernelConfig(FIDELITY_EXACT))
    if hashlib.sha256(gram.values.tobytes()).hexdigest() != EXACT_T0_GRAM:
        pytest.skip("exact Gram bytes differ from those the digests were recorded on")


@pytest.mark.parametrize("run", list(ARTIFACT_DIGESTS))
def test_artifacts_match_recorded_digests(tmp_path, recorded_platform, run):
    argv, digests = ARTIFACT_DIGESTS[run]
    out = ("--out", tmp_path / "model.json") if argv[0] == "train" else ("--outdir", tmp_path)
    assert run_cli(*argv, *out) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == digests


class TestDefaults:
    """ExperimentConfig is the one home of the pipeline's defaults."""

    def test_every_config_field_is_an_experiment_option(self):
        command = next(a for a in build_parser()._actions if a.dest == "command")
        dests = {a.dest for a in command.choices["experiment"]._actions}
        missing = {f.name for f in fields(ExperimentConfig)} - dests
        assert not missing

    def test_experiment_without_model_options_echoes_config_defaults(self, tmp_path):
        assert run_cli("experiment", "--train", "T1_SHAPE", "--test", "T1_SHAPE",
                       "--outdir", tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"] == ExperimentConfig(["T1_SHAPE"], "T1_SHAPE").echo()

    def test_train_without_model_options_uses_config_defaults(self, tmp_path):
        model_path = tmp_path / "model.json"
        assert run_cli("train", "--train", "T1_SHAPE", "--out", model_path) == 0
        model, scaler = fit_pipeline(ExperimentConfig(["T1_SHAPE"], ""))
        save_model(model, tmp_path / "direct.json", scaler)
        assert (tmp_path / "direct.json").read_bytes() == model_path.read_bytes()


def _must_not_train(config):
    raise AssertionError("training started")


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

    def test_non_integer_seed_rejected(self, tmp_path):
        config = ExperimentConfig(train_sources=["T1_SHAPE"], test_source="T1_SHAPE",
                                  model="svm", seed=2.5, outdir=str(tmp_path / "out"))
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_experiment(config)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("resolution", [2.5, 0, True])
    def test_bad_grid_resolution_rejected_before_training(self, tmp_path, monkeypatch,
                                                          resolution):
        monkeypatch.setattr("gnss_qsvm.cli.fit_pipeline", _must_not_train)
        config = ExperimentConfig(train_sources=["T1_SHAPE"], test_source="T1_SHAPE",
                                  grid_resolution=resolution, outdir=str(tmp_path / "out"))
        with pytest.raises(ValueError, match="grid_resolution must be an integer"):
            run_experiment(config)
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
