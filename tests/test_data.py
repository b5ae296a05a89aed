import math
import os
import stat
from collections import Counter

import numpy as np
import pytest

from gnss_qsvm.data import (
    Dataset,
    LABELS,
    PRESETS,
    ScalerParams,
    SignalSample,
    _open_artifact,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
    load_csv,
    write_csv,
)
from gnss_qsvm.errors import CsvParseError, DegenerateDataError, DimensionError
from gnss_qsvm.evaluate import boundary_grid, make_report, save_confusion_csv, save_grid_csv
from gnss_qsvm.kernels import RBF, KernelConfig
from gnss_qsvm.svm import SvmConfig, save_model, train_ovo


def make_dataset(rows):
    return Dataset([SignalSample(*row) for row in rows])


class TestSignalSample:
    def test_elevation_range_enforced(self):
        with pytest.raises(ValueError):
            SignalSample(1.0, 95.0, "LOS")
        with pytest.raises(ValueError):
            SignalSample(1.0, -0.1, "LOS")

    def test_cn0_must_be_finite(self):
        with pytest.raises(ValueError):
            SignalSample(math.nan, 45.0, "LOS")

    def test_label_must_be_known(self):
        with pytest.raises(ValueError):
            SignalSample(1.0, 45.0, "FOO")


class TestLoadCsv:
    def test_loads_valid_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "cn0_diff,elevation_deg,label\n"
            "8.5,62.0,LOS\n"
            "-2.25,20.0,NLOS\n"
            "1.0,35.5,LOS_NLOS\n"
        )
        ds = load_csv(path)
        assert len(ds) == 3
        assert ds.labels() == ["LOS", "NLOS", "LOS_NLOS"]
        assert ds.samples[0].cn0_diff == 8.5

    def test_unknown_label_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cn0_diff,elevation_deg,label\n1.0,10.0,LOS\n2.0,20.0,FOO\n")
        with pytest.raises(CsvParseError, match=r":3:.*FOO"):
            load_csv(path)

    def test_out_of_range_elevation_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cn0_diff,elevation_deg,label\n1.0,95.0,LOS\n")
        with pytest.raises(CsvParseError, match=":2:"):
            load_csv(path)

    def test_unparsable_number_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cn0_diff,elevation_deg,label\nxyz,10.0,LOS\n")
        with pytest.raises(CsvParseError, match=":2:.*cn0_diff"):
            load_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cn0_diff,elevation_deg,label\n1.0,LOS\n")
        with pytest.raises(CsvParseError, match=":2:"):
            load_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cn0,elev,label\n1.0,10.0,LOS\n")
        with pytest.raises(CsvParseError, match="header"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(CsvParseError, match="empty"):
            load_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("cn0_diff,elevation_deg,label\n")
        with pytest.raises(CsvParseError, match="no data rows"):
            load_csv(path)


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        ds = generate_synthetic("T1_SHAPE", seed=11)
        path = tmp_path / "rt.csv"
        write_csv(ds, path)
        loaded = load_csv(path)
        assert loaded.samples == ds.samples


def _write_artifact(kind: str, path) -> None:
    ds = generate_synthetic("T1_SHAPE", seed=11)
    scaler = fit_scaler(ds)
    model = train_ovo(apply_scaler(scaler, ds), ds.labels(), SvmConfig(),
                      KernelConfig(mode=RBF, gamma=1.0))
    if kind == "sample csv":
        write_csv(ds, path)
    elif kind == "confusion csv":
        save_confusion_csv(make_report(ds.labels()[::-1], ds.labels(), LABELS), path)
    elif kind == "grid csv":
        save_grid_csv(boundary_grid(model, scaler, 4), path)
    else:
        save_model(model, path, scaler)


class TestArtifactWriter:
    @pytest.mark.parametrize("kind", ["sample csv", "confusion csv", "grid csv", "model json"])
    def test_rewrite_of_longer_file_leaves_no_stale_tail(self, tmp_path, kind):
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        _write_artifact(kind, fresh)
        reused.write_bytes(b"#" * 3 + fresh.read_bytes() + b"stale tail\n" * 500)
        _write_artifact(kind, reused)
        assert reused.read_bytes() == fresh.read_bytes()

    def test_exception_mid_write_leaves_the_written_prefix(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("old,contents\n" * 100, encoding="utf-8")
        with pytest.raises(RuntimeError, match="halfway"):
            with _open_artifact(path) as fh:
                fh.write("new,")
                raise RuntimeError("halfway")
        assert path.read_bytes() == b"new,"

    def test_existing_mode_kept_and_new_file_mode_follows_umask(self, tmp_path):
        ds = generate_synthetic("T1_SHAPE", seed=11)
        existing = tmp_path / "existing.csv"
        existing.write_text("x" * 10_000, encoding="utf-8")
        existing.chmod(0o640)
        write_csv(ds, existing)
        assert stat.S_IMODE(existing.stat().st_mode) == 0o640

        umask = os.umask(0o022)
        os.umask(umask)
        write_csv(ds, tmp_path / "new.csv")
        assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o666 & ~umask

    def test_writes_through_a_symlink(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("x" * 10_000, encoding="utf-8")
        link.symlink_to(target)
        ds = generate_synthetic("T1_SHAPE", seed=11)
        write_csv(ds, link)
        assert link.is_symlink()
        assert load_csv(target).samples == ds.samples

    @pytest.mark.parametrize("path, error", [
        ("", IsADirectoryError), ("missing/a.csv", FileNotFoundError)])
    def test_unwritable_paths_raise_like_open(self, tmp_path, path, error):
        with pytest.raises(error):
            write_csv(generate_synthetic("T1_SHAPE"), tmp_path / path)


class TestScaler:
    def test_min_max_recorded_from_training_only(self):
        ds = make_dataset([(0.0, 10.0, "LOS"), (10.0, 50.0, "NLOS")])
        params = fit_scaler(ds)
        assert params.data_min.tolist() == [0.0, 10.0]
        assert params.data_max.tolist() == [10.0, 50.0]

    def test_unit_target_midpoint(self):
        ds = make_dataset([(0.0, 10.0, "LOS"), (10.0, 50.0, "NLOS")])
        params = fit_scaler(ds, 0.0, 1.0)
        scaled = apply_scaler(params, np.array([[5.0, 30.0]]))
        assert scaled.tolist() == [[0.5, 0.5]]

    def test_two_pi_target(self):
        ds = make_dataset([(0.0, 10.0, "LOS"), (10.0, 50.0, "NLOS")])
        params = fit_scaler(ds, 0.0, 2 * math.pi)
        scaled = apply_scaler(params, np.array([[10.0, 50.0]]))
        assert scaled[0, 0] == pytest.approx(2 * math.pi, abs=1e-15)

    def test_training_extremes_map_exactly_to_targets(self):
        rng = np.random.default_rng(31)
        for hi in (1.0, 2 * math.pi):
            ds = make_dataset(
                [
                    (float(c), float(e), "LOS")
                    for c, e in zip(rng.normal(0, 5, 20), rng.uniform(0, 90, 20))
                ]
            )
            params = fit_scaler(ds, 0.0, hi)
            scaled = apply_scaler(params, ds)
            assert scaled.min(axis=0).tolist() == [0.0, 0.0]
            assert scaled.max(axis=0).tolist() == [hi, hi]

    def test_out_of_range_values_pass_through_unclamped(self):
        ds = make_dataset([(0.0, 10.0, "LOS"), (10.0, 50.0, "NLOS")])
        params = fit_scaler(ds)
        scaled = apply_scaler(params, np.array([[-5.0, 90.0]]))
        assert scaled[0, 0] < 0.0
        assert scaled[0, 1] > 1.0

    def test_identity_when_ranges_match(self):
        ds = make_dataset([(0.0, 0.0, "LOS"), (1.0, 1.0, "NLOS")])
        params = fit_scaler(ds, 0.0, 1.0)
        values = np.array([[0.25, 0.75]])
        assert apply_scaler(params, values).tolist() == values.tolist()

    @pytest.mark.parametrize("values", [[[0.5], [0.25]], [0.5, 0.25], [[0.5, 0.25, 0.75]]],
                             ids=["one-column", "1-D", "three-column"])
    def test_input_must_be_a_two_column_matrix(self, values):
        params = fit_scaler(make_dataset([(0.0, 10.0, "LOS"), (10.0, 50.0, "NLOS")]))
        with pytest.raises(DimensionError, match=r"expected an \(m, 2\) feature matrix"):
            apply_scaler(params, values)

    def test_empty_dataset_scales_to_an_empty_matrix(self):
        params = fit_scaler(make_dataset([(0.0, 10.0, "LOS"), (10.0, 50.0, "NLOS")]))
        assert apply_scaler(params, Dataset([])).shape == (0, 2)

    def test_constant_feature_rejected(self):
        ds = make_dataset([(5.0, 10.0, "LOS"), (5.0, 50.0, "NLOS")])
        with pytest.raises(DegenerateDataError, match="cn0_diff"):
            fit_scaler(ds)

    def test_inverted_target_rejected(self):
        ds = make_dataset([(0.0, 10.0, "LOS"), (10.0, 50.0, "NLOS")])
        with pytest.raises(ValueError):
            fit_scaler(ds, 1.0, 0.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_non_finite_target_rejected(self, lo, hi):
        ds = make_dataset([(0.0, 10.0, "LOS"), (10.0, 50.0, "NLOS")])
        with pytest.raises(ValueError, match="target_hi must exceed target_lo"):
            fit_scaler(ds, lo, hi)

    @pytest.mark.parametrize("data_min, data_max", [
        ([0.0, math.nan], [1.0, 1.0]), ([0.0, 0.0], [1.0, math.inf]), ([2.0, 0.0], [1.0, 1.0])])
    def test_params_without_finite_range_rejected(self, data_min, data_max):
        with pytest.raises(DegenerateDataError, match="no finite range"):
            ScalerParams(np.array(data_min), np.array(data_max))

    def test_params_of_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="must hold 2 values"):
            ScalerParams(np.zeros(3), np.ones(3))


class TestGenerateSynthetic:
    def test_preset_counts(self):
        expected = {
            "T0_SHAPE": ({"LOS": 80, "NLOS": 40, "LOS_NLOS": 32}, 152),
            "T1_SHAPE": ({"LOS": 23, "NLOS": 10, "LOS_NLOS": 8}, 41),
            "T2_SHAPE": ({"LOS": 80, "NLOS": 10, "LOS_NLOS": 30}, 120),
        }
        for preset, (counts, total) in expected.items():
            ds = generate_synthetic(preset, seed=0)
            assert Counter(ds.labels()) == counts
            assert len(ds) == total

    def test_counts_hold_for_any_seed(self):
        for seed in (0, 1, 17, 123456, -9):
            ds = generate_synthetic("T1_SHAPE", seed=seed)
            assert Counter(ds.labels()) == {"LOS": 23, "NLOS": 10, "LOS_NLOS": 8}

    def test_same_seed_identical_datasets(self):
        a = generate_synthetic("T2_SHAPE", seed=9)
        b = generate_synthetic("T2_SHAPE", seed=9)
        assert a.samples == b.samples

    def test_different_seeds_differ(self):
        a = generate_synthetic("T2_SHAPE", seed=1)
        b = generate_synthetic("T2_SHAPE", seed=2)
        assert a.samples != b.samples

    def test_presets_with_same_seed_share_no_samples(self):
        t0 = generate_synthetic("T0_SHAPE", seed=5)
        t1 = generate_synthetic("T1_SHAPE", seed=5)
        assert not set(t0.samples) & set(t1.samples)

    def test_values_stay_in_domain(self):
        for preset in PRESETS:
            ds = generate_synthetic(preset, seed=13)
            X = ds.features()
            assert np.all((X[:, 1] >= 0.0) & (X[:, 1] <= 90.0))
            assert np.all(np.isfinite(X))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic("T3_SHAPE", seed=0)

    @pytest.mark.parametrize("seed", [2.5, 2.0, True, "2"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            generate_synthetic("T1_SHAPE", seed)


def test_labels_constant_matches_schema():
    assert LABELS == ("LOS", "NLOS", "LOS_NLOS")
