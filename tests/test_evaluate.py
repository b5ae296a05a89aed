import numpy as np
import pytest

from gnss_qsvm.data import ScalerParams, apply_scaler, fit_scaler, generate_synthetic
from gnss_qsvm.evaluate import (
    boundary_grid,
    confusion,
    grid_centers,
    make_report,
    save_grid_csv,
    save_report,
)
from gnss_qsvm.errors import InvalidLabelsError, InvalidSettingError
from gnss_qsvm.kernels import FIDELITY_EXACT, RBF, KernelConfig
from gnss_qsvm.svm import BinaryModel, SvmConfig, SvmModel, train_ovo

UNIT_SCALER = ScalerParams(
    data_min=np.array([0.0, 0.0]), data_max=np.array([1.0, 1.0]),
    target_lo=0.0, target_hi=1.0,
)


class TestAccuracy:
    def test_all_correct(self):
        assert make_report(["a", "b"], ["a", "b"], ["a", "b"]).accuracy == 1.0

    def test_half_correct(self):
        assert make_report(["a", "b"], ["a", "a"], ["a", "b"]).accuracy == 0.5

    def test_none_correct(self):
        assert make_report(["b", "a"], ["a", "b"], ["a", "b"]).accuracy == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="1 prediction"):
            make_report(["a"], ["a", "b"], ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            make_report([], [], ["a", "b"])


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        truth = ["a", "b", "c", "a"]
        matrix = confusion(truth, truth, ["a", "b", "c"])
        assert np.array_equal(matrix, np.diag([2, 1, 1]))

    def test_entries_sum_to_sample_count(self):
        rng = np.random.default_rng(41)
        classes = ["a", "b", "c"]
        truth = rng.choice(classes, size=30).tolist()
        preds = rng.choice(classes, size=30).tolist()
        assert confusion(preds, truth, classes).sum() == 30

    def test_single_wrong_sample(self):
        matrix = confusion(["b"], ["a"], ["a", "b"])
        assert matrix.tolist() == [[0, 1], [0, 0]]

    def test_unknown_label_rejected(self):
        with pytest.raises(InvalidLabelsError, match="predicted label 'z'"):
            confusion(["z"], ["a"], ["a", "b"])
        with pytest.raises(InvalidLabelsError, match="truth label 'z'"):
            confusion(["a"], ["z"], ["a", "b"])

    def test_permuting_classes_permutes_rows_and_columns(self):
        rng = np.random.default_rng(42)
        classes = ["a", "b", "c"]
        truth = rng.choice(classes, size=50).tolist()
        preds = rng.choice(classes, size=50).tolist()
        base = confusion(preds, truth, classes)
        perm = [2, 0, 1]
        permuted = confusion(preds, truth, [classes[i] for i in perm])
        assert np.array_equal(permuted, base[np.ix_(perm, perm)])


class TestMakeReport:
    def test_accuracy_equals_trace_over_total(self):
        rng = np.random.default_rng(43)
        classes = ["a", "b", "c"]
        truth = rng.choice(classes, size=40).tolist()
        preds = rng.choice(classes, size=40).tolist()
        report = make_report(preds, truth, classes)
        assert report.accuracy == report.confusion.trace() / report.n_total
        assert report.n_total == 40

    @pytest.mark.parametrize("call, message", [
        (lambda: make_report(["LOS"], ["LOS"], ["LOS", "LOS"]), "names a class twice"),
        (lambda: confusion([[1]], [[1]], ["a"]), "unhashable type: 'list'"),
        (lambda: confusion(["a"], ["a"], [["a"]]), "unhashable type: 'list'"),
    ], ids=["repeated class", "unhashable label", "unhashable class"])
    def test_unusable_class_list_or_labels_raise_invalid_labels_error(self, call, message):
        with pytest.raises(InvalidLabelsError, match=message):
            call()


class TestBoundaryGrid:
    def test_constant_model_fills_one_label(self):
        model = _constant_model(bias=1.0)  # always votes for the first class
        grid = boundary_grid(model, UNIT_SCALER, resolution=5)
        assert set(grid.cells.ravel().tolist()) == {"A"}

    def test_resolution_three_gives_nine_cells(self):
        grid = boundary_grid(_constant_model(1.0), UNIT_SCALER, resolution=3)
        assert grid.cells.shape == (3, 3)
        assert grid.cells.size == 9

    def test_cells_are_cell_centers(self):
        centers = grid_centers(0.0, 1.0, 4)
        assert centers.tolist() == [0.125, 0.375, 0.625, 0.875]

    @pytest.mark.parametrize("resolution", [0, -1, 2.0, True])
    def test_centers_need_a_resolution_of_at_least_1(self, resolution):
        with pytest.raises(InvalidSettingError, match="resolution must be an integer"):
            grid_centers(0.0, 1.0, resolution)

    def test_grid_deterministic_and_covers_classes(self):
        ds = generate_synthetic("T1_SHAPE", seed=0)
        scaler = fit_scaler(ds)
        X = apply_scaler(scaler, ds)
        model = train_ovo(X, ds.labels(), SvmConfig(), KernelConfig(mode=FIDELITY_EXACT))
        a = boundary_grid(model, scaler, resolution=40)
        b = boundary_grid(model, scaler, resolution=40)
        assert np.array_equal(a.cells, b.cells)
        assert set(a.cells.ravel().tolist()) == {"LOS", "NLOS", "LOS_NLOS"}

    def test_sampled_kernel_grid_reproducible(self):
        # per-entry seeds derive from (master seed, test idx, train idx),
        # so even shot-sampled grids are identical across runs
        ds = generate_synthetic("T1_SHAPE", seed=1)
        scaler = fit_scaler(ds)
        X = apply_scaler(scaler, ds)
        cfg = KernelConfig(mode="fidelity_sampled", shots=16, seed=3)
        model = train_ovo(X, ds.labels(), SvmConfig(), cfg)
        a = boundary_grid(model, scaler, resolution=4)
        b = boundary_grid(model, scaler, resolution=4)
        assert np.array_equal(a.cells, b.cells)

    def test_spans_scaler_target_square(self):
        scaler = ScalerParams(
            data_min=np.array([0.0, 0.0]), data_max=np.array([1.0, 1.0]),
            target_lo=0.0, target_hi=2.0,
        )
        grid = boundary_grid(_constant_model(1.0), scaler, resolution=2)
        assert grid.span == (0.0, 2.0)

    def test_raw_model_rejected(self):
        # A model trained without a scaler has no scaled square to span.
        with pytest.raises(ValueError, match="retrain without --raw"):
            boundary_grid(_constant_model(1.0), None, resolution=3)

    def test_non_2d_model_rejected(self):
        model = train_ovo(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), ["A", "B"], SvmConfig(),
                          KernelConfig(mode=RBF, gamma=1.0))
        with pytest.raises(ValueError, match="boundary grids need a 2-feature model"):
            boundary_grid(model, UNIT_SCALER, resolution=3)


class TestExports:
    def test_grid_csv_schema(self, tmp_path):
        grid = boundary_grid(_constant_model(1.0), UNIT_SCALER, resolution=2)
        path = tmp_path / "grid.csv"
        save_grid_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == 5
        x, y, label = lines[1].split(",")
        assert (float(x), float(y), label) == (0.25, 0.25, "A")

    def test_report_json_is_deterministic(self, tmp_path):
        report = make_report(["a", "b"], ["a", "a"], ["a", "b"])
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        save_report(report, p1, {"seed": 1}, [])
        save_report(report, p2, {"seed": 1}, [])
        assert p1.read_bytes() == p2.read_bytes()


def _constant_model(bias: float) -> SvmModel:
    return SvmModel(
        classes=["A", "B"],
        binary_models=[
            BinaryModel(
                label_pair=("A", "B"),
                alpha=np.zeros(2),
                y=np.array([1.0, -1.0]),
                bias=bias,
                training_indices=np.arange(2),
            )
        ],
        kernel_config=KernelConfig(mode=RBF, gamma=1.0),
        training_features=np.array([[0.0, 0.0], [1.0, 1.0]]),
    )
