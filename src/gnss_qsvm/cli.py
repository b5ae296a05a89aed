"""Command-line pipeline: synthetic data, training, prediction, evaluation,
decision-boundary grids, and the full two-phase experiment protocol.

All outputs are files; reruns with identical configuration produce
byte-identical artifacts. The default output directory can be set with the
GNSS_QSVM_OUTPUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .data import (
    Dataset,
    PRESETS,
    LABELS,
    ScalerParams,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
    load_csv,
    write_csv,
    _check_int,
)
from .evaluate import (
    boundary_grid,
    make_report,
    save_confusion_csv,
    save_grid_csv,
    save_report,
)
from .feature_map import FeatureMapConfig
from .kernels import FIDELITY_EXACT, FIDELITY_SAMPLED, RBF, KernelConfig
from .svm import SvmConfig, SvmModel, load_model, predict, save_model, train_ovo

OUTPUT_DIR_ENV = "GNSS_QSVM_OUTPUT_DIR"
MODELS = ("qsvm", "svm")
KERNELS = ("exact", "sampled")


@dataclass
class ExperimentConfig:
    train_sources: list[str]
    test_source: str
    model: str = "qsvm"  # qsvm | svm
    kernel: str = "exact"  # exact | sampled (qsvm only)
    shots: int = 1000
    seed: int = 0
    scale_lo: float = 0.0
    scale_hi: float = 1.0
    raw: bool = False
    C: float = 1.0
    tolerance: float = 1e-3
    repetitions: int = 2
    gamma: float | None = None
    grid_resolution: int | None = None
    outdir: str = field(
        default_factory=lambda: os.environ.get(OUTPUT_DIR_ENV, ".")
    )

    def echo(self) -> dict:
        # outdir is omitted so reports are location-independent.
        doc = asdict(self)
        del doc["outdir"]
        doc["train"] = doc.pop("train_sources")
        doc["test"] = doc.pop("test_source")
        return doc


def _load_source(source: str, seed: int) -> Dataset:
    if source in PRESETS:
        return generate_synthetic(source, seed)
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(f"no such dataset file or preset: {source}")
    return load_csv(path)


def _load_many(sources: list[str], seed: int) -> Dataset:
    return Dataset(samples=[s for src in sources for s in _load_source(src, seed).samples])


def _kernel_config(config: ExperimentConfig) -> KernelConfig:
    fm = FeatureMapConfig(num_features=2, repetitions=config.repetitions)
    if config.model == "svm":
        return KernelConfig(mode=RBF, feature_map=fm, gamma=config.gamma)
    mode = FIDELITY_EXACT if config.kernel == "exact" else FIDELITY_SAMPLED
    return KernelConfig(
        mode=mode, feature_map=fm, shots=config.shots, seed=config.seed
    )


def _features(dataset: Dataset, scaler: ScalerParams | None):
    return dataset.features() if scaler is None else apply_scaler(scaler, dataset)


def fit_pipeline(config: ExperimentConfig) -> tuple[SvmModel, ScalerParams | None]:
    """Load the training sources, fit the scaler on them (none with
    ``raw``) and train the one-vs-one model on the classes present, in
    label order. Returns (model, scaler or None)."""
    if not config.train_sources:
        raise ValueError("at least one training source is required")
    if config.model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {config.model!r}")
    if config.kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {config.kernel!r}")
    _check_int(config.seed, "seed")

    train = _load_many(config.train_sources, config.seed)
    scaler = None if config.raw else fit_scaler(train, config.scale_lo, config.scale_hi)
    classes = [c for c in LABELS if c in set(train.labels())]
    svm_cfg = SvmConfig(C=config.C, kkt_tolerance=config.tolerance)
    model = train_ovo(_features(train, scaler), train.labels(), svm_cfg,
                      _kernel_config(config), classes)
    return model, scaler


def run_experiment(config: ExperimentConfig):
    """Full pipeline: load -> fit scaler on train -> transform -> train ->
    predict -> write report.json, confusion.csv, model.json and, when a grid
    resolution is set, grid.csv. Returns (EvalReport, artifact path dict).
    """
    if config.grid_resolution is not None:
        if config.raw:
            raise ValueError("boundary grids need scaled features; drop --raw")
        _check_int(config.grid_resolution, "grid_resolution", 1)

    test = _load_source(config.test_source, config.seed)
    model, scaler = fit_pipeline(config)
    predictions = predict(model, _features(test, scaler))
    report = make_report(predictions, test.labels(), model.classes)
    warnings_list = [
        f"{bm.label_pair[0]} vs {bm.label_pair[1]}"
        for bm in model.binary_models
        if not bm.converged
    ]

    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    artifacts = {
        "report": outdir / "report.json",
        "confusion": outdir / "confusion.csv",
        "model": outdir / "model.json",
    }
    save_report(report, artifacts["report"], config.echo(), warnings_list)
    save_confusion_csv(report, artifacts["confusion"])
    save_model(model, artifacts["model"], scaler)
    if config.grid_resolution is not None:
        grid = boundary_grid(model, scaler, config.grid_resolution)
        artifacts["grid"] = outdir / "grid.csv"
        save_grid_csv(grid, artifacts["grid"])
    return report, artifacts


def _add_data_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--train", nargs="+", required=True, metavar="SRC", dest="train_sources",
        help=f"training CSV path(s) or preset name(s) {PRESETS}; "
        "multiple sources concatenate",
    )
    parser.add_argument("--seed", type=int,
                        help="seed for synthetic presets and sampled kernels")


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=MODELS,
                        help="qsvm = fidelity quantum kernel, svm = RBF baseline")
    parser.add_argument("--kernel", choices=KERNELS, help="fidelity evaluation mode for qsvm")
    parser.add_argument("--shots", type=int, help="shots per kernel entry in sampled mode")
    parser.add_argument("--scale-lo", type=float,
                        help="lower end of the feature scaling range")
    parser.add_argument("--scale-hi", type=float,
                        help="upper end of the feature scaling range")
    parser.add_argument("--raw", action="store_true",
                        help="skip feature scaling (raw dB / degree units)")
    parser.add_argument("--C", type=float, help="soft-margin penalty")
    parser.add_argument("--tolerance", type=float, help="SMO KKT tolerance")
    parser.add_argument("--reps", type=int, dest="repetitions",
                        help="feature map repetitions")
    parser.add_argument("--gamma", type=float,
                        help="RBF gamma; defaults to 1/(n_features * pooled variance)")


def _config_from_args(args, **fixed) -> ExperimentConfig:
    """The config from the options given, with ``ExperimentConfig``'s own
    defaults for the rest."""
    names = {f.name for f in fields(ExperimentConfig)}
    return ExperimentConfig(**{k: v for k, v in vars(args).items() if k in names}, **fixed)


def _cmd_synth(args) -> int:
    dataset = generate_synthetic(args.preset, args.seed)
    write_csv(dataset, args.out)
    print(f"wrote {len(dataset)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    model, scaler = fit_pipeline(_config_from_args(args, test_source=""))
    save_model(model, args.out, scaler)
    print(f"trained on {len(model.training_features)} samples; model saved to {args.out}")
    return 0


def _predict_dataset(model_path, data_path):
    model, scaler = load_model(model_path)
    dataset = load_csv(data_path)
    return model, dataset, predict(model, _features(dataset, scaler))


def _cmd_predict(args) -> int:
    _, dataset, predictions = _predict_dataset(args.model_path, args.data)
    predicted = Dataset([replace(s, label=label) for s, label in zip(dataset.samples, predictions)])
    write_csv(predicted, args.out)
    print(f"wrote {len(predicted)} predictions to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model, dataset, predictions = _predict_dataset(args.model_path, args.data)
    report = make_report(predictions, dataset.labels(), model.classes)
    echo = {"model": str(args.model_path), "data": str(args.data)}
    save_report(report, args.out, echo)
    print(f"accuracy {report.accuracy:.4f} on {report.n_total} samples; "
          f"report saved to {args.out}")
    return 0


def _cmd_boundary(args) -> int:
    model, scaler = load_model(args.model_path)
    grid = boundary_grid(model, scaler, args.resolution)
    save_grid_csv(grid, args.out)
    print(f"wrote {args.resolution}x{args.resolution} grid to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    report, artifacts = run_experiment(_config_from_args(args))
    print(f"accuracy {report.accuracy:.4f} on {report.n_total} samples")
    for name, path in artifacts.items():
        print(f"  {name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnss-qsvm",
        description="Quantum-kernel and RBF SVM classification of GNSS "
        "signal reception conditions (LOS / NLOS / LOS+NLOS).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset CSV")
    p.add_argument("--preset", choices=PRESETS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    # The pipeline's defaults live in ExperimentConfig alone: an option not
    # given leaves no attribute, so _config_from_args passes only the given.
    p = sub.add_parser("train", help="train a model and save it as JSON",
                       argument_default=argparse.SUPPRESS)
    _add_data_options(p)
    _add_model_options(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict labels for a dataset CSV")
    p.add_argument("--model-path", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="predictions CSV path")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="score a model against labeled data")
    p.add_argument("--model-path", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("boundary", help="export a decision-boundary grid CSV")
    p.add_argument("--model-path", required=True)
    p.add_argument("--resolution", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("experiment", help="full train/test pipeline with artifacts",
                       argument_default=argparse.SUPPRESS)
    _add_data_options(p)
    _add_model_options(p)
    p.add_argument("--test", required=True, metavar="SRC", dest="test_source",
                   help="test CSV path or preset name")
    p.add_argument("--grid-resolution", type=int,
                   help="also export a decision-boundary grid at this resolution")
    p.add_argument("--outdir", help=f"output directory (default: ${OUTPUT_DIR_ENV} or .)")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: report and exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
