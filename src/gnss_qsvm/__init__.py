"""Quantum-kernel and RBF SVM classification of GNSS signal reception
conditions (LOS / NLOS / LOS+NLOS).

The package namespace holds the pipeline API. The batched feature-map
states live in ``gnss_qsvm.feature_map`` and Gram assembly in
``gnss_qsvm.kernels``; ``gnss_qsvm.sim`` holds only the basis conventions
(qubit cap, Hadamard factor) that the states are built with.
"""

from .data import (
    Dataset,
    LABELS,
    PRESETS,
    ScalerParams,
    SignalSample,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
    load_csv,
    write_csv,
)
from .evaluate import boundary_grid, make_report
from .feature_map import FeatureMapConfig
from .kernels import FIDELITY_EXACT, FIDELITY_SAMPLED, RBF, KernelConfig
from .svm import SvmConfig, load_model, predict, save_model, train_ovo

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ExperimentConfig",
    "FIDELITY_EXACT",
    "FIDELITY_SAMPLED",
    "FeatureMapConfig",
    "KernelConfig",
    "LABELS",
    "PRESETS",
    "RBF",
    "ScalerParams",
    "SignalSample",
    "SvmConfig",
    "apply_scaler",
    "boundary_grid",
    "fit_scaler",
    "generate_synthetic",
    "load_csv",
    "load_model",
    "make_report",
    "predict",
    "run_experiment",
    "save_model",
    "train_ovo",
    "write_csv",
]


def __getattr__(name):
    # The experiment API is imported on first use: importing gnss_qsvm.cli
    # here would run it twice under ``python -m gnss_qsvm.cli``.
    if name in ("ExperimentConfig", "run_experiment"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
