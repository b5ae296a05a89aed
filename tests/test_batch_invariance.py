"""A point's prediction must not depend on the batch it comes in: its
labels, its kernel row and, bit for bit, its decision values.

The sampled kernel is left out: its prediction entries are seeded on the
test row's position in the batch, so a sampled prediction does depend on the
batch today (ROADMAP item 4).
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnss_qsvm.data import Dataset, apply_scaler, fit_scaler, generate_synthetic
from gnss_qsvm.kernels import FIDELITY_EXACT, RBF, KernelConfig, gram_rectangular
from gnss_qsvm.svm import SvmConfig, _decisions, predict, train_ovo

MODES = {"exact": KernelConfig(mode=FIDELITY_EXACT), "rbf": KernelConfig(mode=RBF)}


@functools.lru_cache(maxsize=None)
def _fitted(mode: str):
    """A model trained once on scaled T0, and a point pool with one bulk
    prediction of it (labels, kernel rows, decision values): scaled T1 and T2
    rows and three points outside the scaled range."""
    t0 = generate_synthetic("T0_SHAPE", seed=0)
    scaler = fit_scaler(t0)
    model = train_ovo(apply_scaler(scaler, t0), t0.labels(), SvmConfig(), MODES[mode])
    tests = Dataset(samples=[s for p in ("T1_SHAPE", "T2_SHAPE")
                             for s in generate_synthetic(p, seed=0).samples])
    pool = np.vstack([apply_scaler(scaler, tests), [[-0.5, 1.5], [2.0, -1.0], [1.2, 1.2]]])
    return model, pool, predict(model, pool), _kernel_rows(model, pool), _decisions(model, pool)


def _kernel_rows(model, X) -> np.ndarray:
    return gram_rectangular(X, model.training_features, model.kernel_config).values


@pytest.mark.parametrize("mode", list(MODES))
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_predict_on_any_index_list_equals_bulk_rows(mode, data):
    model, pool, bulk_labels, bulk_rows, bulk_decisions = _fitted(mode)
    # Any subset, in any order, duplicates allowed, one row included.
    idx = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    assert predict(model, pool[idx]) == [bulk_labels[i] for i in idx]
    assert _kernel_rows(model, pool[idx]).tobytes() == bulk_rows[idx].tobytes()
    assert _decisions(model, pool[idx]).tobytes() == bulk_decisions[idx].tobytes()
