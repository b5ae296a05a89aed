"""The four benchmark workloads: inputs made from the seed, the timed
operation, and the correctness check of every operation.

Every operation is short (about 20 to 100 ms on a 2-vCPU Xeon VM), so one
run times a few hundred of them. On a shared host the CPU alternates, over
seconds, between a fast state and one about 1.8 times slower; latency is
measured against a reference loop timed just before each operation (see
``run.py``), which needs operations far shorter than a stretch of one
state. The experiment workloads therefore run the paper's experiments on
every k-th row of the paper's data sets, keeping which layer dominates
each one.

Each workload writes its inputs as CSV files from ``generate_synthetic``
during set-up, so the program under test only sees generated files and its
CSV reader is part of the timed work. The seed selects one of
``N_INPUT_SETS`` input sets (``seed % N_INPUT_SETS``); every set has
reference values in ``reference.json``, produced by the seed code with
``make_reference.py``.

Every workload trains on a fixed set (data seed 0) and draws the data it
classifies, and the sampled kernel's seed, from the input set. SMO time
varies several-fold between training sets of equal size (0.4 to 6.3 s
over 16 full-size ``rbf_pool`` pools, 0.02 to 0.39 s over 16 T0+T1 sets),
which would swamp any regression bound; with the training set fixed, SMO
does the same work on every seed.

The checks are ones a correct optimisation cannot fail:

* every workload: artifacts are byte-identical across a run's repeats;
* ``exact_grid``: accuracy and the ``grid.csv`` digest equal the reference
  exactly (the exact kernel's goldens and byte-identical grids are pinned
  project-wide);
* ``sampled_phase1``: accuracy within ``SAMPLED_ACC_TOL`` of the reference,
  since a different but valid shot-noise stream moves a few test points;
* ``rbf_pool``: accuracy within ``RBF_ACC_TOL``, the same ``converged``
  flags, and each binary model's dual objective (recomputed here from
  ``model.json`` with an independent RBF Gram) within ``RBF_DUAL_RTOL``
  relative, since any SMO that meets the KKT tolerance lands that close;
* ``exact_epochs``: each epoch's labels equal one bulk ``predict`` of all
  epoch points (the exact kernel is batch-invariant), and the bulk
  accuracy equals the reference exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from gnss_qsvm import cli, data, svm

N_INPUT_SETS = 32  # set 31 was not used while tuning: keep it for checking claims

SAMPLED_ACC_TOL = 0.15  # two of the 14 test points
RBF_ACC_TOL = 0.02
RBF_DUAL_RTOL = 1e-3

TRAIN_SEED = 0
GRID_RESOLUTION = 16
EPOCH_SIZE = 12
EPOCH_POOL_SEEDS = 16
PRESETS = ("T0_SHAPE", "T1_SHAPE", "T2_SHAPE")


def input_set(seed: int) -> int:
    return seed % N_INPUT_SETS


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _pool(parts) -> data.Dataset:
    return data.Dataset(samples=[s for d in parts for s in d.samples])


def _rows(preset: str, seed: int, stride: int) -> data.Dataset:
    """Every ``stride``-th row of a preset; the presets are written in class
    blocks, so a stride keeps every class."""
    return data.Dataset(samples=data.generate_synthetic(preset, seed).samples[::stride])


def _write(dataset: data.Dataset, path: Path) -> str:
    data.write_csv(dataset, path)
    return str(path)


def _write_warm(s: int, workdir: Path) -> str:
    # Every fourth T1 row: 11 rows holding all three classes.
    t1 = data.generate_synthetic("T1_SHAPE", s)
    return _write(data.Dataset(samples=t1.samples[::4]), workdir / "warm.csv")


class ExperimentWorkload:
    """One operation is one ``cli.run_experiment`` with its artifacts written.

    Subclasses define ``inputs`` (write the CSVs, return train and test
    sources), ``config``, ``check_values`` and ``reference_values``.
    """

    min_ops = 3

    def __init__(self, s: int, reference: dict):
        self.s = s
        self.reference = reference
        self.first = None  # (artifact digests, problems) of the first operation

    def prepare(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        train, test = self.inputs(workdir)
        self.cfg = self.config(train, test, workdir / "out")
        warm = _write_warm(self.s, workdir)
        self.warm_cfg = self.config([warm], warm, workdir / "warm",
                                    grid=2 if self.cfg.grid_resolution else None)

    def warm_up(self) -> None:
        cli.run_experiment(self.warm_cfg)

    def op(self):
        return cli.run_experiment(self.cfg)

    def check(self, result) -> list[str]:
        """Problems found in one operation's outputs; empty when correct."""
        _, artifacts = result
        digests = {k: sha256(p) for k, p in artifacts.items()}
        if self.first is None:
            self.first = digests, self.check_values(artifacts, digests)
        first_digests, first_problems = self.first
        if digests != first_digests:
            changed = sorted(k for k in digests if digests[k] != first_digests.get(k))
            return [f"artifacts differ from the run's first repeat: {changed}"]
        return list(first_problems)  # same bytes, same verdict


def _accuracy(artifacts) -> float:
    with open(artifacts["report"], encoding="utf-8") as fh:
        return json.load(fh)["accuracy"]


class ExactGrid(ExperimentWorkload):
    """Every 4th row: T0+T1 (49) -> T2 (30), with a 16x16 grid; 433
    feature-map states an operation."""

    name = "exact_grid"

    def inputs(self, workdir):
        t0, t1 = (_rows(p, TRAIN_SEED, 4) for p in PRESETS[:2])
        t2 = _rows("T2_SHAPE", self.s, 4)
        return ([_write(t0, workdir / "t0.csv"), _write(t1, workdir / "t1.csv")],
                _write(t2, workdir / "t2.csv"))

    def config(self, train, test, outdir, grid=GRID_RESOLUTION):
        return cli.ExperimentConfig(
            train_sources=train, test_source=test, model="qsvm", kernel="exact",
            seed=self.s, grid_resolution=grid, outdir=str(outdir))

    def check_values(self, artifacts, digests):
        problems = []
        acc = _accuracy(artifacts)
        if acc != self.reference["accuracy"]:
            problems.append(f"accuracy {acc!r} != reference {self.reference['accuracy']!r}")
        if digests["grid"] != self.reference["grid_sha256"]:
            problems.append("grid.csv digest differs from the reference")
        return problems

    def reference_values(self, result):
        _, artifacts = result
        return {"accuracy": _accuracy(artifacts), "grid_sha256": sha256(artifacts["grid"])}


class SampledPhase1(ExperimentWorkload):
    """The paper's phase 1, T0 -> T1, with the 1000-shot sampled kernel, on
    every 16th T0 row (10) and every 3rd T1 row (14): 185 sampled entries."""

    name = "sampled_phase1"

    def inputs(self, workdir):
        t0 = _rows("T0_SHAPE", TRAIN_SEED, 16)
        t1 = _rows("T1_SHAPE", self.s, 3)
        return [_write(t0, workdir / "t0.csv")], _write(t1, workdir / "t1.csv")

    def config(self, train, test, outdir, grid=None):
        return cli.ExperimentConfig(
            train_sources=train, test_source=test, model="qsvm", kernel="sampled",
            shots=1000, seed=self.s, grid_resolution=grid, outdir=str(outdir))

    def check_values(self, artifacts, digests):
        acc = _accuracy(artifacts)
        if abs(acc - self.reference["accuracy"]) > SAMPLED_ACC_TOL:
            return [f"accuracy {acc!r} not within {SAMPLED_ACC_TOL} of "
                    f"reference {self.reference['accuracy']!r}"]
        return []

    def reference_values(self, result):
        return {"accuracy": _accuracy(result[1])}


def _dual_objectives(model_path) -> list[tuple[float, bool]]:
    """(dual objective, converged) per binary model, from an RBF Gram built
    here rather than by the program."""
    with open(model_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    X = np.asarray(doc["training_features"], dtype=float)
    gamma = doc["kernel"]["gamma"]
    out = []
    for bm in doc["binary_models"]:
        Xi = X[np.asarray(bm["training_indices"], dtype=int)]
        sq = ((Xi[:, None, :] - Xi[None, :, :]) ** 2).sum(axis=-1)
        coef = np.asarray(bm["alpha"]) * np.asarray(bm["y"])
        out.append((float(np.sum(bm["alpha"]) - 0.5 * coef @ np.exp(-gamma * sq) @ coef),
                    bool(bm["converged"])))
    return out


class RbfPool(ExperimentWorkload):
    name = "rbf_pool"

    def inputs(self, workdir):
        # Train on every 6th row of T0+T1+T2 pooled over data seeds 0-3 (212
        # samples); test on every 6th row of T1+T2 pooled over four seeds
        # from the input set (108 samples).
        train = _pool(_rows(p, TRAIN_SEED + k, 6) for k in range(4) for p in PRESETS)
        test = _pool(_rows(p, 4 + 4 * self.s + k, 6) for k in range(4) for p in PRESETS[1:])
        return [_write(train, workdir / "train.csv")], _write(test, workdir / "test.csv")

    def config(self, train, test, outdir, grid=None):
        return cli.ExperimentConfig(
            train_sources=train, test_source=test, model="svm", seed=self.s,
            grid_resolution=grid, outdir=str(outdir))

    def check_values(self, artifacts, digests):
        problems = []
        ref = self.reference
        acc = _accuracy(artifacts)
        if abs(acc - ref["accuracy"]) > RBF_ACC_TOL:
            problems.append(f"accuracy {acc!r} not within {RBF_ACC_TOL} of {ref['accuracy']!r}")
        got = _dual_objectives(artifacts["model"])
        if [c for _, c in got] != ref["converged"]:
            problems.append(f"converged flags {[c for _, c in got]} != {ref['converged']}")
        for k, ((obj, _), want) in enumerate(zip(got, ref["dual_objective"])):
            if abs(obj - want) > RBF_DUAL_RTOL * abs(want):
                problems.append(f"binary model {k}: dual objective {obj!r} not within "
                                f"{RBF_DUAL_RTOL:g} relative of {want!r}")
        if len(got) != len(ref["dual_objective"]):
            problems.append(f"{len(got)} binary models, reference has "
                            f"{len(ref['dual_objective'])}")
        return problems

    def reference_values(self, result):
        _, artifacts = result
        got = _dual_objectives(artifacts["model"])
        return {"accuracy": _accuracy(artifacts),
                "dual_objective": [o for o, _ in got],
                "converged": [c for _, c in got]}


class ExactEpochs:
    """Closed loop, one client: a model trained on T0+T1 in set-up classifies
    successive 12-observation epochs, one ``predict`` call per epoch. The
    epochs come from presets at seeds drawn from the input set, none of
    which is the training seed."""

    name = "exact_epochs"
    min_ops = 100

    def __init__(self, s: int, reference: dict):
        self.s = s
        self.reference = reference
        self.labels_seen = []  # (epoch index, labels) per operation
        self.next_epoch = 0

    def prepare(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        t0, t1 = (data.generate_synthetic(p, TRAIN_SEED) for p in PRESETS[:2])
        train = [_write(t0, workdir / "t0.csv"), _write(t1, workdir / "t1.csv")]
        cfg = cli.ExperimentConfig(train_sources=train, test_source=train[1],
                                   model="qsvm", kernel="exact", seed=self.s,
                                   outdir=str(workdir / "train"))
        _, artifacts = cli.run_experiment(cfg)
        self.model, self.scaler = svm.load_model(artifacts["model"])

        base = N_INPUT_SETS + EPOCH_POOL_SEEDS * self.s
        pool = _pool(data.generate_synthetic(p, base + k)
                     for k in range(EPOCH_POOL_SEEDS) for p in PRESETS)
        order = np.random.default_rng([self.s, 7]).permutation(len(pool))
        pool = data.Dataset(samples=[pool.samples[i] for i in order])
        epochs = data.load_csv(_write(pool, workdir / "epochs.csv"))
        self.points = epochs.features()
        self.truth = epochs.labels()
        self.n_epochs = len(self.points) // EPOCH_SIZE

    def _epoch(self, k: int) -> np.ndarray:
        return self.points[k * EPOCH_SIZE:(k + 1) * EPOCH_SIZE]

    def warm_up(self) -> None:
        svm.predict(self.model, data.apply_scaler(self.scaler, self._epoch(0)))

    def op(self):
        k = self.next_epoch
        self.next_epoch = (k + 1) % self.n_epochs
        return k, svm.predict(self.model, data.apply_scaler(self.scaler, self._epoch(k)))

    def check(self, result) -> list[str]:
        self.labels_seen.append(result)
        return []  # judged in finish(), against one bulk prediction

    def _bulk(self) -> list:
        n = self.n_epochs * EPOCH_SIZE
        return svm.predict(self.model, data.apply_scaler(self.scaler, self.points[:n]))

    def finish(self) -> int:
        """Number of operations whose labels are wrong."""
        bulk = self._bulk()
        if self._bulk_accuracy(bulk) != self.reference["accuracy"]:
            return len(self.labels_seen)
        return sum(labels != bulk[k * EPOCH_SIZE:(k + 1) * EPOCH_SIZE]
                   for k, labels in self.labels_seen)

    def _bulk_accuracy(self, bulk) -> float:
        return sum(p == t for p, t in zip(bulk, self.truth)) / len(bulk)

    def reference_values(self, result=None):
        return {"accuracy": self._bulk_accuracy(self._bulk())}


WORKLOADS = {w.name: w for w in (ExactGrid, SampledPhase1, RbfPool, ExactEpochs)}


def load_reference(path: Path, workload: str, s: int) -> dict:
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    return table[workload][str(s)]
