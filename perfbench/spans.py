"""In-memory span tracer for the traced run, and the per-layer metrics
derived from its spans.

The tracer wraps every public callable of the seven layer modules: each
module-level function and each public method of a class, that the module
itself defines. ``cli``, ``svm`` and ``kernels`` bind names with
``from .x import y``, so a wrapper is installed at every call site: each
attribute of each ``gnss_qsvm`` module that refers to a wrapped original is
rebound. Callers outside the package must look names up through the module
(``cli.run_experiment``) for their calls to be traced. Which function calls
which can change between commits; the trace stays valid as long as the layers
keep calling each other through public names.

A span records its name, start, end and parent span. Spans stay in memory
in compact arrays and are written out by ``save``. A layer's self time is
the sum over its spans of duration minus the spans' direct children.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "data", "feature_map", "sim", "kernels", "svm", "evaluate")
PACKAGE = "gnss_qsvm"
JSON_FUNCS = ("svm.save_model", "svm.load_model", "svm.model_to_dict", "svm.model_from_dict")


def _public_callables(module):
    """(qualified name, owner, attribute, function) for the module's own
    public functions and public methods of its own classes."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{layer}.{name}.{attr}", obj, attr, fn


class Tracer:
    def __init__(self):
        self.names = []  # span name id -> qualified name
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = {}  # per-op counters, reset by begin_op
        self._sites = []  # (owner, attribute, original, wrapper)

    # -- installation ----------------------------------------------------

    def _build(self):
        """Wrap every public callable once and find all of its call sites."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for qualname, owner, attr, fn in _public_callables(module):
                wrappers[id(fn)] = self._wrap(qualname, fn)
                if owner is not module:  # class methods; functions come below
                    self._sites.append((owner, attr, fn, wrappers[id(fn)]))
        for name, module in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        self._sites.append((module, attr, value, wrappers[id(value)]))

    def install(self):
        if not self._sites:
            self._build()
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        count = _COUNTERS.get(qualname)
        if count is None and qualname.startswith("feature_map."):
            count = _count_states
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(self, idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- counting --------------------------------------------------------

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def layer_of(self, idx):
        if idx < 0:
            return None
        return self.names[self.name_id[idx]].split(".", 1)[0]

    # -- per-operation metrics -------------------------------------------

    def begin_op(self) -> int:
        self.counts = {}
        return len(self.start)

    def op_metrics(self, first: int) -> dict:
        """Per-layer metrics of the spans recorded since ``begin_op``."""
        names = np.frombuffer(self.name_id, dtype=np.int32)[first:]
        parents = np.frombuffer(self.parent, dtype=np.int32)[first:] - first
        dur = (np.frombuffer(self.end)[first:] - np.frombuffer(self.start)[first:])
        child = np.zeros(len(dur))
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_time = dur - child
        layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0]) for n in self.names])
        per_layer = np.bincount(layer_of_name[names], weights=self_time,
                                minlength=len(LAYERS))
        out = {f"{name}.self_s": float(per_layer[i]) for i, name in enumerate(LAYERS)}

        is_json = np.isin(names, [i for i, n in enumerate(self.names) if n in JSON_FUNCS])
        parent_json = np.zeros(len(names), dtype=bool)
        parent_json[nested] = is_json[parents[nested]]
        out["svm.json_s"] = float(dur[is_json & ~parent_json].sum())
        out["svm.smo_s"] = float(dur[names == self.names.index("svm.solve_binary_smo")].sum())

        c = self.counts
        for key in ("data.rows_loaded", "feature_map.states", "sim.gates", "sim.shots",
                    "kernels.gram_entries", "kernels.sampled_entries",
                    "svm.support_vectors", "evaluate.grid_cells"):
            out[key] = c.get(key, 0)
        cols = c.get("rectangular_columns", 0)
        out["kernels.sv_column_ratio"] = c.get("sv_columns", 0) / cols if cols else 0.0
        out["trace.spans"] = len(dur)
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


# -- counters: closed-form quantities read from call arguments and results --

def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_rows_loaded(t, idx, args, kwargs, result):
    t.add("data.rows_loaded", len(result))


def _count_states(t, idx, args, kwargs, result):
    # Every feature_map callable: count the states it returns (a
    # QuantumState, or a batch of amplitude rows), once per outermost
    # feature_map call.
    if t.layer_of(t.parent[idx]) == "feature_map":
        return
    amps = getattr(result, "amplitudes", result)
    if isinstance(amps, np.ndarray) and np.iscomplexobj(amps):
        t.add("feature_map.states", 1 if amps.ndim == 1 else amps.shape[0])


def _count_gates(t, idx, args, kwargs, result):
    t.add("sim.gates", len(_arg(args, kwargs, 0, "circuit").gates))


def _count_one_gate(t, idx, args, kwargs, result):
    t.add("sim.gates", 1)


def _count_gram(t, idx, args, kwargs, result, cfg_pos):
    entries = (result.rows * (result.rows - 1) // 2 if result.symmetric
               else result.rows * result.cols)
    t.add("kernels.gram_entries", entries)
    cfg = _arg(args, kwargs, cfg_pos, "cfg")
    if cfg.mode == "fidelity_sampled":
        t.add("kernels.sampled_entries", entries)
        t.add("sim.shots", entries * cfg.shots)
    if not result.symmetric:
        t.add("rectangular_columns", result.cols)


def _count_support_vectors(t, idx, args, kwargs, result):
    t.add("svm.support_vectors", int(np.count_nonzero(result.alpha > 0)))


def _count_predict_svs(t, idx, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    used = set()
    for bm in model.binary_models:
        used.update(np.asarray(bm.training_indices)[np.asarray(bm.alpha) > 0].tolist())
    t.add("sv_columns", len(used))


def _count_grid(t, idx, args, kwargs, result):
    t.add("evaluate.grid_cells", int(_arg(args, kwargs, 2, "resolution")) ** 2)


_COUNTERS = {
    "data.load_csv": _count_rows_loaded,
    "sim.run_circuit": _count_gates,
    "sim.apply_gate": _count_one_gate,
    "kernels.gram_symmetric": lambda *a: _count_gram(*a, cfg_pos=1),
    "kernels.gram_rectangular": lambda *a: _count_gram(*a, cfg_pos=2),
    "svm.solve_binary_smo": _count_support_vectors,
    "svm.predict": _count_predict_svs,
    "evaluate.boundary_grid": _count_grid,
}
