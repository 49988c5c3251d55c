"""Span recording around the public functions of each qvilab layer.

While :func:`traced` is active, the module and class attributes the program
looks up at call time are replaced by wrappers that record one span per call
(name, start, end, parent span), and the provider classes are replaced by
subclasses whose estimator methods are wrapped the same way.  Nothing inside
``src/`` changes.  Spans are kept in flat arrays in memory and written out once
by :meth:`Tracer.save`.
"""
from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

import qvilab.emulation
import qvilab.harness
import qvilab.instances
import qvilab.mdp
import qvilab.providers
import qvilab.qvi
from qvilab.ledger import QueryLedger
from qvilab.mdp import FiniteHorizonMdp

ALGOS = ("qvi1", "qvi2", "qvi3", "qvi4", "qvi5")
PROVIDER_METHODS = ("qms", "mean_bounded", "mean_with_variance_bound", "mean_binary")

# (namespace, attribute, span name).  A function imported by name into
# another module is patched under both bindings.
_TARGETS = (
    [(qvilab.qvi.ALGORITHMS, algo, f"qvi.{algo}") for algo in ALGOS]
    + [(qvilab.emulation, f"{fn}_emulated", f"emulation.{fn}")
       for fn in ("qms", "qme1", "qme2", "qmebo")]
    + [
        (QueryLedger, "charge", "ledger.charge"),
        (qvilab.providers, "qmebo_exact", "statevector.qmebo_exact"),
        (qvilab.mdp, "exact_value_iteration", "mdp.exact_value_iteration"),
        (qvilab.harness, "exact_value_iteration", "mdp.exact_value_iteration"),
        (qvilab.mdp, "policy_value", "mdp.policy_value"),
        (qvilab.harness, "policy_value", "mdp.policy_value"),
        (FiniteHorizonMdp, "to_json", "mdp.to_json"),
        (FiniteHorizonMdp, "from_json", "mdp.from_json"),
        (qvilab.instances, "random_mdp", "instances.random_mdp"),
        (qvilab.harness, "random_mdp", "instances.random_mdp"),
        (qvilab.harness, "run_experiment", "harness.run_experiment"),
        (qvilab.harness, "write_csv", "harness.write_csv"),
    ]
)

# Bindings through which the program and the benchmark construct providers.
_PROVIDER_BINDINGS = (
    (qvilab.providers, "EmulatedProvider"),
    (qvilab.providers, "StatevectorProvider"),
    (qvilab.harness, "EmulatedProvider"),
)


def _get(namespace, key):
    return (namespace if isinstance(namespace, dict) else vars(namespace)).get(key)


def _set(namespace, key, value):
    if isinstance(namespace, dict):
        namespace[key] = value
    else:
        setattr(namespace, key, value)


class Tracer:
    """In-memory span store; span ``i`` has parent ``parent[i]`` (-1 for a root)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_index(name)
        name_ids, parents, starts, ends, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return traced_call

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))


@contextmanager
def traced(tracer: Tracer):
    """Record spans for every call into the wrapped layers inside the block."""
    saved = []
    try:
        for namespace, key, name in _TARGETS:
            original = _get(namespace, key)
            if original is None:  # a layer the program no longer has reads 0
                continue
            saved.append((namespace, key, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(name, original.__func__))
            else:
                wrapped = tracer.wrap(name, original)
            _set(namespace, key, wrapped)
        for namespace, key in _PROVIDER_BINDINGS:
            base = _get(namespace, key)
            if base is None:
                continue
            saved.append((namespace, key, base))
            methods = {m: tracer.wrap(f"providers.{m}", getattr(base, m))
                       for m in PROVIDER_METHODS if hasattr(base, m)}
            _set(namespace, key, type(f"Traced{base.__name__}", (base,), methods))
        yield tracer
    finally:
        for namespace, key, original in reversed(saved):
            _set(namespace, key, original)


def _inherit(own: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Give each span the label of its nearest labelled ancestor-or-self (-1 if none)."""
    label = own.copy()
    while True:
        missing = (label < 0) & (parent >= 0)
        updated = label.copy()
        updated[missing] = label[parent[missing]]
        if np.array_equal(updated, label):
            return label
        label = updated


def layer_metrics(tracer: Tracer, first: int, sizes: int = 0) -> dict[str, float]:
    """Per-layer totals over the spans from ``first`` on (one operation's spans).

    ``sizes`` is the number of distinct (S, A, H) of the sweep the operation
    runs, 0 for an operation that runs no sweep.
    """
    names = np.array(tracer.names)
    nid = np.asarray(tracer.name_id)[first:]
    parent = np.asarray(tracer.parent)[first:] - first
    parent[parent < 0] = -1
    dur = np.asarray(tracer.end)[first:] - np.asarray(tracer.start)[first:]
    has_parent = parent >= 0
    own_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    span_name = names[nid]
    layer = np.array([n.split(".")[0] for n in names])[nid]
    algo_of_name = np.array([ALGOS.index(n[4:]) if n.startswith("qvi.") else -1 for n in names])
    algo = _inherit(algo_of_name[nid], parent)

    out: dict[str, float] = {}
    for k, name in enumerate(ALGOS):
        mine = algo == k
        out[f"qvi.{name}.self_s"] = float(own_time[span_name == f"qvi.{name}"].sum())
        for lay, count in (("providers", "calls"), ("emulation", None), ("ledger", "charges")):
            sel = mine & (layer == lay)
            out[f"{lay}.{name}.s"] = float(dur[sel].sum())
            if count:
                out[f"{lay}.{name}.{count}"] = float(sel.sum())
    for name in ("statevector.qmebo_exact", "mdp.exact_value_iteration", "mdp.policy_value",
                 "instances.random_mdp"):
        sel = span_name == name
        out[f"{name}.calls"] = float(sel.sum())
        out[f"{name}.s"] = float(dur[sel].sum())
    for name in ("mdp.to_json", "mdp.from_json", "harness.write_csv"):
        out[f"{name}.s"] = float(dur[span_name == name].sum())
    is_harness = span_name == "harness.run_experiment"
    out["harness.self_s"] = float(own_time[is_harness].sum())
    under_harness = _inherit(np.where(is_harness, 0, -1), parent) == 0
    generated = (under_harness & (span_name == "instances.random_mdp")).sum()
    out["instances.random_mdp.calls_per_size"] = float(generated / sizes) if sizes else 0.0
    return out
