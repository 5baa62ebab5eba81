"""In-memory span recording around the calls into each wavegs layer.

Spans are recorded only from the benchmark's side of the API: an
``EnergyContext`` subclass times the transform and potential methods the
solver calls, and wrappers are installed on the module attributes that the
library's callers look up at call time (``saddle.inner_maximize``,
``energy._accel.quasipoly_f`` and so on).  Nothing inside ``src/`` changes.

Each span is a (name, start, end, parent) row in flat arrays; nesting follows
the call stack, since a traced run is single-threaded.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

ROOT = "op"


class Tracer:
    """Append-only span store with an explicit call stack."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def arrays(self):
        """(names, name_id, parent, start, end) as numpy arrays."""
        return (
            list(self.names),
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path) -> None:
        names, nid, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(names), name_id=nid, parent=parent,
                            start=start, end=end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def nesting_violations(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> int:
    """Number of spans that do not lie inside their parent's interval."""
    kids = np.flatnonzero(parent >= 0)
    p = parent[kids]
    bad = (start[kids] < start[p]) | (end[kids] > end[p]) | (end[kids] < start[kids])
    return int(np.count_nonzero(bad))


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive and self seconds; plus root coverage."""
    names, nid, parent, start, end = tracer.arrays()
    dur = end - start
    own = self_times(parent, start, end)
    by_name = {}
    for i, name in enumerate(names):
        sel = nid == i
        by_name[name] = {
            "calls": int(np.count_nonzero(sel)),
            "total_s": float(dur[sel].sum()),
            "self_s": float(own[sel].sum()),
        }
    root_id = names.index(ROOT) if ROOT in names else -1
    roots = nid == root_id
    root_time = float(dur[roots].sum())
    covered = root_time - float(own[roots].sum())
    return {
        "by_name": by_name,
        "spans": int(len(start)),
        "coverage": covered / root_time if root_time > 0 else 0.0,
        "nesting_violations": nesting_violations(parent, start, end),
    }


def traced_context_class(base, tracer: Tracer):
    """``base`` (EnergyContext) with its per-evaluation methods timed."""

    # explicit open/close rather than ``with tracer.span``: these methods run
    # about 100,000 times per circle-beam solve, and the generator-based
    # context manager would add to the tracing overhead
    class TracedEnergyContext(base):
        def synth(self, coeffs):
            idx = tracer.open("fields.synth")
            try:
                return super().synth(coeffs)
            finally:
                tracer.close(idx)

        def analyze_values(self, values):
            idx = tracer.open("fields.analyze")
            try:
                return super().analyze_values(values)
            finally:
                tracer.close(idx)

        def nonlinear_coeffs(self, values):
            idx = tracer.open("fields.analyze")
            try:
                return super().nonlinear_coeffs(values)
            finally:
                tracer.close(idx)

        def potential_from_values(self, values):
            idx = tracer.open("energy.potential")
            try:
                return super().potential_from_values(values)
            finally:
                tracer.close(idx)

    return TracedEnergyContext


# (module, attribute, span name): the attribute each caller looks up at call time
_PLAIN_HOOKS = (
    ("wavegs.saddle", "psi_gradient", "saddle.psi_gradient"),
    ("wavegs.saddle", "kernel_gram", "control.kernel_gram"),
    ("wavegs.control", "kernel_gram", "control.kernel_gram"),
    ("wavegs.control", "basis_rows", "fields.basis_rows"),
    ("wavegs.fields", "basis_rows", "fields.basis_rows"),
    ("wavegs.control", "slice_profiles", "control.slice_profiles"),
    ("wavegs.control", "xi_eta_infimum", "control.xi_eta_infimum"),
    ("wavegs.control", "dalembert_split", "control.dalembert_split"),
    ("wavegs.energy", "quadrature_refinement_gap", "energy.qgap"),
    ("wavegs.embedding", "torus_gap_series", "embedding.torus_gap_series"),
    ("wavegs.embedding", "sphere_embedding_series", "embedding.sphere_embedding_series"),
    ("wavegs.embedding", "gap_ratio_bracket", "embedding.gap_ratio_bracket"),
    ("wavegs.catalog", "build_catalog", "catalog.build_catalog"),
    ("wavegs._accel", "quasipoly_f", "accel.pointwise"),
    ("wavegs._accel", "quasipoly_prim", "accel.pointwise"),
    ("wavegs._accel", "torus_l_sums", "accel.scan"),
    ("wavegs._accel", "sphere_series_inner", "accel.scan"),
    ("wavegs._accel", "gap_ratio_scan", "accel.scan"),
    ("wavegs._accel", "char_slice_counts", "accel.scan"),
)


class Instrumentation:
    """Installs the wrappers on import and restores the originals on ``remove``."""

    def __init__(self, tracer: Tracer):
        import importlib

        self.tracer = tracer
        self._saved = []
        for mod_name, attr, span in _PLAIN_HOOKS:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, tracer.wrap(span, getattr(mod, attr)))
        saddle = importlib.import_module("wavegs.saddle")
        self._patch(saddle, "inner_maximize", self._inner(saddle.inner_maximize))

    def _patch(self, mod, attr, new):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def _inner(self, fn):
        tracer = self.tracer

        def inner_maximize(w, ctx, cfg, kernel_basis=None, warm=None):
            tracer.count("saddle.inner_cold" if warm is None else "saddle.outer_trials")
            idx = tracer.open("saddle.inner_maximize")
            try:
                res = fn(w, ctx, cfg, kernel_basis, warm)
            finally:
                tracer.close(idx)
            tracer.count("saddle.inner_iters", res.iterations)
            return res

        return inner_maximize

    def remove(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
