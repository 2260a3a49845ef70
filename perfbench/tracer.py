"""Per-layer tracing of lagrelax from outside the package.

``LayerTrace.install`` wraps the public functions and methods listed in
TARGETS. A function is rebound on every ``lagrelax`` module attribute that
refers to it, so calls made inside the package are traced too; a method is
replaced on its class. Each call records a span (name, start, end, parent)
in flat in-memory arrays, written out by ``dump`` at the end of the run.
A layer's self time is the duration of its spans minus the spans of their
children. A target that no longer exists is recorded as absent, and the
metrics that depend only on absent targets are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute or Class.method)
TARGETS = {
    "decomposition.build_decomposition": ("lagrelax.decomposition", "build_decomposition"),
    "decomposition.add_intermediaries": ("lagrelax.decomposition", "add_intermediaries"),
    "decomposition.split_potentials": ("lagrelax.decomposition", "split_potentials"),
    "decomposition.GaussianAugmented.consistency_residual": (
        "lagrelax.decomposition",
        "GaussianAugmented.consistency_residual",
    ),
    "inference.build_engines": ("lagrelax.inference", "build_engines"),
    "inference.SubgraphEngine.log_marginal": ("lagrelax.inference", "SubgraphEngine.log_marginal"),
    "inference.SubgraphEngine.max_marginal": ("lagrelax.inference", "SubgraphEngine.max_marginal"),
    "inference.SubgraphEngine.map_assignment": ("lagrelax.inference", "SubgraphEngine.map_assignment"),
    "inference.SubgraphEngine.vertex_max_marginal": (
        "lagrelax.inference",
        "SubgraphEngine.vertex_max_marginal",
    ),
    "inference.gaussian_marginal_info": ("lagrelax.inference", "gaussian_marginal_info"),
    "inference.gaussian_component_mean": ("lagrelax.inference", "gaussian_component_mean"),
    "inference.gaussian_component_value": ("lagrelax.inference", "gaussian_component_value"),
    "discrete.build_relaxation": ("lagrelax.discrete", "build_relaxation"),
    "discrete.DiscreteRelaxation.sweep_log_marginal_averaging": (
        "lagrelax.discrete",
        "DiscreteRelaxation.sweep_log_marginal_averaging",
    ),
    "discrete.DiscreteRelaxation.sweep_max_marginal_averaging": (
        "lagrelax.discrete",
        "DiscreteRelaxation.sweep_max_marginal_averaging",
    ),
    "discrete.DiscreteRelaxation.extract_estimate": ("lagrelax.discrete", "DiscreteRelaxation.extract_estimate"),
    "discrete.DiscreteRelaxation.dual_value": ("lagrelax.discrete", "DiscreteRelaxation.dual_value"),
    "discrete.DiscreteRelaxation.smooth_dual_value": ("lagrelax.discrete", "DiscreteRelaxation.smooth_dual_value"),
    "gaussian.build_gaussian_relaxation": ("lagrelax.gaussian", "build_gaussian_relaxation"),
    "gaussian.MomentMatcher.sweep": ("lagrelax.gaussian", "MomentMatcher.sweep"),
    "gaussian.MomentMatcher.factorization_ok": ("lagrelax.gaussian", "MomentMatcher.factorization_ok"),
    "gaussian.MomentMatcher.dual_value": ("lagrelax.gaussian", "MomentMatcher.dual_value"),
    "gaussian.GaussianRelaxation.dual_value": ("lagrelax.gaussian", "GaussianRelaxation.dual_value"),
    "gaussian.GaussianRelaxation.node_stats": ("lagrelax.gaussian", "GaussianRelaxation.node_stats"),
    "gaussian.GaussianRelaxation.node_variance_bounds": (
        "lagrelax.gaussian",
        "GaussianRelaxation.node_variance_bounds",
    ),
    "multiscale.build_multiscale": ("lagrelax.multiscale", "build_multiscale"),
    "multiscale.cross_scale_update": ("lagrelax.multiscale", "cross_scale_update"),
    "multiscale.fine_scale_means": ("lagrelax.multiscale", "fine_scale_means"),
}

# per-layer metric -> spans whose self time it sums
LAYER_TIMES = {
    "decomposition.build_s": [
        "decomposition.build_decomposition",
        "decomposition.add_intermediaries",
        "decomposition.split_potentials",
    ],
    "inference.engine_build_s": ["inference.build_engines"],
    "inference.marginal_s": ["inference.SubgraphEngine.log_marginal", "inference.SubgraphEngine.max_marginal"],
    "inference.decode_s": [
        "inference.SubgraphEngine.map_assignment",
        "inference.SubgraphEngine.vertex_max_marginal",
    ],
    "inference.schur_s": ["inference.gaussian_marginal_info"],
    "inference.component_solve_s": ["inference.gaussian_component_mean", "inference.gaussian_component_value"],
    "discrete.sweep_s": [
        "discrete.DiscreteRelaxation.sweep_log_marginal_averaging",
        "discrete.DiscreteRelaxation.sweep_max_marginal_averaging",
    ],
    "discrete.monitor_s": [
        "discrete.DiscreteRelaxation.extract_estimate",
        "discrete.DiscreteRelaxation.dual_value",
        "discrete.DiscreteRelaxation.smooth_dual_value",
    ],
    "gaussian.sweep_s": ["gaussian.MomentMatcher.sweep"],
    "gaussian.monitor_s": [
        "decomposition.GaussianAugmented.consistency_residual",
        "gaussian.MomentMatcher.factorization_ok",
        "gaussian.GaussianRelaxation.node_stats",
        "gaussian.GaussianRelaxation.dual_value",
        "gaussian.MomentMatcher.dual_value",
    ],
    "gaussian.bounds_s": ["gaussian.GaussianRelaxation.node_variance_bounds"],
    "multiscale.cross_scale_s": ["multiscale.cross_scale_update"],
    "multiscale.means_s": ["multiscale.fine_scale_means"],
}

# per-layer metric -> spans whose calls it counts
LAYER_CALLS = {
    "inference.marginal_calls": LAYER_TIMES["inference.marginal_s"],
    "inference.schur_calls": ["inference.gaussian_marginal_info"],
    "multiscale.cross_scale_calls": ["multiscale.cross_scale_update"],
}

BUILDERS = ("discrete.build_relaxation", "gaussian.build_gaussian_relaxation", "multiscale.build_multiscale")

CERTIFICATE_RTOL = 1e-6


class Tracer:
    """Flat span store: one entry per traced call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def wrap(self, fn, name: str, observe=None):
        """``fn`` recording a span per call; ``observe(args, result)`` runs after it."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        children = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(children, parent[inner], dur[inner])
        k = len(self.names)
        self_time = np.bincount(nid, weights=dur - children, minlength=k)
        calls = np.bincount(nid, minlength=k)
        return (
            {name: float(self_time[i]) for i, name in enumerate(self.names)},
            {name: int(calls[i]) for i, name in enumerate(self.names)},
        )

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "lagrelax" or name.startswith("lagrelax.")]


class LayerTrace:
    """Installs the tracer on lagrelax and turns its spans into layer metrics."""

    def __init__(self):
        self.tracer = Tracer()
        self.absent: set[str] = set()
        self.engines = []
        self.relaxations = []
        self.schur_wide_calls = 0
        self.reported = {
            "discrete.sweeps_to_certificate": 0,
            "discrete.certified_sweeps": 0,  # all sweeps of the solves that certified
            "gaussian.iterations": 0,
            "multiscale.iterations": 0,
        }
        self._restore: list[tuple[object, str, object]] = []
        inference = sys.modules.get("lagrelax.inference")
        self.dense_limit = getattr(inference, "DENSE_LIMIT", None)

    # -- installation -----------------------------------------------------

    def _observer(self, name: str):
        if name == "inference.build_engines":
            return lambda args, engines: self.engines.extend(engines)
        if name in BUILDERS:
            return lambda args, relax: self.relaxations.append(relax)
        if name == "inference.gaussian_marginal_info" and self.dense_limit is not None:
            return self._count_wide
        return None

    def _count_wide(self, args, result) -> None:
        if np.shape(args[0])[0] >= self.dense_limit:
            self.schur_wide_calls += 1

    def install(self) -> None:
        for name, (module_name, path) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if not callable(original):
                self.absent.add(name)
                continue
            wrapped = self.tracer.wrap(original, name, self._observer(name))
            for holder in [owner] if owner_name else _package_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    # -- metrics ----------------------------------------------------------

    def _structure_counts(self) -> dict[str, float]:
        components = replica_edges = classes = 0
        for relax in self.relaxations:
            scales = getattr(relax, "scales", None)
            parts = [(s.rmap, s.matcher.classes) for s in scales] if scales else [(relax.rmap, relax.classes)]
            for rmap, cls in parts:
                components += len(rmap.component_vertices())
                replica_edges += len(rmap.replica_edges)
                classes += len(cls)
        return {
            "decomposition.components": components,
            "decomposition.replica_edges": replica_edges,
            "decomposition.classes": classes,
        }

    def count_report(self, kind: str, report) -> None:
        """Add a solve report's work counts to the layer metrics."""
        if kind == "discrete":
            for entry in report.dual_trace:
                if entry.g - entry.best_primal <= CERTIFICATE_RTOL * (1 + abs(entry.g)):
                    self.reported["discrete.sweeps_to_certificate"] += entry.sweep
                    self.reported["discrete.certified_sweeps"] += len(report.dual_trace)
                    break
        else:
            self.reported[f"{kind}.iterations"] += report.iterations

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer values from the spans and the counted reports.

        Returns the values and the names of the metrics whose traced names
        are gone from the package.
        """
        self_time, calls = self.tracer.totals()
        out: dict[str, float] = {}
        absent: list[str] = []
        for metric, spans in LAYER_TIMES.items():
            out[metric] = sum(self_time.get(s, 0.0) for s in spans)
            if all(s in self.absent for s in spans):
                absent.append(metric)
        for metric, spans in LAYER_CALLS.items():
            out[metric] = sum(calls.get(s, 0) for s in spans)
            if all(s in self.absent for s in spans):
                absent.append(metric)

        structure = ["decomposition.components", "decomposition.replica_edges", "decomposition.classes"]
        try:
            out.update(self._structure_counts())
        except AttributeError:
            out.update(dict.fromkeys(structure, 0))
            absent += structure
        try:
            out["inference.messages"] = sum(e.messages_computed for e in self.engines)
        except AttributeError:
            out["inference.messages"] = 0
            absent.append("inference.messages")
        if "inference.build_engines" in self.absent:
            absent.append("inference.messages")
        out["inference.schur_wide_calls"] = self.schur_wide_calls
        if self.dense_limit is None or "inference.gaussian_marginal_info" in self.absent:
            absent.append("inference.schur_wide_calls")

        out.update(self.reported)
        swept = out.pop("discrete.certified_sweeps")
        out["discrete.certified_sweep_share"] = out["discrete.sweeps_to_certificate"] / swept if swept else 0.0
        return out, sorted(set(absent))
