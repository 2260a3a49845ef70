"""Discrete dual solver: temperature-annealed log-marginal averaging with a
zero-temperature max-marginal polish, estimate extraction, gap detection.

The Lagrange multipliers are never materialized; every sweep mutates the
split tables inside the consistency subspace (class deltas sum to zero),
which is exactly a move in the multipliers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .decomposition import (
    DecompositionConfig,
    DiscreteAugmented,
    build_augmented,
    ensure_singletons,
    project_assignment,
    replica_classes,
)
from .inference import TIE_TOL, SubgraphEngine, build_engines
from .models import LABELS, DiscreteFactorModel, monomial_table, evaluate_objective
from .report import Report, json_safe

# The solve stops once the dual g is within GAP_TOL * (1 + |g|) of the best
# decoded objective.
GAP_TOL = 1e-6


@dataclass
class TemperatureSchedule:
    """Geometric temperature ladder with per-temperature sweep control.

    Intermediate ladder steps only need to track the smooth optimum to
    within the smoothing error, so their sweep loop stops at
    max(inner_tol, anneal_tol_scale * tau); the final steps and the
    zero-temperature polish run to inner_tol. Set anneal_tol_scale to 0 to
    force every step down to inner_tol.
    """

    tau0: float = 1.0
    decay: float = 0.5
    tau_min: float = 1e-3
    inner_tol: float = 1e-6
    max_sweeps_per_tau: int = 200
    anneal_tol_scale: float = 1e-2

    def __post_init__(self):
        if not (self.tau0 > self.tau_min > 0):
            raise ValueError("need tau0 > tau_min > 0")
        if not (0 < self.decay < 1):
            raise ValueError("decay must be in (0, 1)")
        if self.max_sweeps_per_tau < 1:
            raise ValueError("max_sweeps_per_tau must be at least 1")

    def ladder(self):
        tau = self.tau0
        while tau >= self.tau_min * (1 - 1e-12):
            yield tau
            tau *= self.decay

    def tol_at(self, tau: float) -> float:
        return max(self.inner_tol, self.anneal_tol_scale * tau)


@dataclass
class TraceEntry:
    sweep: int
    tau: float
    g_smooth: float
    g: float
    best_primal: float
    max_residual: float
    wall_ms: float


@dataclass
class SolveReport(Report):
    """Result of `solve_discrete`.

    `estimate` is the decoded labelling whose objective is `best_primal`.
    `stop_reason` says what ended the last sweep loop, one of
    `report.STOP_REASONS`: the duality certificate, the polish residual
    reaching the schedule's inner tolerance, the polish's sweep cap, or a
    non-finite residual or dual value.
    """

    dual_trace: list[TraceEntry]
    final_dual: float
    best_primal: float
    gap_flag: bool
    estimate: np.ndarray
    tie_nodes: list[int]
    node_tables: np.ndarray
    strategy: str
    stop_reason: str
    notes: list[str] = field(default_factory=list)
    wall_ms: float = 0.0
    converged: bool = True

    ENTRY = TraceEntry

    def to_dict(self) -> dict:
        gap = self.final_dual - self.best_primal
        return {**super().to_dict(), "gap": json_safe(gap), "tie_nodes": sorted(self.tie_nodes)}


@dataclass
class ClassSpec:
    oid: int
    edge: tuple[int, ...]
    rids: list[int]
    groups: list[list[int]]


@dataclass
class EstimateResult:
    estimate: np.ndarray  # the candidate decode that attains best_primal
    tie_nodes: set[int]
    best_primal: float
    node_tables: np.ndarray


class DiscreteRelaxation:
    """Operational state: augmented tables plus one engine per component."""

    def __init__(self, aug: DiscreteAugmented):
        self.aug = aug
        self.rmap = aug.rmap
        self.engines: list[SubgraphEngine] = build_engines(aug)
        self.engine_of_rid: dict[int, SubgraphEngine] = {}
        for eng in self.engines:
            for rid in eng.tables:
                self.engine_of_rid[rid] = eng
        self.classes = self._make_classes()

    def _make_classes(self) -> list[ClassSpec]:
        return [
            ClassSpec(oid, self.rmap.orig_edges[oid], rids, groups)
            for oid, rids, groups in replica_classes(self.rmap)
        ]

    # -- dual evaluations ----------------------------------------------------

    def dual_value(self) -> float:
        return float(sum(eng.component_max() for eng in self.engines))

    def smooth_dual_value(self, tau: float) -> float:
        return float(sum(eng.log_partition(tau) for eng in self.engines))

    # -- sweeps ---------------------------------------------------------------

    def _class_tables(self, rids, tau: float | None):
        if tau is None:
            out = {}
            for rid in rids:
                t = self.engine_of_rid[rid].max_marginal(rid)
                out[rid] = t - np.max(t)
            return out
        return {
            rid: tau * self.engine_of_rid[rid].log_marginal(rid, tau) for rid in rids
        }

    def _sweep(self, tau: float | None) -> float:
        resids = []
        for cls in self.classes:
            tabs = self._class_tables(cls.rids, tau)
            fbar = sum(tabs.values()) / len(cls.rids)
            resids += [np.max(np.abs(tabs[r] - fbar)) for r in cls.rids]
            if len(cls.groups) == 1:
                for rid in cls.rids:
                    self.engine_of_rid[rid].add_to_table(rid, fbar - tabs[rid])
            else:
                for group in cls.groups:
                    gtabs = self._class_tables(group, tau)
                    gbar = sum(gtabs.values()) / len(group)
                    for rid in group:
                        self.engine_of_rid[rid].add_to_table(rid, gbar - gtabs[rid])
        return float(np.max(resids, initial=0.0))

    def sweep_log_marginal_averaging(self, tau: float) -> float:
        """One class-ordered pass of tempered marginal matching.

        Returns the largest pre-update disagreement max|f_hat - f_bar|,
        NaN when any table is NaN.
        """
        return self._sweep(tau)

    def sweep_max_marginal_averaging(self) -> float:
        """Zero-temperature variant on max-normalized max-marginal tables."""
        return self._sweep(None)

    # -- gradient --------------------------------------------------------------

    def gradient_pairs(self):
        pairs = []
        for cls in self.classes:
            for a, b in zip(cls.rids, cls.rids[1:]):
                pairs.append((cls.oid, a, b))
        return pairs

    def dual_gradient(self, tau: float) -> np.ndarray:
        """d g(.;tau) / d lambda for the consecutive-replica pairing.

        Entry for pair (A, B) is E[phi_A] - E[phi_B] under the tempered
        component marginals.
        """
        grad = []
        for _, a, b in self.gradient_pairs():
            grad.append(self._feature_expectation(a, tau) - self._feature_expectation(b, tau))
        return np.array(grad)

    def _feature_expectation(self, rid: int, tau: float) -> float:
        logp = self.engine_of_rid[rid].log_marginal(rid, tau)
        sign = monomial_table(1.0, logp.ndim)
        return float(np.sum(np.exp(logp) * sign))

    def perturb_pair(self, rid_a: int, rid_b: int, delta: float) -> None:
        """Consistent multiplier move: +delta on A's feature, -delta on B's."""
        k = len(self.rmap.replica_edges[rid_a])
        t = monomial_table(delta, k)
        self.engine_of_rid[rid_a].add_to_table(rid_a, t)
        self.engine_of_rid[rid_b].add_to_table(rid_b, -t)

    # -- estimates -------------------------------------------------------------

    def resummed_node_tables(self) -> np.ndarray:
        n = self.rmap.n_orig
        tables = np.zeros((n, 2))
        comps = self.rmap.component_vertices()
        for eng, verts in zip(self.engines, comps):
            for loc, v_aug in enumerate(verts):
                t = eng.vertex_max_marginal(loc)
                tables[self.rmap.vertex_origin[v_aug]] += t - np.max(t)
        return tables

    def extract_estimate(self) -> EstimateResult:
        """The better of two decodes: the argmax of the re-summed
        max-marginals, and the component maximizers when they project to a
        consistent labelling (the first wins a tie). Ties and node tables
        come from the re-summed max-marginals."""
        tables = self.resummed_node_tables()
        ties = {
            int(v)
            for v in range(tables.shape[0])
            if abs(tables[v, 0] - tables[v, 1]) < TIE_TOL
        }
        candidates = [LABELS[np.argmax(tables, axis=1)]]
        x_aug = np.zeros(self.rmap.n_aug)
        comps = self.rmap.component_vertices()
        for eng, verts in zip(self.engines, comps):
            x_aug[verts] = eng.map_assignment()
        projected, _ = project_assignment(x_aug, self.rmap)
        if projected is not None:
            candidates.append(projected)
        values = [evaluate_objective(self.aug.base, c) for c in candidates]
        k = values.index(max(values))
        return EstimateResult(candidates[k], ties, values[k], tables)


def build_relaxation(
    model: DiscreteFactorModel, config: DecompositionConfig | str | None = None, **kwargs
) -> DiscreteRelaxation:
    aug = build_augmented(ensure_singletons(model), config or "spanning-trees", **kwargs)
    return DiscreteRelaxation(aug)


def solve_discrete(
    model: DiscreteFactorModel,
    strategy: DecompositionConfig | str = "spanning-trees",
    schedule: TemperatureSchedule | None = None,
    **kwargs,
) -> SolveReport:
    """Anneal the smooth dual, polish at zero temperature, extract an estimate.

    Runs log-marginal averaging sweeps down the temperature ladder until the
    class residual drops below the schedule's tolerance at each step, then
    max-marginal averaging sweeps. Every sweep decodes an estimate and
    evaluates the dual. The solve stops at the first sweep whose dual g is
    within GAP_TOL * (1 + |g|) of the best decoded objective: that estimate
    is then a proven MAP and the dual is optimal to within the same
    tolerance. It also stops at once on a non-finite residual or dual.
    Reports the dual trace, the best estimate with the final ties, a
    duality-gap flag and the stop reason.
    """
    schedule = schedule or TemperatureSchedule()
    relax = build_relaxation(model, strategy, **kwargs)
    strategy_name = strategy if isinstance(strategy, str) else strategy.strategy

    def stop_after(resid: float, g: float, primal: float, tol: float) -> str | None:
        if not (math.isfinite(resid) and math.isfinite(g)):
            return "non_finite"
        # Written so that a NaN primal counts as a gap.
        if g - primal <= GAP_TOL * (1 + abs(g)):
            return "certified"
        return "residual" if resid < tol else None

    t0 = time.perf_counter()
    trace: list[TraceEntry] = []
    best = None  # the decode with the highest objective so far
    steps = [(tau, schedule.tol_at(tau)) for tau in schedule.ladder()]
    steps.append((0.0, schedule.inner_tol))
    capped = False
    for tau, tol in steps:
        for _ in range(schedule.max_sweeps_per_tau):
            if tau > 0:
                resid = relax.sweep_log_marginal_averaging(tau)
            else:
                resid = relax.sweep_max_marginal_averaging()
            est = relax.extract_estimate()
            if best is None or est.best_primal > best.best_primal:
                best = est
            g = relax.dual_value()
            trace.append(
                TraceEntry(
                    sweep=len(trace) + 1,
                    tau=tau,
                    g_smooth=relax.smooth_dual_value(tau) if tau > 0 else g,
                    g=g,
                    best_primal=best.best_primal,
                    max_residual=resid,
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                )
            )
            stop_reason = stop_after(resid, g, best.best_primal, tol)
            if stop_reason:
                break
        else:
            stop_reason = "sweep_cap"
            capped = True
        if stop_reason in ("certified", "non_finite"):
            break

    # The certificate is tested after every sweep, so a solve that did not
    # stop on it ends with a gap.
    gap_flag = stop_reason != "certified"
    converged = stop_reason == "certified" or (stop_reason == "residual" and not capped)
    messages = sum(eng.messages_computed for eng in relax.engines)
    notes = list(relax.rmap.notes) + [f"messages computed: {messages}"]
    return SolveReport(
        dual_trace=trace,
        final_dual=trace[-1].g,
        best_primal=best.best_primal,
        gap_flag=gap_flag,
        estimate=best.estimate,
        tie_nodes=sorted(est.tie_nodes),
        node_tables=est.node_tables,
        strategy=strategy_name,
        stop_reason=stop_reason,
        notes=notes,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        converged=converged,
    )
