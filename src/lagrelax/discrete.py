"""Discrete dual solver: temperature-annealed log-marginal averaging with a
zero-temperature max-marginal polish, estimate extraction, gap detection.

The Lagrange multipliers are never materialized; every sweep mutates the
split tables inside the consistency subspace (class deltas sum to zero),
which is exactly a move in the multipliers.

A sweep runs the replica classes by colour. Classes are coloured greedily,
first fit in `replica_classes` order: a colour holds classes of one arity
whose replicas share no component, so vertex colours run before edge
colours. Such class updates commute, so each colour is one array step: read
every replica's table, average per class by scatter-add, add the deltas
back. A hub class, whose replicas share a component, is a colour of its own
and updates one group at a time. Per-sweep monitoring (dual values, vertex
max-marginals, component maximizers) is one query per engine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .decomposition import (
    DecompositionConfig,
    DecompositionError,
    DiscreteAugmented,
    as_config,
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


class _Step:
    """Rid groups averaged in one array step.

    No two groups share a component, so reading every replica first and
    writing every delta after is the same as updating the groups one at a
    time. Replicas are read per (engine, slot) and stacked group by group,
    each group in rid order.
    """

    def __init__(self, engine_of_rid, groups: list[list[int]]):
        rids = [r for g in groups for r in g]
        self.index = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
        self.counts = np.array([[len(g)] for g in groups])
        by_slot: dict[tuple[int, int], tuple] = {}
        for pos, rid in enumerate(rids):
            eng = engine_of_rid[rid]
            slot, row = eng.where[rid]
            _, _, rows, where = by_slot.setdefault((id(eng), slot), (eng, slot, [], []))
            rows.append(row)
            where.append(pos)
        self.reads = [(eng, slot, np.array(rows), np.array(pos)) for eng, slot, rows, pos in by_slot.values()]
        eng, slot = self.reads[0][:2]
        self.shape = (2,) * len(eng.edges[slot])  # of one table

    def average(self, tau: float | None, write: bool):
        """Average each group's tempered log-marginals (max-marginals when
        tau is None), adding the deltas when `write`. Returns the largest
        pre-update disagreement max|f_hat - f_bar|, NaN when any is NaN."""
        vals = np.empty((len(self.index), 2 ** len(self.shape)))
        for eng, slot, rows, pos in self.reads:
            t = eng.max_marginal(slot) if tau is None else eng.log_marginal(slot, tau)
            vals[pos] = t[rows].reshape(len(rows), -1)
        if tau is None:
            vals -= vals.max(axis=1, keepdims=True)
        else:
            vals *= tau
        sums = np.zeros((len(self.counts), vals.shape[1]))
        np.add.at(sums, self.index, vals)
        delta = (sums / self.counts)[self.index] - vals
        if write:
            for eng, slot, rows, pos in self.reads:
                eng.add_to_slot(slot, rows, delta[pos].reshape((len(rows), *self.shape)))
        return np.max(np.abs(delta))


@dataclass
class Colour:
    """Classes of one arity whose replicas share no component, updated in
    one step. A hub class (several update groups) is a colour of its own:
    `step` then only measures its residual, and `hub_groups` update it one
    group after another."""

    classes: list[ClassSpec]
    step: _Step
    hub_groups: list[_Step]


class DiscreteRelaxation:
    """Operational state: augmented tables plus one engine per component
    layout."""

    def __init__(self, aug: DiscreteAugmented):
        self.aug = aug
        self.rmap = aug.rmap
        self.engines: list[SubgraphEngine] = build_engines(aug)
        self.engine_of_rid: dict[int, SubgraphEngine] = {}
        for eng in self.engines:
            for rid in eng.where:
                self.engine_of_rid[rid] = eng
        self.classes = [
            ClassSpec(oid, self.rmap.orig_edges[oid], rids, groups)
            for oid, rids, groups in replica_classes(self.rmap)
        ]
        self.colours = self._colour_classes()
        # component-then-vertex order of the augmented vertices
        self._vertex_order = np.concatenate(self.rmap.component_vertices())

    def _colour_classes(self) -> list[Colour]:
        """Greedy first-fit colouring in class order; hub classes alone."""
        comp = self.rmap.replica_component
        members: list[tuple[list[ClassSpec], set[int] | None]] = []
        for cls in self.classes:
            comps = {comp(r) for r in cls.rids}
            if len(cls.groups) > 1:
                members.append(([cls], None))
                continue
            for classes, used in members:
                if used is not None and len(classes[0].edge) == len(cls.edge) and used.isdisjoint(comps):
                    classes.append(cls)
                    used |= comps
                    break
            else:
                members.append(([cls], comps))
        return [
            Colour(
                classes,
                _Step(self.engine_of_rid, [c.rids for c in classes]),
                [] if used is not None else [_Step(self.engine_of_rid, [g]) for g in classes[0].groups],
            )
            for classes, used in members
        ]

    # -- dual evaluations ----------------------------------------------------

    def dual_value(self) -> float:
        return float(sum(np.sum(eng.component_max()) for eng in self.engines))

    def smooth_dual_value(self, tau: float) -> float:
        return float(sum(np.sum(eng.log_partition(tau)) for eng in self.engines))

    # -- sweeps ---------------------------------------------------------------

    def _sweep(self, tau: float | None) -> float:
        resids = []
        for colour in self.colours:
            resids.append(colour.step.average(tau, write=not colour.hub_groups))
            for group in colour.hub_groups:
                group.average(tau, write=True)
        return float(np.max(resids, initial=0.0))

    def sweep_log_marginal_averaging(self, tau: float) -> float:
        """One colour-ordered pass of tempered marginal matching.

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
        eng = self.engine_of_rid[rid]
        slot, row = eng.where[rid]
        logp = eng.log_marginal(slot, tau)[row]
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
        """Max-normalized vertex max-marginals summed over replicas, in
        component-then-vertex order."""
        vals = np.empty((self.rmap.n_aug, 2))
        for eng in self.engines:
            t = eng.vertex_max_marginal()
            vals[eng.aug_vertices] = t - np.max(t, axis=2, keepdims=True)
        tables = np.zeros((self.rmap.n_orig, 2))
        order = self._vertex_order
        np.add.at(tables, self.rmap.vertex_origin[order], vals[order])
        return tables

    def extract_estimate(self) -> EstimateResult:
        """The better of two decodes: the argmax of the re-summed
        max-marginals, and the component maximizers when they project to a
        consistent labelling (the first wins a tie). Ties and node tables
        come from the re-summed max-marginals."""
        tables = self.resummed_node_tables()
        ties = set(np.flatnonzero(np.abs(tables[:, 0] - tables[:, 1]) < TIE_TOL).tolist())
        candidates = [LABELS[np.argmax(tables, axis=1)]]
        x_aug = np.zeros(self.rmap.n_aug)
        for eng in self.engines:
            x_aug[eng.aug_vertices] = eng.map_assignment()
        projected, _ = project_assignment(x_aug, self.rmap)
        if projected is not None:
            candidates.append(projected)
        values = [evaluate_objective(self.aug.base, c) for c in candidates]
        k = values.index(max(values))
        return EstimateResult(candidates[k], ties, values[k], tables)


def build_relaxation(
    model: DiscreteFactorModel, config: DecompositionConfig | str | None = None, **kwargs
) -> DiscreteRelaxation:
    """Replicate `model`, with a singleton term on every vertex, and build
    one engine per component layout. Raises DecompositionError when a
    junction tree's largest clique, minus one, exceeds
    `config.treewidth_bound`."""
    config = as_config(config, "spanning-trees", **kwargs)
    relax = DiscreteRelaxation(build_augmented(ensure_singletons(model), config))
    width = max(len(c) for eng in relax.engines for c in eng.cliques) - 1
    if config.treewidth_bound is not None and width > config.treewidth_bound:
        raise DecompositionError(
            f"component treewidth {width} exceeds bound {config.treewidth_bound}"
        )
    return relax


def solve_discrete(
    model: DiscreteFactorModel,
    strategy: DecompositionConfig | str = "spanning-trees",
    schedule: TemperatureSchedule | None = None,
    **kwargs,
) -> SolveReport:
    """Anneal the smooth dual, polish at zero temperature, extract an estimate.

    Runs log-marginal averaging sweeps down the temperature ladder until the
    class residual drops below the schedule's tolerance at each step, then
    max-marginal averaging sweeps. Each sweep updates the classes colour by
    colour, and classes that share no component update together. Every sweep decodes an estimate and
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
