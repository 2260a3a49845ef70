"""Gaussian dual solver: information-form moment matching across replicas.

Each class update equalizes the marginal information forms of a replicated
vertex set by averaging and re-splitting, which is the exact block
coordinate step of the log-det regularized dual. Positive definiteness and
consistency (A^T J' A = J, A^T h' = h) are preserved by construction and
checked every sweep. Each sweep then factors every component once: that
one factor checks positive definiteness and gives the means, the
covariance diagonal and the dual value.

`GaussianRelaxation` is the one relaxation type: the single-scale solver
runs one, and the multiscale solver runs one per scale. `build_matcher`
builds every agreement class, from a strip map's overlap blocks or else
from the replicated hyperedges.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .decomposition import (
    DecompositionConfig,
    DecompositionError,
    GaussianAugmented,
    as_config,
    build_augmented,
    replica_classes,
)
from .inference import gaussian_component_mean, gaussian_marginal_info
from .models import GaussianInfoModel
from .report import Report


@dataclass
class GaussClass:
    """One agreement class: replicas of a vertex set in distinct components.

    Members carry (component index, kept local indices, eliminated local
    indices); the complement is precomputed because class marginals are the
    sweep hot path.
    """

    key: tuple[int, ...]
    members: list[tuple[int, np.ndarray, np.ndarray]]
    groups: list[list[int]]  # member indices updated together


class MomentMatcher:
    """Moment-matching sweeps over a list of components and classes.

    Every `GaussianRelaxation` sweeps through one, whatever its scale; it
    knows nothing about the original model.
    """

    def __init__(self, components, classes: list[GaussClass]):
        self.components = components
        self.classes = classes

    def marginal(self, ci: int, locs, elim=None) -> tuple[np.ndarray, np.ndarray]:
        comp = self.components[ci]
        return gaussian_marginal_info(comp.J, comp.h, locs, elim=elim)

    def _member_infos(self, cls: GaussClass, idxs):
        return [self.marginal(*cls.members[i]) for i in idxs]

    def _apply(self, cls: GaussClass, idxs, infos):
        Jbar = sum(J for J, _ in infos) / len(infos)
        hbar = sum(h for _, h in infos) / len(infos)
        for i, (J, h) in zip(idxs, infos):
            ci, locs, _ = cls.members[i]
            comp = self.components[ci]
            comp.J[np.ix_(locs, locs)] += Jbar - J
            comp.h[locs] += hbar - h

    def sweep(self) -> float:
        """One pass over all classes; returns the peak pre-update disagreement
        (NaN when any marginal is NaN)."""
        resids = []
        for cls in self.classes:
            infos = self._member_infos(cls, range(len(cls.members)))
            Jbar = sum(J for J, _ in infos) / len(infos)
            hbar = sum(h for _, h in infos) / len(infos)
            for J, h in infos:
                resids += [np.max(np.abs(J - Jbar)), np.max(np.abs(h - hbar))]
            if len(cls.groups) == 1:
                self._apply(cls, cls.groups[0], infos)
            else:
                for group in cls.groups:
                    self._apply(cls, group, self._member_infos(cls, group))
        return float(np.max(resids, initial=0.0))


def replica_average(rmap, components, values):
    """Per original vertex of `rmap`: the mean of its replicas' entries in
    `values` (one vector per component) and their spread, max - min."""
    per_aug = np.empty(rmap.n_aug)
    for comp, vals in zip(components, values):
        per_aug[comp.vertices] = vals
    origin = rmap.vertex_origin
    n = rmap.n_orig
    mean = np.bincount(origin, weights=per_aug, minlength=n) / np.bincount(origin, minlength=n)
    hi = np.full(n, -np.inf)
    lo = np.full(n, np.inf)
    with np.errstate(invalid="ignore"):  # NaN entries propagate silently
        np.maximum.at(hi, origin, per_aug)
        np.minimum.at(lo, origin, per_aug)
    return mean, hi - lo


def build_matcher(rmap, components) -> MomentMatcher:
    """Moment matcher over the block classes of `rmap` when it has them,
    else over its hyperedge classes.

    Raises DecompositionError when a block's replica spans several
    components (a strip whose rows are not coupled).
    """
    if rmap.block_classes:
        specs = [(key, reps, [list(range(len(reps)))]) for key, reps in rmap.block_classes]
    else:
        specs = [
            (
                rmap.orig_edges[oid],
                [rmap.replica_edges[r] for r in rids],
                [[rids.index(r) for r in g] for g in groups],
            )
            for oid, rids, groups in replica_classes(rmap)
        ]
    classes = []
    for key, reps, groups in specs:
        members = []
        for aug_verts in reps:
            owners = rmap.component_of_vertex[list(aug_verts)]
            ci = int(owners[0])
            if np.any(owners != ci):
                raise DecompositionError(f"agreement block {key} spans several components")
            comp = components[ci]
            locs = np.array([comp.local[v] for v in aug_verts])
            elim = np.setdiff1d(np.arange(comp.size), locs)
            members.append((ci, locs, elim))
        classes.append(GaussClass(key, members, groups))
    return MomentMatcher(components, classes)


@dataclass
class NodeStats:
    """One read of every component (`GaussianRelaxation.node_stats`)."""

    mean: np.ndarray  # replica-averaged, per original node
    mean_spread: float  # largest cross-replica max - min of the means
    var_spread: float  # the same for the variances
    dual: float  # sum of the component values
    component_var: list[np.ndarray]  # covariance diagonal per component


class GaussianRelaxation:
    """Augmented Gaussian model plus its agreement classes."""

    def __init__(self, aug: GaussianAugmented):
        self.aug = aug
        self.rmap = aug.rmap
        self.matcher = build_matcher(aug.rmap, aug.components)

    @property
    def classes(self) -> list[GaussClass]:
        return self.matcher.classes

    def node_stats(self) -> NodeStats:
        """Factor every component once and average its mean and variance
        over each original node's replicas.

        Raises NotPositiveDefiniteError when a component is not positive
        definite or not finite.
        """
        comps = self.aug.components
        means, variances, values = zip(*(gaussian_component_mean(c.J, c.h) for c in comps))
        mean, mean_spread = replica_average(self.rmap, comps, means)
        _, var_spread = replica_average(self.rmap, comps, variances)
        return NodeStats(
            mean=mean,
            mean_spread=float(np.max(mean_spread)),
            var_spread=float(np.max(var_spread)),
            dual=float(sum(values)),
            component_var=list(variances),
        )

    def node_variance_bounds(self, stats: NodeStats):
        """Loose bound 1/Jbar_v per node; tighter 1/(r Jbar_v) when every
        replica sits in its own component.

        Jbar_v averages the replicas' marginal precisions 1/Sigma_vv, read
        from `stats`.
        """
        precs = [1.0 / d for d in stats.component_var]
        jbar, _ = replica_average(self.rmap, self.aug.components, precs)
        loose = 1.0 / jbar
        comp_of = self.rmap.component_of_vertex
        tight = loose.copy()
        for v, reps in enumerate(self.rmap.vertex_replicas):
            if len(set(comp_of[reps])) == len(reps):
                tight[v] = 1.0 / (len(reps) * jbar[v])
        return loose, tight

    def class_variance_bounds(self):
        """Per class: averaged marginal precision, its inverse (the bound),
        and the tighter inverse when replicas are component-disjoint."""
        out = {}
        for cls in self.classes:
            infos = [self.matcher.marginal(*m) for m in cls.members]
            Jbar = sum(J for J, _ in infos) / len(infos)
            bound = np.linalg.inv(Jbar)
            comp_ids = [ci for ci, _, _ in cls.members]
            tight = (
                np.linalg.inv(len(infos) * Jbar)
                if len(set(comp_ids)) == len(comp_ids)
                else None
            )
            out[cls.key] = (Jbar, bound, tight)
        return out


@dataclass
class GaussianTraceEntry:
    sweep: int
    dual: float
    mean_err_proxy: float
    var_residual: float
    max_residual: float
    wall_ms: float


@dataclass
class GaussianSolveReport(Report):
    """Result of `solve_gaussian`.

    `stop_reason` is `residual` (converged), `sweep_cap` (ran `max_iters`
    sweeps) or `non_finite` (a NaN or infinite sweep residual ended the
    sweeps at once).
    """

    means: np.ndarray
    dual: float
    converged: bool
    iterations: int
    dual_trace: list[GaussianTraceEntry]
    variance_bound: np.ndarray
    variance_bound_tight: np.ndarray
    consistency_max: float
    strategy: str
    stop_reason: str
    notes: list[str] = field(default_factory=list)
    wall_ms: float = 0.0

    ENTRY = GaussianTraceEntry


def build_gaussian_relaxation(
    model: GaussianInfoModel, config: DecompositionConfig | str | None = None, **kwargs
) -> GaussianRelaxation:
    return GaussianRelaxation(build_augmented(model, as_config(config, "thin-strips", **kwargs)))


def solve_gaussian(
    model: GaussianInfoModel,
    strategy: DecompositionConfig | str = "thin-strips",
    *,
    tol: float = 1e-8,
    max_iters: int = 500,
    **kwargs,
) -> GaussianSolveReport:
    """Run moment-matching sweeps to convergence and report means and bounds.

    The information form stays positive definite and consistent throughout:
    losing positive definiteness raises, and the largest consistency
    residual over the sweeps is reported (NaN when any was NaN). A NaN or
    infinite sweep residual ends the sweeps at once. Each sweep reads every
    component once, and the report's means, dual and variance bounds come
    from the last sweep's read.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    relax = build_gaussian_relaxation(model, strategy, **kwargs)
    strategy_name = strategy if isinstance(strategy, str) else strategy.strategy
    t0 = time.perf_counter()
    trace: list[GaussianTraceEntry] = []
    consistency_max = 0.0
    stop_reason = "sweep_cap"
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        resid = relax.matcher.sweep()
        dJ, dh = relax.aug.consistency_residual()
        consistency_max = float(np.maximum(consistency_max, dJ + dh))
        stats = relax.node_stats()
        trace.append(
            GaussianTraceEntry(
                sweep=it,
                dual=stats.dual,
                mean_err_proxy=stats.mean_spread,
                var_residual=stats.var_spread,
                max_residual=resid,
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        if not math.isfinite(resid):
            stop_reason = "non_finite"
            break
        if resid < tol:
            stop_reason = "residual"
            break
    loose, tight = relax.node_variance_bounds(stats)
    return GaussianSolveReport(
        means=stats.mean,
        dual=stats.dual,
        converged=stop_reason == "residual",
        iterations=iterations,
        dual_trace=trace,
        variance_bound=loose,
        variance_bound_tight=tight,
        consistency_max=consistency_max,
        strategy=strategy_name,
        stop_reason=stop_reason,
        notes=list(relax.rmap.notes),
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
