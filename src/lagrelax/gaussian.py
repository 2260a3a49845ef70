"""Gaussian dual solver: information-form moment matching across replicas.

Each class update equalizes the marginal information forms of a replicated
vertex set by averaging and re-splitting, which is the exact block
coordinate step of the log-det regularized dual. Positive definiteness and
consistency (A^T J' A = J, A^T h' = h) are preserved by construction and
checked every sweep.

The components' information forms live in one stack per component size
(`decomposition.ComponentStack`). A sweep runs the classes by colour:
greedy first fit in class order, where a colour holds classes of one block
size whose members share no component. Each colour is one array step: one
gather and one batched Schur complement per (stack, eliminated size), one
average per class, one scatter of the deltas. Each sweep then factors
every stack once: that batched factor checks positive definiteness and
gives the means, the covariance diagonal and the dual value. A batched
factor that fails or is not finite is redone one component at a time
through `gaussian_marginal_info` or `gaussian_component_mean`, which
retry without inactive variables and raise NotPositiveDefiniteError.

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
    Colour,
    DecompositionConfig,
    DecompositionError,
    GaussianAugmented,
    as_config,
    build_augmented,
    first_fit_colours,
    replica_classes,
)
from .inference import (
    batched_cholesky,
    complement,
    gaussian_component_mean,
    gaussian_marginal_info,
)
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


class _Read:
    """Marginals of members that share a stack and an eliminated size, by
    one batched Schur complement.

    The flat stack indices of each member's (eliminated, kept) block are
    built once, so a read is one gather, and the kept-block indices take
    the deltas back.
    """

    def __init__(self, stack, members):
        self.stack = stack
        self.members = members  # (row, kept, eliminated) local indices
        self.e = len(members[0][2])
        n = stack.h.shape[1]
        rows = np.array([row for row, _, _ in members])[:, None]
        order = np.array([np.concatenate([elim, locs]) for _, locs, elim in members], dtype=int)
        self.h_index = rows * n + order
        self.J_index = self.h_index[:, :, None] * n + order[:, None, :]

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        e = self.e
        J = self.stack.J.take(self.J_index)
        h = self.stack.h.take(self.h_index)
        if not e:
            return J, h
        L = batched_cholesky(J[:, :e, :e])
        if L is None:
            return self._one_by_one()
        W = np.linalg.solve(L, np.concatenate([J[:, :e, e:], h[:, :e, None]], axis=2))
        WK = W[:, :, :-1].transpose(0, 2, 1)
        Jm = J[:, e:, e:] - WK @ W[:, :, :-1]
        hm = h[:, e:] - (WK @ W[:, :, -1:])[:, :, 0]
        return 0.5 * (Jm + Jm.transpose(0, 2, 1)), hm

    def _one_by_one(self) -> tuple[np.ndarray, np.ndarray]:
        """The only per-member path: `gaussian_marginal_info` retries a
        block without its inactive variables and raises
        NotPositiveDefiniteError. Nothing is written before it runs."""
        infos = [
            gaussian_marginal_info(self.stack.J[row], self.stack.h[row], locs, elim)
            for row, locs, elim in self.members
        ]
        return np.array([J for J, _ in infos]), np.array([h for _, h in infos])

    def add(self, dJ, dh) -> None:
        """Add the deltas to the members' kept blocks."""
        e = self.e
        self.stack.J.reshape(-1)[self.J_index[:, e:, e:]] += dJ
        self.stack.h.reshape(-1)[self.h_index[:, e:]] += dh


class _Step:
    """Member groups averaged in one array step.

    Members that write in one step sit in distinct components, so reading
    every member first and adding every delta after is the same as
    updating the groups one at a time. Members are read per (stack,
    eliminated size) and stacked group by group.
    """

    def __init__(self, where, groups):
        members = [m for g in groups for m in g]
        sizes = [len(g) for g in groups]
        self.starts = np.cumsum([0] + sizes[:-1])
        self.counts = np.array(sizes, dtype=float)[:, None]
        self.index = np.repeat(np.arange(len(groups)), sizes)
        by_read: dict[tuple[int, int], tuple] = {}
        for pos, (ci, locs, elim) in enumerate(members):
            stack, row = where[ci]
            _, read_members, where_pos = by_read.setdefault((id(stack), len(elim)), (stack, [], []))
            read_members.append((row, locs, elim))
            where_pos.append(pos)
        self.reads = [(_Read(stack, ms), np.array(pos)) for stack, ms, pos in by_read.values()]
        self.shape = (len(members), len(members[0][1]))

    def average(self, write: bool) -> float:
        """Average each group's marginal information forms, adding the
        deltas when `write`. Returns the largest pre-update disagreement,
        NaN when any marginal is NaN."""
        m, k = self.shape
        J = np.empty((m, k, k))
        h = np.empty((m, k))
        for read, pos in self.reads:
            J[pos], h[pos] = read.marginals()
        dh = (np.add.reduceat(h, self.starts) / self.counts)[self.index] - h
        dJ = (np.add.reduceat(J, self.starts) / self.counts[:, :, None])[self.index] - J
        if write:
            for read, pos in self.reads:
                read.add(dJ[pos], dh[pos])
        return float(np.maximum(np.max(np.abs(dJ)), np.max(np.abs(dh))))


class MomentMatcher:
    """Moment-matching sweeps over a list of components and classes.

    Every `GaussianRelaxation` sweeps through one, whatever its scale; it
    knows nothing about the original model. The components' forms are rows
    of `stacks` (`decomposition.stack_components`). Classes run in greedy
    first-fit colours: classes of one block size whose members share no
    component update in one array step; a hub class, whose members share a
    component, is a colour of its own and updates one group after another.
    """

    def __init__(self, components, classes: list[GaussClass], stacks):
        self.components = components
        self.classes = classes
        where = {int(ci): (stack, row) for stack in stacks for row, ci in enumerate(stack.comps)}
        colours = first_fit_colours(
            classes,
            lambda c: {ci for ci, _, _ in c.members},
            lambda c: len(c.key),
            lambda c: len(c.groups) > 1,
        )
        self.colours = [
            Colour(
                colour,
                _Step(where, [c.members for c in colour]),
                [_Step(where, [[colour[0].members[i] for i in g]]) for g in colour[0].groups]
                if len(colour[0].groups) > 1
                else [],
            )
            for colour in colours
        ]

    def marginal(self, ci: int, locs, elim=None) -> tuple[np.ndarray, np.ndarray]:
        comp = self.components[ci]
        return gaussian_marginal_info(comp.J, comp.h, locs, elim=elim)

    def sweep(self) -> float:
        """One pass over all colours; returns the peak pre-update
        disagreement (NaN when any marginal is NaN)."""
        resids = []
        for colour in self.colours:
            resids.append(colour.step.average(write=not colour.hub_groups))
            for group in colour.hub_groups:
                group.average(write=True)
        return float(np.max(resids, initial=0.0))


def replica_average(rmap, per_aug):
    """Per original vertex of `rmap`: the mean of its replicas' entries in
    `per_aug` (one per augmented vertex) and their spread, max - min."""
    origin = rmap.vertex_origin
    n = rmap.n_orig
    mean = np.bincount(origin, weights=per_aug, minlength=n) / np.bincount(origin, minlength=n)
    hi = np.full(n, -np.inf)
    lo = np.full(n, np.inf)
    with np.errstate(invalid="ignore"):  # NaN entries propagate silently
        np.maximum.at(hi, origin, per_aug)
        np.minimum.at(lo, origin, per_aug)
    return mean, hi - lo


def build_matcher(aug: GaussianAugmented) -> MomentMatcher:
    """Moment matcher over the block classes of `aug.rmap` when it has
    them, else over its hyperedge classes.

    Raises DecompositionError when a block's replica spans several
    components (a strip whose rows are not coupled).
    """
    rmap, components = aug.rmap, aug.components
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
            elim = complement(comp.size, locs)
            members.append((ci, locs, elim))
        classes.append(GaussClass(key, members, groups))
    return MomentMatcher(components, classes, aug.stacks)


@dataclass
class NodeStats:
    """One read of every component (`GaussianRelaxation.node_stats`)."""

    mean: np.ndarray  # replica-averaged, per original node
    mean_spread: float  # largest cross-replica max - min of the means
    var_spread: float  # the same for the variances
    dual: float  # sum of the component values
    var: np.ndarray  # covariance diagonal per augmented vertex


class GaussianRelaxation:
    """Augmented Gaussian model plus its agreement classes."""

    def __init__(self, aug: GaussianAugmented):
        self.aug = aug
        self.rmap = aug.rmap
        self.matcher = build_matcher(aug)

    @property
    def classes(self) -> list[GaussClass]:
        return self.matcher.classes

    def node_stats(self) -> NodeStats:
        """Factor every stack once and average each original node's mean
        and variance over its replicas.

        Raises NotPositiveDefiniteError when a component is not positive
        definite or not finite.
        """
        mean_aug = np.empty(self.rmap.n_aug)
        var_aug = np.empty(self.rmap.n_aug)
        dual = 0.0
        for stack in self.aug.stacks:
            mean, var, values = gaussian_component_mean(stack.J, stack.h)
            mean_aug[stack.vertices], var_aug[stack.vertices] = mean, var
            dual += float(np.sum(values))
        mean, mean_spread = replica_average(self.rmap, mean_aug)
        _, var_spread = replica_average(self.rmap, var_aug)
        return NodeStats(
            mean=mean,
            mean_spread=float(np.max(mean_spread)),
            var_spread=float(np.max(var_spread)),
            dual=dual,
            var=var_aug,
        )

    def node_variance_bounds(self, stats: NodeStats):
        """Loose bound 1/Jbar_v per node; tighter 1/(r Jbar_v) when every
        replica sits in its own component.

        Jbar_v averages the replicas' marginal precisions 1/Sigma_vv, read
        from `stats`.
        """
        jbar, _ = replica_average(self.rmap, 1.0 / stats.var)
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
    strategy: DecompositionConfig | str | None = "thin-strips",
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
    config = as_config(strategy, "thin-strips", **kwargs)
    relax = build_gaussian_relaxation(model, config)
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
        strategy=config.strategy,
        stop_reason=stop_reason,
        notes=list(relax.rmap.notes),
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
