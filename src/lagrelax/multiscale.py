"""Multiscale relaxation for 1D Gaussian chains.

Every scale is a `GaussianRelaxation` over overlapping block-pair strips:
scale 0 relaxes the input chain, and each coarse scale relaxes a chain of
summary variables (block averages of the scale below) with zero intrinsic
potentials. Cross-scale updates move potential mass between a fine block
and its summary variables so that their marginal moments agree, while the
constrained multiscale model, sum_s M_s^T (J_s, h_s) M_s with M_s the
block-average map from the original variables to scale s, stays equal to
the original chain. In-scale replica matching is the single-scale sweep,
which runs each scale's classes colour by colour on its component stacks.
Cross-scale updates run one link at a time in V-cycle order; each link
carries its index plans, built with it in `build_multiscale`.

2D lattices would use the same types with block summaries per axis; only
the 1D construction is wired up and tested here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .decomposition import DecompositionConfig, build_augmented
from .gaussian import GaussianRelaxation
from .inference import complement, factor_active, gaussian_marginal_info
from .models import GaussianInfoModel, Hypergraph, ModelError, NotPositiveDefiniteError
from .report import Report


@dataclass
class CrossLink:
    """Summary constraint tying coarse variables to fine block averages.

    Links are built per coarse-scale clique (adjacent summary pairs), so
    the update also populates coarse interaction potentials; its pullback
    lands on the extra block-pair interactions inside a fine component.
    Each block carries its kept and eliminated local indices, and its
    index plan is built with the link.
    """

    fine_scale: int
    coarse_vars: tuple[int, ...]
    fine_comp: int
    fine_locs: np.ndarray
    fine_elim: np.ndarray
    coarse_comp: int
    coarse_locs: np.ndarray
    coarse_elim: np.ndarray
    A: np.ndarray  # len(coarse_vars) x len(fine_locs) averaging map

    def __post_init__(self):
        self.fine_block = (self.fine_locs[:, None], self.fine_locs)
        self.coarse_block = (self.coarse_locs[:, None], self.coarse_locs)


@dataclass
class MultiscaleModel:
    base: GaussianInfoModel
    block: int
    scales: list[GaussianRelaxation]
    links: list[list[CrossLink]]  # per adjacent scale pair

    @property
    def levels(self) -> int:
        return len(self.scales)


def _is_chain(graph: Hypergraph) -> bool:
    return all(len(e) == 1 or (len(e) == 2 and e[1] - e[0] == 1) for e in graph.hyperedges)


def _scale_relaxation(model: GaussianInfoModel, block: int) -> GaussianRelaxation:
    config = DecompositionConfig(
        strategy="thin-strips", rows=1, cols=model.n, strip_width=2 * block, overlap=block
    )
    return GaussianRelaxation(build_augmented(model, config))


def _summary_chain(n: int) -> GaussianInfoModel:
    """A chain of n summary variables with zero clique terms."""
    edges = [(v,) for v in range(n)] + [(v, v + 1) for v in range(n - 1)]
    return GaussianInfoModel.from_cliques(
        n, [(e, np.zeros((len(e), len(e))), np.zeros(len(e))) for e in edges]
    )


def _block_average(size: int, block: int) -> np.ndarray:
    """The size x (size * block) map that averages consecutive blocks."""
    A = np.zeros((size, size * block))
    for i in range(size):
        A[i, i * block : (i + 1) * block] = 1.0 / block
    return A


def build_multiscale(
    model: GaussianInfoModel, levels: int, block: int = 2
) -> MultiscaleModel:
    """Dyadic (by default) summary hierarchy over a 1D chain model."""
    if levels < 1:
        raise ModelError("levels must be at least 1")
    if block < 1:
        raise ModelError("block must be at least 1")
    if not _is_chain(model.graph):
        raise ModelError("multiscale construction expects a 1D chain model")
    if model.n % block ** (levels - 1):
        raise ModelError(
            f"chain length {model.n} does not support {levels} levels with block {block}"
        )
    scales = [_scale_relaxation(model, block)]
    scales += [
        _scale_relaxation(_summary_chain(model.n // block**s), block) for s in range(1, levels)
    ]

    links: list[list[CrossLink]] = []
    for s in range(levels - 1):
        fine, coarse = scales[s], scales[s + 1]
        nb = coarse.rmap.n_orig
        cliques = [(i, i + 1) for i in range(nb - 1)] if nb >= 2 else [(0,)]
        pair_links = []
        for cvars in cliques:
            fine_vars = [v for i in cvars for v in range(i * block, (i + 1) * block)]
            fci, flocs, felim = _canonical_block(fine, fine_vars)
            cci, clocs, celim = _canonical_block(coarse, list(cvars))
            pair_links.append(
                CrossLink(
                    fine_scale=s,
                    coarse_vars=cvars,
                    fine_comp=fci,
                    fine_locs=flocs,
                    fine_elim=felim,
                    coarse_comp=cci,
                    coarse_locs=clocs,
                    coarse_elim=celim,
                    A=_block_average(len(cvars), block),
                )
            )
        links.append(pair_links)
    return MultiscaleModel(base=model, block=block, scales=scales, links=links)


def _canonical_block(scale: GaussianRelaxation, block_vars):
    """First component holding a full copy of the block, with the block's
    local indices and the rest of the component's."""
    rmap = scale.rmap
    # per block variable: owning component -> its replica there (each strip
    # holds one copy of a variable)
    owners = [
        {int(rmap.component_of_vertex[a]): a for a in rmap.vertex_replicas[v]} for v in block_vars
    ]
    shared = set.intersection(*map(set, owners))
    if not shared:
        raise ModelError(f"no component contains block {block_vars}")
    ci = min(shared)
    comp = scale.aug.components[ci]
    locs = np.array([comp.local[own[ci]] for own in owners])
    return ci, locs, complement(comp.size, locs)


def summary_multipliers(A, J1, h1, J2, h2):
    """Multiplier pair that equalizes summary moments across a scale pair.

    Given marginal information forms (J1, h1) of the fine block and
    (J2, h2) of its summary variables under the map x2 = A x1, returns
    (Lambda, lambda) such that adding them to the coarse side and
    subtracting (A^T Lambda A, A^T lambda) from the fine side makes the
    post-update moments satisfy x2 = A x1 and P2 = A P1 A^T. The fine
    block is solved once, for [A^T | h1].
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    J1 = np.atleast_2d(np.asarray(J1, dtype=float))
    J2 = np.atleast_2d(np.asarray(J2, dtype=float))
    h1 = np.atleast_1d(np.asarray(h1, dtype=float))
    h2 = np.atleast_1d(np.asarray(h2, dtype=float))
    S = A @ np.linalg.solve(J1, np.column_stack([A.T, h1]))
    Minv = np.linalg.inv(S[:, :-1])
    Lam = 0.5 * (Minv - J2)
    lam = 0.5 * (Minv @ S[:, -1] - h2)
    return Lam, lam


def cross_scale_update(ms: MultiscaleModel, link: CrossLink) -> float:
    """Match the coarse variables' moments to their fine block summaries.

    Adds the multiplier pair to the coarse potentials and subtracts its
    pullback from the fine block. A failing factorization triggers one
    damped (halved) retry before raising.
    """
    fcomp = ms.scales[link.fine_scale].aug.components[link.fine_comp]
    ccomp = ms.scales[link.fine_scale + 1].aug.components[link.coarse_comp]
    J1, h1 = gaussian_marginal_info(fcomp.J, fcomp.h, link.fine_locs, link.fine_elim)
    J2, h2 = gaussian_marginal_info(ccomp.J, ccomp.h, link.coarse_locs, link.coarse_elim)
    A = link.A
    Lam, lam = summary_multipliers(A, J1, h1, J2, h2)
    resid = float(np.maximum(np.max(np.abs(Lam)), np.max(np.abs(lam))))

    fine, coarse = link.fine_block, link.coarse_block
    locs, clocs = link.fine_locs, link.coarse_locs
    for scale in (1.0, 0.5):
        dJc, dhc = scale * Lam, scale * lam
        dJf, dhf = A.T @ dJc @ A, A.T @ dhc
        ccomp.J[coarse] += dJc
        ccomp.h[clocs] += dhc
        fcomp.J[fine] -= dJf
        fcomp.h[locs] -= dhf
        try:
            factor_active(fcomp.J, fcomp.h)
            factor_active(ccomp.J, ccomp.h)
        except NotPositiveDefiniteError:
            ccomp.J[coarse] -= dJc
            ccomp.h[clocs] -= dhc
            fcomp.J[fine] += dJf
            fcomp.h[locs] += dhf
            continue
        return resid
    raise NotPositiveDefiniteError(
        f"cross-scale update at scale {link.fine_scale}, variables "
        f"{link.coarse_vars} lost positive definiteness even after damping"
    )


@dataclass
class MultiscaleTraceEntry:
    sweep: int
    max_residual: float
    mean_err: float
    wall_ms: float


@dataclass
class MultiscaleSolveReport(Report):
    """Result of `solve_multiscale`; `stop_reason` is `residual`,
    `sweep_cap` or `non_finite`, as for `GaussianSolveReport`."""

    means: np.ndarray
    converged: bool
    iterations: int
    trace: list[MultiscaleTraceEntry]
    levels: int
    block: int
    stop_reason: str
    notes: list[str] = field(default_factory=list)
    wall_ms: float = 0.0

    TRACE = "trace"
    ENTRY = MultiscaleTraceEntry


def fine_scale_means(ms: MultiscaleModel) -> np.ndarray:
    return ms.scales[0].node_stats().mean


def v_cycle(ms: MultiscaleModel) -> float:
    """One outer iteration; returns its largest residual (NaN when any is).

    The downstroke smooths each scale with one moment-matching sweep, then
    pushes its summaries upward; the upstroke pulls the summaries back down
    and smooths again.
    """
    resids = []
    for s in range(ms.levels - 1):
        resids.append(ms.scales[s].matcher.sweep())
        resids += [cross_scale_update(ms, link) for link in ms.links[s]]
    resids.append(ms.scales[-1].matcher.sweep())
    for s in reversed(range(ms.levels - 1)):
        resids += [cross_scale_update(ms, link) for link in ms.links[s]]
        resids.append(ms.scales[s].matcher.sweep())
    return float(np.max(resids))


def solve_multiscale(
    model: GaussianInfoModel,
    levels: int,
    block: int = 2,
    *,
    tol: float = 1e-6,
    max_iters: int = 500,
    reference=None,
) -> MultiscaleSolveReport:
    """Run `v_cycle` iterations until every residual drops below tol.

    A NaN or infinite residual ends the iterations at once.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    ms = build_multiscale(model, levels, block)
    t0 = time.perf_counter()
    trace: list[MultiscaleTraceEntry] = []
    stop_reason = "sweep_cap"
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        resid = v_cycle(ms)
        mean_err = np.nan
        if reference is not None:
            mean_err = float(np.max(np.abs(fine_scale_means(ms) - reference)))
        trace.append(
            MultiscaleTraceEntry(
                sweep=it,
                max_residual=resid,
                mean_err=mean_err,
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
        )
        if not math.isfinite(resid):
            stop_reason = "non_finite"
            break
        if resid < tol:
            stop_reason = "residual"
            break
    return MultiscaleSolveReport(
        means=fine_scale_means(ms),
        converged=stop_reason == "residual",
        iterations=iterations,
        trace=trace,
        levels=levels,
        block=block,
        stop_reason=stop_reason,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )


# ---------------------------------------------------------------------------
# Equivalence checks used by tests and diagnostics


def _lifted_form(ms: MultiscaleModel) -> tuple[np.ndarray, np.ndarray]:
    """sum_s M_s^T (J_s, h_s) M_s over the original variables, where
    (J_s, h_s) is scale s's aggregated form."""
    n = ms.base.n
    J = np.zeros((n, n))
    h = np.zeros(n)
    M = np.eye(n)
    for s, scale in enumerate(ms.scales):
        if s:
            M = _block_average(scale.rmap.n_orig, ms.block) @ M
        Js, hs = scale.aug.aggregate()
        J += M.T @ Js @ M
        h += M.T @ hs
    return J, h


def multiscale_objective(ms: MultiscaleModel, x) -> float:
    """Total objective of the constrained multiscale model on a lifted state."""
    x = np.asarray(x, dtype=float)
    J, h = _lifted_form(ms)
    return float(-0.5 * x @ J @ x + h @ x)


def multiscale_consistency_residual(ms: MultiscaleModel) -> tuple[float, float]:
    """Residual of the lifted multiscale form against the model."""
    J, h = _lifted_form(ms)
    J0, h0 = ms.base.aggregate_dense
    return float(np.max(np.abs(J - J0))), float(np.max(np.abs(h - h0)))
