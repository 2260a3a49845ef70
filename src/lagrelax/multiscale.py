"""Multiscale relaxation for 1D Gaussian chains.

Coarse scales carry summary variables (block averages of the scale below)
with zero intrinsic potentials; cross-scale updates move potential mass
between a fine block and its summary variable so that their marginal
moments agree, while the constrained multiscale model stays equivalent to
the original chain. In-scale replica matching reuses the single-scale
moment-matching machinery on overlapping block-pair components.

2D lattices would use the same types with block summaries per axis; only
the 1D construction is wired up and tested here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .decomposition import (
    DecompositionConfig,
    build_decomposition,
    split_potentials,
    zero_components,
)
from .gaussian import MomentMatcher, build_matcher, replica_average
from .inference import factor_active, gaussian_component_mean
from .models import (
    GaussianInfoModel,
    Hypergraph,
    ModelError,
    NotPositiveDefiniteError,
)
from .report import Report


@dataclass
class ScaleState:
    size: int
    rmap: object
    matcher: MomentMatcher


@dataclass
class CrossLink:
    """Summary constraint tying coarse variables to fine block averages.

    Links are built per coarse-scale clique (adjacent summary pairs), so
    the update also populates coarse interaction potentials; its pullback
    lands on the extra block-pair interactions inside a fine component.
    """

    fine_scale: int
    coarse_vars: tuple[int, ...]
    fine_comp: int
    fine_locs: np.ndarray
    coarse_comp: int
    coarse_locs: np.ndarray
    A: np.ndarray  # len(coarse_vars) x len(fine_locs) averaging map


@dataclass
class MultiscaleModel:
    base: GaussianInfoModel
    block: int
    scales: list[ScaleState]
    links: list[list[CrossLink]]  # per adjacent scale pair

    @property
    def levels(self) -> int:
        return len(self.scales)


def _chain_graph(n: int) -> Hypergraph:
    edges = [(v,) for v in range(n)] + [(v, v + 1) for v in range(n - 1)]
    return Hypergraph(n, tuple(edges))


def _is_chain(graph: Hypergraph) -> bool:
    for e in graph.hyperedges:
        if len(e) == 1:
            continue
        if len(e) != 2 or e[1] - e[0] != 1:
            return False
    return True


def _scale_decomposition(graph: Hypergraph, block: int):
    config = DecompositionConfig(
        strategy="thin-strips",
        rows=1,
        cols=graph.vertex_count,
        strip_width=2 * block,
        overlap=block,
        treewidth_bound=None,
    )
    return build_decomposition(graph, config)


def build_multiscale(
    model: GaussianInfoModel, levels: int, block: int = 2
) -> MultiscaleModel:
    """Dyadic (by default) summary hierarchy over a 1D chain model."""
    if levels < 1:
        raise ModelError("levels must be at least 1")
    if not _is_chain(model.graph):
        raise ModelError("multiscale construction expects a 1D chain model")
    sizes = [model.n]
    for _ in range(levels - 1):
        if sizes[-1] % block != 0 or sizes[-1] // block < 1:
            raise ModelError(
                f"chain length {model.n} does not support {levels} levels "
                f"with block {block}"
            )
        sizes.append(sizes[-1] // block)

    scales: list[ScaleState] = []
    rmap0 = _scale_decomposition(model.graph, block)
    aug0 = split_potentials(model, rmap0)
    scales.append(ScaleState(model.n, rmap0, build_matcher(rmap0, aug0.components)))
    for s in range(1, levels):
        g = _chain_graph(sizes[s])
        rmap = _scale_decomposition(g, block)
        comps = zero_components(rmap)
        scales.append(ScaleState(sizes[s], rmap, build_matcher(rmap, comps)))

    links: list[list[CrossLink]] = []
    for s in range(levels - 1):
        fine, coarse = scales[s], scales[s + 1]
        nb = coarse.size
        cliques = [(i, i + 1) for i in range(nb - 1)] if nb >= 2 else [(0,)]
        pair_links = []
        for cvars in cliques:
            fine_vars = [v for i in cvars for v in range(i * block, (i + 1) * block)]
            fci, flocs = _canonical_block(fine, fine_vars)
            cci, clocs = _canonical_block(coarse, list(cvars))
            A = np.zeros((len(cvars), len(fine_vars)))
            for r in range(len(cvars)):
                A[r, r * block : (r + 1) * block] = 1.0 / block
            pair_links.append(
                CrossLink(
                    fine_scale=s,
                    coarse_vars=cvars,
                    fine_comp=fci,
                    fine_locs=flocs,
                    coarse_comp=cci,
                    coarse_locs=clocs,
                    A=A,
                )
            )
        links.append(pair_links)
    return MultiscaleModel(base=model, block=block, scales=scales, links=links)


def _canonical_block(scale: ScaleState, block_vars):
    """First component holding a full copy of the block, with local indices."""
    rmap = scale.rmap
    comps = scale.matcher.components
    candidates = None
    for v in block_vars:
        owners = {int(rmap.component_of_vertex[a]) for a in rmap.vertex_replicas[v]}
        candidates = owners if candidates is None else candidates & owners
    if not candidates:
        raise ModelError(f"no component contains block {block_vars}")
    ci = min(candidates)
    comp = comps[ci]
    locs = []
    for v in block_vars:
        v_aug = next(
            a for a in rmap.vertex_replicas[v] if rmap.component_of_vertex[a] == ci
        )
        locs.append(comp.local[v_aug])
    return ci, np.array(locs)


def summary_multipliers(A, J1, h1, J2, h2):
    """Multiplier pair that equalizes summary moments across a scale pair.

    Given marginal information forms (J1, h1) of the fine block and
    (J2, h2) of its summary variables under the map x2 = A x1, returns
    (Lambda, lambda) such that adding them to the coarse side and
    subtracting (A^T Lambda A, A^T lambda) from the fine side makes the
    post-update moments satisfy x2 = A x1 and P2 = A P1 A^T.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    J1 = np.atleast_2d(np.asarray(J1, dtype=float))
    J2 = np.atleast_2d(np.asarray(J2, dtype=float))
    h1 = np.atleast_1d(np.asarray(h1, dtype=float))
    h2 = np.atleast_1d(np.asarray(h2, dtype=float))
    M = A @ np.linalg.solve(J1, A.T)
    Minv = np.linalg.inv(M)
    Lam = 0.5 * (Minv - J2)
    lam = 0.5 * (Minv @ A @ np.linalg.solve(J1, h1) - h2)
    return Lam, lam


def cross_scale_update(ms: MultiscaleModel, link: CrossLink) -> float:
    """Match the coarse variables' moments to their fine block summaries.

    Adds the multiplier pair to the coarse potentials and subtracts its
    pullback from the fine block. A failing factorization triggers one
    damped (halved) retry before raising.
    """
    fine = ms.scales[link.fine_scale].matcher
    coarse = ms.scales[link.fine_scale + 1].matcher
    J1, h1 = fine.marginal(link.fine_comp, link.fine_locs)
    J2, h2 = coarse.marginal(link.coarse_comp, link.coarse_locs)
    A = link.A
    Lam, lam = summary_multipliers(A, J1, h1, J2, h2)
    resid = float(np.maximum(np.max(np.abs(Lam)), np.max(np.abs(lam))))

    fcomp = fine.components[link.fine_comp]
    ccomp = coarse.components[link.coarse_comp]
    locs = link.fine_locs
    clocs = link.coarse_locs
    for scale in (1.0, 0.5):
        dJc, dhc = scale * Lam, scale * lam
        dJf, dhf = A.T @ dJc @ A, A.T @ dhc
        ccomp.J[np.ix_(clocs, clocs)] += dJc
        ccomp.h[clocs] += dhc
        fcomp.J[np.ix_(locs, locs)] -= dJf
        fcomp.h[locs] -= dhf
        try:
            factor_active(fcomp.J, fcomp.h)
            factor_active(ccomp.J, ccomp.h)
        except NotPositiveDefiniteError:
            ccomp.J[np.ix_(clocs, clocs)] -= dJc
            ccomp.h[clocs] -= dhc
            fcomp.J[np.ix_(locs, locs)] += dJf
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
    comps = ms.scales[0].matcher.components
    means = [gaussian_component_mean(c.J, c.h)[0] for c in comps]
    return replica_average(ms.scales[0].rmap, comps, means)[0]


def solve_multiscale(
    model: GaussianInfoModel,
    levels: int,
    block: int = 2,
    *,
    tol: float = 1e-6,
    max_iters: int = 500,
    reference=None,
) -> MultiscaleSolveReport:
    """Interleave in-scale replica sweeps with cross-scale summary updates.

    Each outer iteration runs one moment-matching sweep per scale, then a
    fine-to-coarse pass of cross-scale updates followed by a coarse-to-fine
    pass. Convergence is reached when every residual drops below tol; a
    NaN or infinite residual ends the iterations at once.
    """
    ms = build_multiscale(model, levels, block)
    t0 = time.perf_counter()
    trace: list[MultiscaleTraceEntry] = []
    stop_reason = "sweep_cap"
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        resids = []
        # Downstroke: smooth each scale, then push its summaries upward.
        for s in range(ms.levels - 1):
            resids.append(ms.scales[s].matcher.sweep())
            resids += [cross_scale_update(ms, link) for link in ms.links[s]]
        resids.append(ms.scales[-1].matcher.sweep())
        # Upstroke: pull summaries downward, then smooth again.
        for s in reversed(range(ms.levels - 1)):
            resids += [cross_scale_update(ms, link) for link in ms.links[s]]
            resids.append(ms.scales[s].matcher.sweep())
        resid = float(np.max(resids))
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


def scale_lift_matrices(ms: MultiscaleModel) -> list[np.ndarray]:
    """M_s maps original variables to scale-s variables (block averages)."""
    mats = [np.eye(ms.base.n)]
    for s in range(1, ms.levels):
        prev = mats[-1]
        size = ms.scales[s].size
        B = np.zeros((size, ms.scales[s - 1].size))
        for i in range(size):
            B[i, i * ms.block : (i + 1) * ms.block] = 1.0 / ms.block
        mats.append(B @ prev)
    return mats


def multiscale_objective(ms: MultiscaleModel, x) -> float:
    """Total objective of the constrained multiscale model on a lifted state."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for M, scale in zip(scale_lift_matrices(ms), ms.scales):
        xs = M @ x
        vo = scale.rmap.vertex_origin
        for comp in scale.matcher.components:
            xl = xs[vo[comp.vertices]]
            total += float(-0.5 * xl @ comp.J @ xl + comp.h @ xl)
    return total


def multiscale_consistency_residual(ms: MultiscaleModel) -> tuple[float, float]:
    """Residual of sum_s M_s^T (aggregated scale form) M_s against the model."""
    n = ms.base.n
    Jt = np.zeros((n, n))
    ht = np.zeros(n)
    for M, scale in zip(scale_lift_matrices(ms), ms.scales):
        ns = scale.size
        Js = np.zeros((ns, ns))
        hs = np.zeros(ns)
        vo = scale.rmap.vertex_origin
        for comp in scale.matcher.components:
            orig = vo[comp.vertices]
            Js[np.ix_(orig, orig)] += comp.J
            hs[orig] += comp.h
        Jt += M.T @ Js @ M
        ht += M.T @ hs
    J0, h0 = ms.base.aggregate_dense
    return float(np.max(np.abs(Jt - J0))), float(np.max(np.abs(ht - h0)))
