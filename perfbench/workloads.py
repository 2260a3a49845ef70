"""Seeded inputs and solve cases for the three benchmark workloads.

The model families follow ``lagrelax.generators`` but are generated here,
so that a change to the package's generators cannot change what the
benchmark measures. Each case pairs one public solve call with the public
builder of the same relaxation (timed as set-up) and with the checks of
its result against references computed in ``checks.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lagrelax.decomposition import DecompositionConfig
from lagrelax.discrete import build_relaxation, solve_discrete
from lagrelax.gaussian import build_gaussian_relaxation, solve_gaussian
from lagrelax.models import CliqueTerm, DiscreteFactorModel, GaussianInfoModel, Hypergraph
from lagrelax.multiscale import build_multiscale, solve_multiscale

import checks

# ising-grid: ISING_COPIES attractive and ISING_COPIES frustrated grids of
# ISING_M x ISING_M per run, each solved under several strategies.
ISING_M = 5
ISING_COPIES = 8
ATTRACTIVE_SIGMA = 1.0
FRUSTRATED_SIGMA = 0.7
ATTRACTIVE_STRATEGIES = ("disjoint-edges", "spanning-trees", "loops")
FRUSTRATED_STRATEGIES = ("disjoint-edges", "loops")

# gauss-strips: GAUSS_COPIES of each (family, rows, cols, strip width K,
# overlap L). The first two have strips of 40 variables (dense Schur path),
# the last of 66 (sparse eliminator).
GAUSS_COPIES = 2
GAUSS_CASES = (
    ("membrane", 10, 10, 4, 2),
    ("plate", 10, 10, 4, 2),
    ("membrane", 11, 10, 6, 2),
)
GAUSS_EPS = 0.01
GAUSS_TOL = 1e-8

# chain-multiscale: CHAIN_COPIES chains per run
CHAIN_COPIES = 3
CHAIN_N = 256
CHAIN_EPS = 1e-4
CHAIN_LEVELS = 3
CHAIN_BLOCK = 8
CHAIN_TOL = 1e-8


@dataclass
class Case:
    """One public solve call of a workload and everything needed to check it."""

    label: str
    kind: str  # "discrete", "gaussian" or "multiscale"
    build: Callable[[], object]  # public builder of the same relaxation
    solve: Callable[[], object]  # public solver; returns its report
    check: Callable[[object], list[str]]  # failed checks, empty when correct

    def sweeps(self, report) -> int:
        """Dual sweeps (discrete) or outer iterations the solve ran."""
        return len(report.dual_trace) if self.kind == "discrete" else report.iterations


# ---------------------------------------------------------------------------
# Model families


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def ising_grid(m: int, sigma: float, frustrated: bool, rng) -> DiscreteFactorModel:
    """N(0, sigma^2) node terms; couplings +1, or uniform on {-1, +1}."""
    n = m * m
    coeffs = {(v,): float(t) for v, t in enumerate(rng.normal(0.0, sigma, size=n))}
    for e in grid_edges(m, m):
        coeffs[e] = float(rng.choice([-1.0, 1.0])) if frustrated else 1.0
    return DiscreteFactorModel(Hypergraph(n, tuple(coeffs)), coeffs)


def regularized_gaussian(n: int, structural, eps: float, h) -> tuple[GaussianInfoModel, np.ndarray]:
    """Node cliques plus structural cliques; eps is spread over the cliques
    at each vertex so that every term is positive definite.

    Returns the model and its aggregate information matrix, assembled here.
    """
    count = np.ones(n)
    for verts, _ in structural:
        count[list(verts)] += 1
    terms = [CliqueTerm((v,), np.array([[eps / count[v]]]), np.array([h[v]])) for v in range(n)]
    J = np.diag(eps / count)
    for verts, block in structural:
        block = block + np.diag([eps / count[v] for v in verts])
        terms.append(CliqueTerm(verts, block, np.zeros(len(verts))))
        J[np.ix_(verts, verts)] += block
    return GaussianInfoModel.from_cliques(n, terms), J


def membrane(rows: int, cols: int, eps: float, rng):
    """Smoothness prior: 2 (x_i - x_j)^2 per grid edge; h ~ N(0, 1)."""
    n = rows * cols
    h = rng.normal(0.0, 1.0, size=n)
    diff = 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    model, J = regularized_gaussian(n, [(e, diff) for e in grid_edges(rows, cols)], eps, h)
    return model, J, h


def plate(rows: int, cols: int, eps: float, rng):
    """Curvature prior: 2 (x_v - mean of grid neighbours)^2 per node."""
    n = rows * cols
    h = rng.normal(0.0, 1.0, size=n)
    structural = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            nbrs = [
                u
                for u, ok in (
                    (v - cols, r > 0),
                    (v + cols, r + 1 < rows),
                    (v - 1, c > 0),
                    (v + 1, c + 1 < cols),
                )
                if ok
            ]
            verts = tuple(sorted([v] + nbrs))
            a = np.array([1.0 if u == v else -1.0 / len(nbrs) for u in verts])
            structural.append((verts, 2.0 * np.outer(a, a)))
    model, J = regularized_gaussian(n, structural, eps, h)
    return model, J, h


def chain(n: int, eps: float, rng):
    """1D smoothness chain; correlation length about 1/sqrt(eps)."""
    h = rng.normal(0.0, 1.0, size=n)
    diff = 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    model, J = regularized_gaussian(n, [((v, v + 1), diff) for v in range(n - 1)], eps, h)
    return model, J, h


# ---------------------------------------------------------------------------
# Workloads


def ising_cases(rng) -> list[Case]:
    m = ISING_M
    cases = []
    for copy in range(ISING_COPIES):
        for frustrated, sigma, strategies in (
            (False, ATTRACTIVE_SIGMA, ATTRACTIVE_STRATEGIES),
            (True, FRUSTRATED_SIGMA, FRUSTRATED_STRATEGIES),
        ):
            model = ising_grid(m, sigma, frustrated, rng)
            ref = checks.DiscreteReference.for_grid(model.coefficients, m)
            kind = "frustrated" if frustrated else "attractive"
            for strategy in strategies:
                cfg = DecompositionConfig(strategy=strategy, rows=m, cols=m)
                cases.append(
                    Case(
                        label=f"{kind}/{strategy}/{copy}",
                        kind="discrete",
                        build=lambda model=model, cfg=cfg: build_relaxation(model, cfg),
                        solve=lambda model=model, cfg=cfg: solve_discrete(model, cfg),
                        check=lambda rep, ref=ref, att=not frustrated: checks.check_discrete(
                            rep, ref, attractive=att
                        ),
                    )
                )
    return cases


def gauss_cases(rng) -> list[Case]:
    cases = []
    for copy, (family, rows, cols, width, overlap) in itertools.product(range(GAUSS_COPIES), GAUSS_CASES):
        model, J, h = (membrane if family == "membrane" else plate)(rows, cols, GAUSS_EPS, rng)
        ref = checks.GaussianReference.dense(J, h)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=rows, cols=cols, strip_width=width, overlap=overlap
        )
        cases.append(
            Case(
                label=f"{family}/{rows}x{cols}/K{width}L{overlap}/{copy}",
                kind="gaussian",
                build=lambda model=model, cfg=cfg: build_gaussian_relaxation(model, cfg),
                solve=lambda model=model, cfg=cfg: solve_gaussian(model, cfg, tol=GAUSS_TOL),
                check=lambda rep, ref=ref: checks.check_gaussian(rep, ref),
            )
        )
    return cases


def chain_cases(rng) -> list[Case]:
    cases = []
    for copy in range(CHAIN_COPIES):
        model, J, h = chain(CHAIN_N, CHAIN_EPS, rng)
        ref = checks.GaussianReference.dense(J, h)
        cases.append(
            Case(
                label=f"chain/n{CHAIN_N}/levels{CHAIN_LEVELS}/block{CHAIN_BLOCK}/{copy}",
                kind="multiscale",
                build=lambda model=model: build_multiscale(model, CHAIN_LEVELS, CHAIN_BLOCK),
                solve=lambda model=model: solve_multiscale(
                    model, CHAIN_LEVELS, CHAIN_BLOCK, tol=CHAIN_TOL
                ),
                check=lambda rep, ref=ref: checks.check_multiscale(rep, ref),
            )
        )
    return cases


WORKLOADS = {
    "ising-grid": ising_cases,
    "gauss-strips": gauss_cases,
    "chain-multiscale": chain_cases,
}


def make_cases(workload: str, seed: int) -> list[Case]:
    """The workload's cases; the same seed gives the same inputs."""
    return WORKLOADS[workload](np.random.default_rng(seed))
