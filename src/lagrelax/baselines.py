"""Classical baselines: overlapping block Gauss-Seidel and Gaussian loopy
belief propagation in information form. These share no state with the
relaxation solvers; they operate on the aggregate (h, J)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .decomposition import _window_starts
from .models import GaussianInfoModel


def overlapping_blocks_1d(n: int, size: int, overlap: int) -> list[list[int]]:
    starts = _window_starts(n, size, max(size - overlap, 1))
    return [list(range(s, min(s + size, n))) for s in starts]


def vertical_strip_blocks(rows: int, cols: int, K: int, L: int) -> list[list[int]]:
    starts = _window_starts(cols, K, max(K - L, 1))
    return [
        [r * cols + c for r in range(rows) for c in range(s, min(s + K, cols))]
        for s in starts
    ]


@dataclass
class BaselineTrace:
    sweep: int
    change: float
    err: float


def baseline_block_gauss_seidel(
    model: GaussianInfoModel,
    blocks: list[list[int]],
    tol: float = 1e-10,
    max_iters: int = 500,
    reference=None,
):
    """Overlapping block Gauss-Seidel on J x = h, one block solve at a time."""
    J, h = model.aggregate_dense
    n = model.n
    covered = set()
    for b in blocks:
        covered.update(b)
    if covered != set(range(n)):
        raise ValueError("blocks do not cover all variables")
    factors = []
    for b in blocks:
        bidx = np.array(b)
        factors.append((bidx, cho_factor(J[np.ix_(bidx, bidx)])))
    x = np.zeros(n)
    trace: list[BaselineTrace] = []
    for sweep in range(1, max_iters + 1):
        x_prev = x.copy()
        for bidx, chol in factors:
            rhs = h[bidx] - J[bidx] @ x + J[np.ix_(bidx, bidx)] @ x[bidx]
            x[bidx] = cho_solve(chol, rhs)
        change = float(np.max(np.abs(x - x_prev)))
        err = (
            float(np.max(np.abs(x - reference))) if reference is not None else np.nan
        )
        trace.append(BaselineTrace(sweep, change, err))
        if change < tol:
            break
    return x, trace


def baseline_gaussian_lbp(
    model: GaussianInfoModel, max_iters: int = 500, tol: float = 1e-10
):
    """Parallel-update Gaussian loopy BP on the pairwise structure of J.

    Returns (means, variances, converged). Non-convergence (including a
    breakdown where some cavity precision turns nonpositive) is reported,
    not raised; models with strong loop interactions are expected to fail.
    """
    J, h = model.aggregate_dense
    n = model.n
    src, dst = [], []
    for i in range(n):
        for j in range(n):
            if i != j and J[i, j] != 0.0:
                src.append(i)
                dst.append(j)
    src = np.array(src, dtype=int)
    dst = np.array(dst, dtype=int)
    Jij = J[src, dst]
    nmsg = src.size
    # Reverse message index: position of (dst, src) in the edge list.
    lookup = {(int(a), int(b)): k for k, (a, b) in enumerate(zip(src, dst))}
    rev = np.array([lookup[(int(b), int(a))] for a, b in zip(src, dst)], dtype=int)

    dJ = np.zeros(nmsg)
    dh = np.zeros(nmsg)
    diag = np.diag(J).copy()
    converged = False
    for _ in range(max_iters):
        sumJ = np.zeros(n)
        sumh = np.zeros(n)
        np.add.at(sumJ, dst, dJ)
        np.add.at(sumh, dst, dh)
        # Cavity at the source of each message excludes its reverse message.
        cavJ = diag[src] + sumJ[src] - dJ[rev]
        cavh = h[src] + sumh[src] - dh[rev]
        if np.any(cavJ <= 0) or not np.all(np.isfinite(cavJ)):
            break
        dJ_new = -Jij * Jij / cavJ
        dh_new = -Jij * cavh / cavJ
        delta = max(np.max(np.abs(dJ_new - dJ)), np.max(np.abs(dh_new - dh)))
        dJ, dh = dJ_new, dh_new
        if delta < tol:
            converged = True
            break
    sumJ = np.zeros(n)
    sumh = np.zeros(n)
    np.add.at(sumJ, dst, dJ)
    np.add.at(sumh, dst, dh)
    prec = diag + sumJ
    with np.errstate(divide="ignore", invalid="ignore"):
        variances = np.where(prec > 0, 1.0 / prec, np.nan)
        means = np.where(prec > 0, (h + sumh) / prec, np.nan)
    if not np.all(np.isfinite(variances)):
        converged = False
    return means, variances, converged
