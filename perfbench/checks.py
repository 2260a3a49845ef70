"""References and correctness checks for the benchmark's solve reports.

References are computed here, independently of ``lagrelax.oracle``: a
column-state dynamic program for grid MAP values and a dense numpy solve
for Gaussian models. Each check returns a list of failure messages; an
empty list means the report passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEAK_DUALITY_RTOL = 1e-9
GAP_RTOL = 1e-6
ATTRACTIVE_DUAL_RTOL = 1e-4
GAUSS_MEAN_ATOL = 1e-6
GAUSS_DUAL_RTOL = 1e-8
CONSISTENCY_MAX = 1e-9
VARIANCE_SLACK = 1e-9  # relative rounding allowance on variance_bound >= variance
CHAIN_MEAN_RTOL = 1e-6


def objective(coefficients: dict, x) -> float:
    """sum_E theta_E prod_{v in E} x_v, recomputed from the coefficients."""
    x = np.asarray(x, dtype=float)
    return float(sum(theta * np.prod(x[list(e)]) for e, theta in coefficients.items()))


def grid_map_value(m: int, coefficients: dict) -> float:
    """Maximum of a pairwise m x m grid objective over {-1, +1}^n.

    Dynamic program over column states: state s of column c sets row r to
    +1 when bit r of s is 0 and to -1 otherwise.
    """
    node = np.zeros((m, m))
    right = np.zeros((m, m))  # (r, c) - (r, c + 1)
    down = np.zeros((m, m))  # (r, c) - (r + 1, c)
    for e, theta in coefficients.items():
        if len(e) == 1:
            node[divmod(e[0], m)] += theta
        elif e[1] - e[0] == 1 and e[0] // m == e[1] // m:
            right[divmod(e[0], m)] += theta
        elif e[1] - e[0] == m:
            down[divmod(e[0], m)] += theta
        else:
            raise ValueError(f"{e} is not a term of an {m}x{m} grid")
    states = 1.0 - 2.0 * ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1)

    def column(c):
        return states @ node[:, c] + (states[:, :-1] * states[:, 1:]) @ down[:-1, c]

    score = column(0)
    for c in range(1, m):
        coupling = (states * right[:, c - 1]) @ states.T  # [previous, current]
        score = np.max(score[:, None] + coupling, axis=0) + column(c)
    return float(np.max(score))


@dataclass(frozen=True)
class DiscreteReference:
    coefficients: dict
    n: int
    f_star: float

    @classmethod
    def for_grid(cls, coefficients: dict, m: int) -> "DiscreteReference":
        return cls(dict(coefficients), m * m, grid_map_value(m, coefficients))


def check_discrete(report, ref: DiscreteReference, attractive: bool) -> list[str]:
    """Weak duality, primal order, gap flag, and optimality where certified."""
    f = ref.f_star
    tol = WEAK_DUALITY_RTOL * (1 + abs(f))
    fails = []
    low = [t.sweep for t in report.dual_trace if not t.g >= f - tol]
    if low:
        fails.append(f"weak duality: dual below f*={f!r} at sweeps {low[:5]}")
    if not report.final_dual >= f - tol:
        fails.append(f"weak duality: final dual {report.final_dual!r} < f*={f!r}")
    x = np.asarray(report.estimate, dtype=float)
    if x.shape != (ref.n,) or not np.all(np.abs(x) == 1):
        return fails + [f"estimate is not a +-1 labelling of every vertex: {x!r}"]
    obj = objective(ref.coefficients, x)
    if not (obj <= report.best_primal + tol and report.best_primal <= f + tol):
        fails.append(
            f"order: need objective {obj!r} <= best_primal {report.best_primal!r} <= f* {f!r}"
        )
    gapped = report.final_dual - f > GAP_RTOL * (1 + abs(f))
    if gapped and not report.gap_flag:
        fails.append(f"gap flag cleared with final dual {report.final_dual!r} > f*={f!r}")
    if not report.gap_flag and abs(obj - f) > tol:
        fails.append(f"certified estimate has objective {obj!r}, not f*={f!r}")
    if attractive:
        if abs(report.best_primal - f) > tol:
            fails.append(f"attractive: best_primal {report.best_primal!r} != f*={f!r}")
        if abs(report.final_dual - f) > ATTRACTIVE_DUAL_RTOL * max(1.0, abs(f)):
            fails.append(f"attractive: final dual {report.final_dual!r} not within 1e-4 of f*={f!r}")
    return fails


@dataclass(frozen=True)
class GaussianReference:
    mean: np.ndarray
    variance: np.ndarray
    value: float  # max_x -1/2 x'Jx + h'x = 1/2 h'J^{-1}h

    @classmethod
    def dense(cls, J: np.ndarray, h: np.ndarray) -> "GaussianReference":
        cov = np.linalg.inv(J)
        mean = np.linalg.solve(J, h)
        return cls(mean, np.diag(cov).copy(), float(0.5 * h @ mean))


def check_gaussian(report, ref: GaussianReference) -> list[str]:
    """Means, dual value and variance bounds against the dense solve."""
    fails = []
    if not report.converged:
        fails.append(f"not converged after {report.iterations} iterations")
    err = float(np.max(np.abs(np.asarray(report.means) - ref.mean)))
    if not err <= GAUSS_MEAN_ATOL:
        fails.append(f"means off the dense solve by {err!r}")
    if not abs(report.dual - ref.value) <= GAUSS_DUAL_RTOL * max(1.0, abs(ref.value)):
        fails.append(f"dual {report.dual!r} != dense optimum {ref.value!r}")
    bound = np.asarray(report.variance_bound)
    below = np.where(~(bound >= ref.variance * (1 - VARIANCE_SLACK)))[0]
    if below.size:
        fails.append(f"variance_bound below the exact variance at nodes {below[:5].tolist()}")
    if not report.consistency_max < CONSISTENCY_MAX:
        fails.append(f"consistency_max {report.consistency_max!r} >= {CONSISTENCY_MAX}")
    return fails


def check_multiscale(report, ref: GaussianReference) -> list[str]:
    fails = []
    if not report.converged:
        fails.append(f"not converged after {report.iterations} iterations")
    scale = float(np.max(np.abs(ref.mean)))
    err = float(np.max(np.abs(np.asarray(report.means) - ref.mean)))
    if not err <= CHAIN_MEAN_RTOL * scale:
        fails.append(f"means off the dense solve by {err!r} (max |mean| {scale!r})")
    return fails
