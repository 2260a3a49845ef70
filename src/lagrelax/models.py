"""Model representations: binary hyperedge models and Gaussian information forms.

Discrete objectives are sums of monomial terms over hyperedges,
f(x) = sum_E theta_E * prod_{v in E} x_v, with labels x_v in {-1, +1}.
Gaussian objectives are f(x) = -1/2 x^T J x + h^T x, with J assembled from
positive definite clique terms. Models are value-like and never mutated
after construction; solvers work on augmented copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# State index 0 maps to label +1, index 1 to label -1. Deterministic
# tie-breaks that take the first argmax therefore prefer +1.
LABELS = np.array([1.0, -1.0])


class ModelError(ValueError):
    """Invalid model input."""


class NotPositiveDefiniteError(ModelError):
    """A matrix required to be symmetric positive definite is not."""


class NotPairwiseNormalizableError(ModelError):
    """J admits no splitting into positive definite pairwise blocks."""


def canonical_edge(edge) -> tuple[int, ...]:
    """Sorted tuple form used as the key for every hyperedge."""
    return tuple(sorted(int(v) for v in edge))


def monomial_table(theta: float, arity: int) -> np.ndarray:
    """Log-potential table of theta * prod_v x_v over `arity` binary variables."""
    t = np.array(float(theta))
    for _ in range(arity):
        t = np.multiply.outer(t, LABELS)
    return np.atleast_1d(t)


@dataclass(frozen=True)
class Hypergraph:
    """Vertex set [0, n) plus a deduplicated collection of vertex subsets."""

    vertex_count: int
    hyperedges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.vertex_count
        if n <= 0:
            raise ModelError("vertex_count must be positive")
        canon = []
        seen = set()
        covered = set()
        for e in self.hyperedges:
            ce = canonical_edge(e)
            if not ce:
                raise ModelError("empty hyperedge")
            if len(set(ce)) != len(ce):
                raise ModelError(f"repeated vertex in hyperedge {ce}")
            if ce[0] < 0 or ce[-1] >= n:
                raise ModelError(f"hyperedge {ce} out of range for n={n}")
            if ce in seen:
                raise ModelError(f"duplicate hyperedge {ce}")
            seen.add(ce)
            covered.update(ce)
            canon.append(ce)
        if covered != set(range(n)):
            missing = sorted(set(range(n)) - covered)
            raise ModelError(f"vertices not covered by any hyperedge: {missing}")
        object.__setattr__(self, "hyperedges", tuple(canon))

    @cached_property
    def edge_index(self) -> dict[tuple[int, ...], int]:
        return {e: i for i, e in enumerate(self.hyperedges)}

    def pairwise_edges(self) -> list[tuple[int, int]]:
        return [e for e in self.hyperedges if len(e) == 2]


@dataclass(frozen=True)
class DiscreteFactorModel:
    """Binary MRF with one coefficient per hyperedge, labels in {-1,+1}."""

    graph: Hypergraph
    coefficients: dict[tuple[int, ...], float]

    def __post_init__(self):
        coeffs = {canonical_edge(e): float(t) for e, t in self.coefficients.items()}
        bad = [e for e, t in coeffs.items() if not np.isfinite(t)]
        if bad:
            raise ModelError(f"non-finite coefficient on {bad[0]}")
        object.__setattr__(self, "coefficients", coeffs)

    def theta(self, edge) -> float:
        return self.coefficients.get(canonical_edge(edge), 0.0)

    @cached_property
    def monomials(self) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """Coefficients in hyperedge order, and per arity the positions of
        its hyperedges with their vertex index array."""
        edges = self.graph.hyperedges
        by_arity: dict[int, list[int]] = {}
        for i, e in enumerate(edges):
            by_arity.setdefault(len(e), []).append(i)
        groups = [
            (np.array(pos), np.array([edges[i] for i in pos])) for _, pos in sorted(by_arity.items())
        ]
        return np.array([self.theta(e) for e in edges]), groups

    @property
    def n(self) -> int:
        return self.graph.vertex_count


@dataclass(frozen=True)
class CliqueTerm:
    """One quadratic term -1/2 x_E^T J x_E + h^T x_E on a vertex subset."""

    vertices: tuple[int, ...]
    J: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        v = canonical_edge(self.vertices)
        k = len(v)
        J = np.asarray(self.J, dtype=float).reshape(k, k)
        h = np.asarray(self.h, dtype=float).reshape(k)
        if not (np.all(np.isfinite(J)) and np.all(np.isfinite(h))):
            raise ModelError(f"clique {v}: non-finite J or h")
        if not np.allclose(J, J.T, atol=1e-12):
            raise ModelError(f"clique {v}: J not symmetric")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class GaussianInfoModel:
    """Gaussian model in information form, built from clique terms.

    The aggregate information matrix is the sum of zero-padded clique
    matrices; clique supports must be unique and each J_E positive definite
    for the splitting machinery downstream to be well posed.
    """

    graph: Hypergraph
    clique_terms: tuple[CliqueTerm, ...]
    meta: dict = field(default_factory=dict, compare=False)

    @staticmethod
    def from_cliques(n: int, terms) -> "GaussianInfoModel":
        terms = tuple(
            t if isinstance(t, CliqueTerm) else CliqueTerm(*t) for t in terms
        )
        supports = [t.vertices for t in terms]
        if len(set(supports)) != len(supports):
            raise ModelError("duplicate clique supports")
        graph = Hypergraph(n, tuple(supports))
        return GaussianInfoModel(graph, terms)

    @property
    def n(self) -> int:
        return self.graph.vertex_count

    @cached_property
    def aggregate_dense(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        J = np.zeros((n, n))
        h = np.zeros(n)
        for t in self.clique_terms:
            idx = np.array(t.vertices)
            J[np.ix_(idx, idx)] += t.J
            h[idx] += t.h
        return J, h


@dataclass
class ModelDiagnostics:
    ok: bool
    issues: list[str]
    clique_min_eig: dict[tuple[int, ...], float] | None = None
    aggregate_pd: bool | None = None


def evaluate_objective(model, x) -> float:
    """Objective value of an assignment under either model family.

    Discrete: sum_E theta_E prod_{v in E} x_v with x_v in {-1,+1}.
    Gaussian: -1/2 x^T J x + h^T x on the aggregate information form.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.n:
        raise ModelError(f"assignment length {x.shape} does not match n={model.n}")
    if isinstance(model, DiscreteFactorModel):
        if not np.all(np.abs(x) == 1.0):
            raise ModelError("discrete labels must be -1 or +1")
        theta, groups = model.monomials
        terms = np.empty(len(theta))
        for pos, verts in groups:
            terms[pos] = theta[pos] * np.prod(x[verts], axis=1)
        # Summed one term at a time in hyperedge order, as the brute-force
        # oracle does, so that a certified optimum equals the oracle's value
        # exactly.
        return float(np.cumsum(terms)[-1])
    if isinstance(model, GaussianInfoModel):
        J, h = model.aggregate_dense
        return float(-0.5 * x @ J @ x + h @ x)
    raise ModelError(f"unsupported model type {type(model)!r}")


def validate_model(model) -> ModelDiagnostics:
    """Non-raising sanity report; construction checks only structure and
    finiteness."""
    issues: list[str] = []
    if isinstance(model, DiscreteFactorModel):
        edges = set(model.graph.hyperedges)
        keys = set(model.coefficients)
        for k in sorted(keys - edges):
            issues.append(f"coefficient key {k} is not a graph hyperedge")
        for k in sorted(edges - keys):
            issues.append(f"hyperedge {k} has no coefficient")
        return ModelDiagnostics(ok=not issues, issues=issues)

    if isinstance(model, GaussianInfoModel):
        min_eigs: dict[tuple[int, ...], float] = {}
        for t in model.clique_terms:
            ev = float(np.linalg.eigvalsh(t.J)[0])
            min_eigs[t.vertices] = ev
            if ev <= 0.0:
                issues.append(f"clique {t.vertices} singular (min eigenvalue {ev:.3g})")
        J, _ = model.aggregate_dense
        try:
            np.linalg.cholesky(J)
            agg_pd = True
        except np.linalg.LinAlgError:
            agg_pd = False
            issues.append("aggregate J is not positive definite")
        # Off-diagonal fill must stay within the union of clique supports.
        allowed = np.zeros_like(J, dtype=bool)
        for t in model.clique_terms:
            idx = np.array(t.vertices)
            allowed[np.ix_(idx, idx)] = True
        stray = np.argwhere((np.abs(J) > 0) & ~allowed)
        if stray.size:
            issues.append(f"aggregate J has fill outside clique supports at {stray[0]}")
        return ModelDiagnostics(
            ok=not issues, issues=issues, clique_min_eig=min_eigs, aggregate_pd=agg_pd
        )
    return ModelDiagnostics(ok=False, issues=[f"unsupported model type {type(model)!r}"])


def split_quadratic_cliques(
    J, ridge: float = 0.0, h=None, atol: float = 1e-12
) -> GaussianInfoModel:
    """Constructive pairwise splitting of a symmetric J.

    Each off-diagonal J_ij is assigned to a 2x2 block
    [[|J_ij|, J_ij], [J_ij, |J_ij|]] and the leftover diagonal goes to
    singleton cliques. With ridge > 0, ridge*I is added to every clique so
    the blocks are strictly positive definite; the aggregate then equals
    J + ridge*diag(m) where m_v counts the cliques containing v (reported
    in meta["ridge_multiplicity"]). Fails when the leftover diagonal is
    negative or when ridge=0 leaves a singular block.
    """
    J = np.asarray(J, dtype=float)
    n = J.shape[0]
    if J.shape != (n, n) or not np.allclose(J, J.T, atol=1e-10):
        raise ModelError("J must be square symmetric")
    if ridge < 0:
        raise ModelError("ridge must be nonnegative")
    h = np.zeros(n) if h is None else np.asarray(h, dtype=float).reshape(n)

    abs_row = np.sum(np.abs(J), axis=1) - np.abs(np.diag(J))
    residual = np.diag(J) - abs_row
    bad = np.where(residual < -atol)[0]
    if bad.size:
        raise NotPairwiseNormalizableError(
            f"negative diagonal residual at vertices {bad.tolist()}; "
            "provide explicit clique terms instead"
        )

    terms: list[CliqueTerm] = []
    multiplicity = np.zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            a = J[i, j]
            if a == 0.0:
                continue
            if ridge == 0.0:
                raise NotPairwiseNormalizableError(
                    f"edge block ({i},{j}) is singular with ridge=0; "
                    "use ridge>0 or explicit clique terms"
                )
            block = np.array([[abs(a) + ridge, a], [a, abs(a) + ridge]])
            terms.append(CliqueTerm((i, j), block, np.zeros(2)))
            multiplicity[i] += 1
            multiplicity[j] += 1
    for i in range(n):
        d = max(residual[i], 0.0) + ridge
        isolated = multiplicity[i] == 0
        if d > 0.0:
            terms.append(CliqueTerm((i,), np.array([[d]]), np.array([h[i]])))
            multiplicity[i] += 1
        elif isolated:
            raise NotPairwiseNormalizableError(
                f"vertex {i} is isolated with zero diagonal"
            )
        elif h[i] != 0.0:
            # No singleton clique survives; ride along on an edge clique.
            for k, t in enumerate(terms):
                if i in t.vertices:
                    hv = t.h.copy()
                    hv[t.vertices.index(i)] += h[i]
                    terms[k] = CliqueTerm(t.vertices, t.J, hv)
                    break

    model = GaussianInfoModel.from_cliques(n, terms)
    model.meta["ridge"] = ridge
    model.meta["ridge_multiplicity"] = multiplicity
    return model
