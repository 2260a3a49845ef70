import numpy as np
import pytest
from hypothesis import given, strategies as st

from lagrelax.models import (
    CliqueTerm,
    DiscreteFactorModel,
    GaussianInfoModel,
    Hypergraph,
    ModelError,
    NotPairwiseNormalizableError,
    evaluate_objective,
    monomial_table,
    split_quadratic_cliques,
    validate_model,
)


def two_node_ising():
    coeffs = {(0,): 0.5, (1,): -0.5, (0, 1): 1.0}
    return DiscreteFactorModel(Hypergraph(2, tuple(coeffs)), coeffs)


def test_evaluate_two_node_examples():
    m = two_node_ising()
    assert evaluate_objective(m, np.array([1.0, 1.0])) == pytest.approx(1.0)
    assert evaluate_objective(m, np.array([1.0, -1.0])) == pytest.approx(0.0)


def test_evaluate_gaussian_optimum():
    model = GaussianInfoModel.from_cliques(
        2, [((0, 1), np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 1.0]))]
    )
    x = np.array([1 / 3, 1 / 3])
    assert evaluate_objective(model, x) == pytest.approx(1 / 3, abs=1e-12)


def test_evaluate_rejects_bad_input():
    m = two_node_ising()
    with pytest.raises(ModelError):
        evaluate_objective(m, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ModelError):
        evaluate_objective(m, np.array([1.0, 0.5]))


@given(st.permutations(range(5)))
def test_evaluate_invariant_under_edge_order(perm):
    coeffs = {(0,): 0.3, (1,): -0.7, (2,): 0.1, (0, 1): 1.2, (1, 2): -0.4}
    items = list(coeffs.items())
    shuffled = dict(items[i] for i in perm)
    g1 = Hypergraph(3, tuple(coeffs))
    g2 = Hypergraph(3, tuple(shuffled))
    x = np.array([1.0, -1.0, 1.0])
    v1 = evaluate_objective(DiscreteFactorModel(g1, coeffs), x)
    v2 = evaluate_objective(DiscreteFactorModel(g2, shuffled), x)
    assert v1 == pytest.approx(v2, abs=1e-14)


@given(st.integers(min_value=0, max_value=10_000))
def test_evaluate_matches_term_loop_on_mixed_arity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    coeffs = {(v,): float(rng.normal()) for v in range(n)}
    for _ in range(int(rng.integers(0, 15))):
        k = int(rng.integers(2, 5))
        if k <= n:
            coeffs[tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))] = float(rng.normal())
    model = DiscreteFactorModel(Hypergraph(n, tuple(coeffs)), coeffs)
    x = rng.choice([-1.0, 1.0], size=n)
    total = 0.0
    for e in model.graph.hyperedges:
        total += model.theta(e) * np.prod(x[list(e)])
    assert evaluate_objective(model, x) == pytest.approx(total, abs=1e-12)


def test_hypergraph_validation():
    with pytest.raises(ModelError):
        Hypergraph(2, ((0,), (1,), (0, 1), (1, 0)))  # duplicate after sorting
    with pytest.raises(ModelError):
        Hypergraph(2, ((0,), (2,)))  # out of range
    with pytest.raises(ModelError):
        Hypergraph(3, ((0,), (1,)))  # vertex 2 uncovered


def test_validate_discrete():
    coeffs = {(0,): 0.1, (1,): 0.2, (2,): 0.0, (0, 1): -1.0, (1, 2): -1.0, (0, 2): -1.0}
    m = DiscreteFactorModel(Hypergraph(3, tuple(coeffs)), coeffs)
    assert validate_model(m).ok

    bad = DiscreteFactorModel(Hypergraph(3, tuple(coeffs)), {**coeffs, (0, 2, 1): 5.0})
    diag = validate_model(bad)
    assert not diag.ok
    assert any("not a graph hyperedge" in s for s in diag.issues)


def test_validate_gaussian_flags_singular_clique():
    terms = [
        ((0,), np.array([[1.0]]), np.zeros(1)),
        ((1,), np.array([[1.0]]), np.zeros(1)),
        ((0, 1), np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros(2)),
    ]
    model = GaussianInfoModel.from_cliques(2, terms)
    diag = validate_model(model)
    assert not diag.ok
    assert any("singular" in s for s in diag.issues)
    assert diag.clique_min_eig[(0, 1)] == pytest.approx(0.0, abs=1e-12)


def test_gaussian_aggregate_reconstruction():
    rng = np.random.default_rng(0)
    terms = []
    for e in [(0, 1), (1, 2)]:
        a = rng.normal(size=(2, 2))
        terms.append((e, a @ a.T + 0.5 * np.eye(2), rng.normal(size=2)))
    model = GaussianInfoModel.from_cliques(3, terms)
    J, h = model.aggregate_dense
    J2 = np.zeros((3, 3))
    h2 = np.zeros(3)
    for t in model.clique_terms:
        idx = np.array(t.vertices)
        J2[np.ix_(idx, idx)] += t.J
        h2[idx] += t.h
    assert np.max(np.abs(J - J2)) < 1e-12
    assert np.max(np.abs(h - h2)) < 1e-12
    for t in model.clique_terms:
        np.linalg.cholesky(t.J)  # must not raise


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["coefficient", "J", "h"])
def test_non_finite_input_rejected(where, bad):
    with pytest.raises(ModelError, match="non-finite"):
        if where == "coefficient":
            coeffs = {(0,): bad, (1,): 0.5, (0, 1): 1.0}
            DiscreteFactorModel(Hypergraph(2, tuple(coeffs)), coeffs)
        elif where == "J":
            CliqueTerm((0, 1), np.array([[2.0, bad], [bad, 2.0]]), np.zeros(2))
        else:
            CliqueTerm((0, 1), 2.0 * np.eye(2), np.array([0.3, bad]))


def test_clique_term_requires_symmetry():
    with pytest.raises(ModelError):
        CliqueTerm((0, 1), np.array([[1.0, 0.5], [0.2, 1.0]]), np.zeros(2))


def test_monomial_table_shapes():
    t = monomial_table(2.0, 2)
    assert t.shape == (2, 2)
    # index 0 is +1, index 1 is -1
    assert t[0, 0] == 2.0 and t[0, 1] == -2.0 and t[1, 1] == 2.0


class TestSplitQuadraticCliques:
    def test_diagonal_gives_singletons(self):
        model = split_quadratic_cliques(2.0 * np.eye(3))
        assert all(len(t.vertices) == 1 for t in model.clique_terms)
        assert np.allclose(model.aggregate_dense[0], 2.0 * np.eye(3))

    def test_ridge_zero_fails_on_edges(self):
        J = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(NotPairwiseNormalizableError):
            split_quadratic_cliques(J, ridge=0.0)

    def test_ridge_inflates_by_multiplicity(self):
        J = np.array([[2.0, 1.0], [1.0, 2.0]])
        model = split_quadratic_cliques(J, ridge=0.1)
        edge = next(t for t in model.clique_terms if len(t.vertices) == 2)
        assert np.allclose(edge.J, [[1.1, 1.0], [1.0, 1.1]])
        # every vertex is in one edge clique and one node clique
        agg, _ = model.aggregate_dense
        assert np.allclose(agg, J + 0.2 * np.eye(2))
        for t in model.clique_terms:
            assert np.linalg.eigvalsh(t.J)[0] > 0

    def test_tight_diagonal_needs_ridge(self):
        J = np.array([[1.0, 0.9], [0.9, 1.0]])
        with pytest.raises(NotPairwiseNormalizableError):
            split_quadratic_cliques(J, ridge=0.0)
        model = split_quadratic_cliques(J, ridge=0.05)
        for t in model.clique_terms:
            assert np.linalg.eigvalsh(t.J)[0] > 0

    def test_negative_residual_rejected(self):
        J = np.array([[1.0, 2.0], [2.0, 10.0]])
        with pytest.raises(NotPairwiseNormalizableError):
            split_quadratic_cliques(J, ridge=0.5)

    def test_h_is_preserved(self):
        J = np.array([[3.0, 1.0], [1.0, 3.0]])
        h = np.array([0.7, -0.2])
        model = split_quadratic_cliques(J, ridge=0.1, h=h)
        assert np.allclose(model.aggregate_dense[1], h)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_aggregate_is_J_plus_ridge_diag(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        J = np.zeros((n, n))
        for i in range(n - 1):
            J[i, i + 1] = J[i + 1, i] = rng.normal()
        np.fill_diagonal(J, np.sum(np.abs(J), axis=1) + rng.uniform(0.1, 1.0, n))
        ridge = float(rng.uniform(0.01, 0.5))
        model = split_quadratic_cliques(J, ridge=ridge)
        agg, _ = model.aggregate_dense
        mult = model.meta["ridge_multiplicity"]
        assert np.max(np.abs(agg - (J + ridge * np.diag(mult)))) < 1e-12
