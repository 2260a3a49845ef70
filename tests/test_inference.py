import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lagrelax.decomposition import build_decomposition, split_potentials
from lagrelax.inference import (
    build_engines,
    gaussian_component_mean,
    gaussian_marginal_info,
    min_fill_order,
)
from lagrelax.models import (
    DiscreteFactorModel,
    Hypergraph,
    NotPositiveDefiniteError,
    monomial_table,
)


def chain_model(thetas_v, thetas_e):
    n = len(thetas_v)
    coeffs = {(v,): thetas_v[v] for v in range(n)}
    for v, t in enumerate(thetas_e):
        coeffs[(v, v + 1)] = t
    return DiscreteFactorModel(Hypergraph(n, tuple(coeffs)), coeffs)


def single_engine(model):
    rmap = build_decomposition(model.graph, "spanning-trees")
    aug = split_potentials(model, rmap)
    engines = build_engines(aug)
    assert len(engines) == 1
    return engines[0]


def brute_tables(model, tau):
    """Enumeration oracle for tempered log-marginals and log-partition."""
    n = model.n
    states = list(itertools.product([1.0, -1.0], repeat=n))
    fs = np.array(
        [
            sum(model.theta(e) * np.prod([s[v] for v in e]) for e in model.graph.hyperedges)
            for s in states
        ]
    )
    w = np.exp(fs / tau - np.max(fs / tau))
    logZ = np.log(w.sum()) + np.max(fs / tau)
    marg = {}
    for e in model.graph.hyperedges:
        t = np.zeros((2,) * len(e))
        for s, wi in zip(states, w):
            idx = tuple(int((1 - s[v]) / 2) for v in e)
            t[idx] += wi
        marg[e] = np.log(t / w.sum())
    return marg, tau * logZ


class TestTemperedMarginals:
    def test_single_node_uniform(self):
        coeffs = {(0,): 0.0}
        m = DiscreteFactorModel(Hypergraph(1, ((0,),)), coeffs)
        eng = single_engine(m)
        (rid,) = eng.tables
        assert np.allclose(eng.log_marginal(rid, 1.0), np.log(0.5))
        assert eng.log_partition(1.0) == pytest.approx(np.log(2.0))

    def test_single_node_potential(self):
        t = 0.8
        m = DiscreteFactorModel(Hypergraph(1, ((0,),)), {(0,): t})
        eng = single_engine(m)
        assert eng.log_partition(1.0) == pytest.approx(np.log(np.exp(t) + np.exp(-t)))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_chain_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        m = chain_model(rng.normal(size=3), rng.normal(size=2))
        tau = float(rng.uniform(0.2, 2.0))
        eng = single_engine(m)
        want_tables, want_logZ = brute_tables(m, tau)
        assert eng.log_partition(tau) == pytest.approx(want_logZ, abs=1e-12)
        rmap_edges = {}
        for rid, e in eng.edge_vars.items():
            orig = tuple(sorted(eng.aug_vertices[v] for v in e))
            rmap_edges[orig] = eng.log_marginal(rid, tau)
        for e, want in want_tables.items():
            assert np.max(np.abs(rmap_edges[e] - want)) < 1e-12

    def test_tau_floor(self):
        m = DiscreteFactorModel(Hypergraph(1, ((0,),)), {(0,): 0.0})
        eng = single_engine(m)
        with pytest.raises(ValueError):
            eng.log_partition(1e-12)


class TestMaxMarginals:
    def test_single_node(self):
        m = DiscreteFactorModel(Hypergraph(1, ((0,),)), {(0,): 0.7})
        eng = single_engine(m)
        (rid,) = eng.tables
        assert np.allclose(eng.max_marginal(rid), [0.7, -0.7])
        assert eng.component_max() == pytest.approx(0.7)

    def test_middle_of_repulsive_chain(self):
        m = chain_model([0.0, 0.0, 0.0], [-1.0, -1.0])
        eng = single_engine(m)
        t = eng.vertex_max_marginal(1)
        assert np.allclose(t, [2.0, 2.0])

    @given(st.integers(min_value=0, max_value=10_000))
    def test_every_table_peaks_at_component_max(self, seed):
        rng = np.random.default_rng(seed)
        m = chain_model(rng.normal(size=4), rng.normal(size=3))
        eng = single_engine(m)
        cmax = eng.component_max()
        for rid in eng.tables:
            assert np.max(eng.max_marginal(rid)) == pytest.approx(cmax, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_tempered_limit_approaches_max_marginals(self, seed):
        rng = np.random.default_rng(seed)
        m = chain_model(rng.normal(size=3), rng.normal(size=2))
        eng = single_engine(m)
        tau = 1e-3
        logZ = eng.log_partition(tau)
        for rid in list(eng.tables):
            approx = tau * eng.log_marginal(rid, tau) + logZ
            exact = eng.max_marginal(rid)
            assert np.max(np.abs(approx - exact)) < 1e-2


class TestComponentMap:
    def test_positive_single_node(self):
        m = DiscreteFactorModel(Hypergraph(1, ((0,),)), {(0,): 0.5})
        eng = single_engine(m)
        t = eng.vertex_max_marginal(0)
        assert eng.map_assignment()[0] == 1.0 and t[0] - t[1] == pytest.approx(1.0)

    def test_zero_breaks_to_plus_one(self):
        m = DiscreteFactorModel(Hypergraph(1, ((0,),)), {(0,): 0.0})
        eng = single_engine(m)
        t = eng.vertex_max_marginal(0)
        assert eng.map_assignment()[0] == 1.0 and t[0] == t[1]

    @given(st.integers(min_value=0, max_value=10_000))
    def test_assignment_attains_component_max(self, seed):
        rng = np.random.default_rng(seed)
        m = chain_model(rng.normal(size=4), [-1.0, 1.0, -1.0])
        eng = single_engine(m)
        assign = eng.map_assignment()
        x = np.array([assign[eng.aug_vertices.index(v)] for v in range(4)])
        from lagrelax.models import evaluate_objective

        assert evaluate_objective(m, x) == pytest.approx(eng.component_max(), abs=1e-12)


class TestMessageCache:
    def test_path_only_recompute(self):
        # chain of 5: updating node 0's table then querying node 4 must
        # recompute exactly the messages on the directed path 0 -> 4
        rng = np.random.default_rng(1)
        m = chain_model(rng.normal(size=5), rng.normal(size=4))
        eng = single_engine(m)
        eng.log_partition(1.0)  # warm the cache
        warm = eng.messages_computed
        rid0 = next(r for r, e in eng.edge_vars.items() if len(e) == 1 and e[0] == 0)
        rid4 = next(r for r, e in eng.edge_vars.items() if len(e) == 1 and e[0] == 4)
        eng.add_to_table(rid0, monomial_table(0.3, 1))
        eng.log_marginal(rid4, 1.0)
        path_len = eng.messages_computed - warm
        assert path_len == len(eng.cliques) - 1  # one directed path over the tree

    def test_recompute_matches_fresh_engine(self):
        rng = np.random.default_rng(2)
        m = chain_model(rng.normal(size=5), rng.normal(size=4))
        eng = single_engine(m)
        eng.log_partition(1.0)
        rid2 = next(r for r, e in eng.edge_vars.items() if len(e) == 1 and e[0] == 2)
        delta = monomial_table(-0.4, 1)
        eng.add_to_table(rid2, delta)

        eng2 = single_engine(m)
        eng2.add_to_table(
            next(r for r, e in eng2.edge_vars.items() if len(e) == 1 and e[0] == 2), delta
        )
        assert eng.log_partition(1.0) == pytest.approx(eng2.log_partition(1.0), abs=1e-12)
        for rid in eng.tables:
            assert np.max(np.abs(eng.log_marginal(rid, 1.0) - eng2.log_marginal(rid, 1.0))) < 1e-12

    def test_tau_change_flushes_sum_cache(self):
        rng = np.random.default_rng(3)
        m = chain_model(rng.normal(size=4), rng.normal(size=3))
        eng = single_engine(m)
        z1 = eng.log_partition(1.0)
        z2 = eng.log_partition(0.5)
        assert z2 < z1  # smooth value decreases with temperature


class TestMinFill:
    def test_grid_width(self):
        from lagrelax.generators import grid_edges

        n = 16
        nbrs = [set() for _ in range(n)]
        for u, v in grid_edges(4, 4):
            nbrs[u].add(v)
            nbrs[v].add(u)
        order, width, cliques = min_fill_order(nbrs)
        assert sorted(order) == list(range(n))
        assert width <= 4
        assert [c[0] for c in cliques] == order
        assert width == max(len(c) for c in cliques) - 1

    def test_chain_width_one(self):
        nbrs = [set() for _ in range(6)]
        for v in range(5):
            nbrs[v].add(v + 1)
            nbrs[v + 1].add(v)
        _, width, _ = min_fill_order(nbrs)
        assert width == 1


class TestGaussianMarginalInfo:
    def test_two_node_example(self):
        J = np.array([[2.0, 1.0], [1.0, 2.0]])
        h = np.array([1.0, 1.0])
        Jm, hm = gaussian_marginal_info(J, h, [0])
        assert Jm[0, 0] == pytest.approx(1.5)
        assert hm[0] == pytest.approx(0.5)
        assert hm[0] / Jm[0, 0] == pytest.approx(1 / 3)

    def test_whole_component_is_identity(self):
        J = np.array([[2.0, 1.0], [1.0, 2.0]])
        h = np.array([1.0, -1.0])
        Jm, hm = gaussian_marginal_info(J, h, [0, 1])
        assert np.allclose(Jm, J) and np.allclose(hm, h)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_two_stage_equals_one_stage(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        a = rng.normal(size=(n, n))
        J = a @ a.T + n * np.eye(n)
        h = rng.normal(size=n)
        J1, h1 = gaussian_marginal_info(J, h, [0, 1, 2, 3])
        J2, h2 = gaussian_marginal_info(J1, h1, [0, 1])
        Jd, hd = gaussian_marginal_info(J, h, [0, 1])
        assert np.max(np.abs(J2 - Jd)) < 1e-10
        assert np.max(np.abs(h2 - hd)) < 1e-10

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([5, 40, 63, 64, 66, 100]),
    )
    def test_matches_covariance_reference(self, seed, n):
        # Small and wide (64 or more variables) chains against an
        # independent reference that marginalizes the covariance.
        rng = np.random.default_rng(seed)
        J = np.zeros((n, n))
        for v in range(n - 1):
            J[v, v + 1] = J[v + 1, v] = rng.normal()
        np.fill_diagonal(J, np.abs(J).sum(axis=1) + rng.uniform(0.5, 1.5, n))
        h = rng.normal(size=n)
        keep = sorted(rng.choice(n, size=int(rng.integers(1, 5)), replace=False))
        cov = np.linalg.inv(J)
        J_ref = np.linalg.inv(cov[np.ix_(keep, keep)])
        h_ref = J_ref @ (cov @ h)[keep]
        Jm, hm = gaussian_marginal_info(J, h, keep)
        assert np.max(np.abs(Jm - J_ref)) < 1e-10 * np.max(np.abs(J_ref))
        assert np.max(np.abs(hm - h_ref)) < 1e-10 * (1 + np.max(np.abs(h_ref)))

    def test_not_pd_elimination_block_raises(self):
        J = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 2.0], [0.0, 2.0, -1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_marginal_info(J, np.zeros(3), [0])

    def test_inactive_variables_are_skipped(self):
        J = np.diag([2.0, 0.0, 3.0])
        h = np.array([1.0, 0.0, 0.0])
        Jm, hm = gaussian_marginal_info(J, h, [0])
        assert Jm[0, 0] == pytest.approx(2.0)

    def test_mean_recovery(self):
        J = np.array([[2.0, 1.0], [1.0, 2.0]])
        h = np.array([1.0, 1.0])
        mean, var, value = gaussian_component_mean(J, h)
        assert np.allclose(mean, [1 / 3, 1 / 3])
        assert np.allclose(var, [2 / 3, 2 / 3])
        assert value == pytest.approx(1 / 3)

    def test_read_matches_inverse_of_active_block(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 6))
        J = np.zeros((7, 7))
        active = [0, 1, 2, 4, 5, 6]
        J[np.ix_(active, active)] = A @ A.T + 6 * np.eye(6)
        h = rng.normal(size=7)
        h[3] = 0.0
        mean, var, value = gaussian_component_mean(J, h)
        cov = np.linalg.inv(J[np.ix_(active, active)])
        np.testing.assert_allclose(mean[active], cov @ h[active], rtol=1e-12)
        np.testing.assert_allclose(var[active], np.diag(cov), rtol=1e-12)
        assert mean[3] == 0.0 and var[3] == np.inf
        assert value == pytest.approx(0.5 * h[active] @ cov @ h[active], rel=1e-12)
