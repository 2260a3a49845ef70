import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagrelax.decomposition import (
    STRATEGIES,
    DecompositionConfig,
    build_augmented,
    build_decomposition,
    split_potentials,
)
from lagrelax.generators import generate_ising_grid
from lagrelax.inference import (
    SubgraphEngine,
    build_engines,
    factor_active,
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
    assert len(engines) == 1 and engines[0].size == 1
    return engines[0]


def log_marginal(eng, rid, tau):
    slot, row = eng.where[rid]
    return eng.log_marginal(slot, tau)[row]


def max_marginal(eng, rid):
    slot, row = eng.where[rid]
    return eng.max_marginal(slot)[row]


def rid_at_vertex(eng, v):
    """The singleton replica at local vertex v of a one-row engine."""
    return next(int(eng.rids[0, s]) for s, e in enumerate(eng.edges) if e == (v,))


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
        (rid,) = eng.where
        assert np.allclose(log_marginal(eng, rid, 1.0), np.log(0.5))
        assert eng.log_partition(1.0)[0] == pytest.approx(np.log(2.0))

    def test_single_node_potential(self):
        t = 0.8
        m = DiscreteFactorModel(Hypergraph(1, ((0,),)), {(0,): t})
        eng = single_engine(m)
        assert eng.log_partition(1.0)[0] == pytest.approx(np.log(np.exp(t) + np.exp(-t)))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_chain_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        m = chain_model(rng.normal(size=3), rng.normal(size=2))
        tau = float(rng.uniform(0.2, 2.0))
        eng = single_engine(m)
        want_tables, want_logZ = brute_tables(m, tau)
        assert eng.log_partition(tau)[0] == pytest.approx(want_logZ, abs=1e-12)
        rmap_edges = {}
        for rid, (slot, row) in eng.where.items():
            orig = tuple(sorted(int(eng.aug_vertices[row, v]) for v in eng.edges[slot]))
            rmap_edges[orig] = log_marginal(eng, rid, tau)
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
        (rid,) = eng.where
        assert np.allclose(max_marginal(eng, rid), [0.7, -0.7])
        assert eng.component_max()[0] == pytest.approx(0.7)

    def test_middle_of_repulsive_chain(self):
        m = chain_model([0.0, 0.0, 0.0], [-1.0, -1.0])
        eng = single_engine(m)
        t = eng.vertex_max_marginal()[0, 1]
        assert np.allclose(t, [2.0, 2.0])

    @given(st.integers(min_value=0, max_value=10_000))
    def test_every_table_peaks_at_component_max(self, seed):
        rng = np.random.default_rng(seed)
        m = chain_model(rng.normal(size=4), rng.normal(size=3))
        eng = single_engine(m)
        cmax = eng.component_max()[0]
        for rid in eng.where:
            assert np.max(max_marginal(eng, rid)) == pytest.approx(cmax, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_tempered_limit_approaches_max_marginals(self, seed):
        rng = np.random.default_rng(seed)
        m = chain_model(rng.normal(size=3), rng.normal(size=2))
        eng = single_engine(m)
        tau = 1e-3
        logZ = eng.log_partition(tau)[0]
        for rid in eng.where:
            approx = tau * log_marginal(eng, rid, tau) + logZ
            exact = max_marginal(eng, rid)
            assert np.max(np.abs(approx - exact)) < 1e-2


class TestComponentMap:
    def test_positive_single_node(self):
        m = DiscreteFactorModel(Hypergraph(1, ((0,),)), {(0,): 0.5})
        eng = single_engine(m)
        t = eng.vertex_max_marginal()[0, 0]
        assert eng.map_assignment()[0, 0] == 1.0 and t[0] - t[1] == pytest.approx(1.0)

    def test_zero_breaks_to_plus_one(self):
        m = DiscreteFactorModel(Hypergraph(1, ((0,),)), {(0,): 0.0})
        eng = single_engine(m)
        t = eng.vertex_max_marginal()[0, 0]
        assert eng.map_assignment()[0, 0] == 1.0 and t[0] == t[1]

    @given(st.integers(min_value=0, max_value=10_000))
    def test_assignment_attains_component_max(self, seed):
        rng = np.random.default_rng(seed)
        m = chain_model(rng.normal(size=4), [-1.0, 1.0, -1.0])
        eng = single_engine(m)
        assign = eng.map_assignment()[0]
        x = np.array([assign[list(eng.aug_vertices[0]).index(v)] for v in range(4)])
        from lagrelax.models import evaluate_objective

        assert evaluate_objective(m, x) == pytest.approx(eng.component_max()[0], abs=1e-12)


class TestMessageCache:
    def test_path_only_recompute(self):
        # chain of 5: updating node 0's table then querying node 4 must
        # recompute exactly the messages on the directed path 0 -> 4
        rng = np.random.default_rng(1)
        m = chain_model(rng.normal(size=5), rng.normal(size=4))
        eng = single_engine(m)
        eng.log_partition(1.0)  # warm the cache
        warm = eng.messages_computed
        eng.add_to_table(rid_at_vertex(eng, 0), monomial_table(0.3, 1))
        log_marginal(eng, rid_at_vertex(eng, 4), 1.0)
        computed = eng.messages_computed - warm
        # one directed path over the tree, then the queried marginal
        assert computed == (len(eng.cliques) - 1) + 1

    def test_recompute_matches_fresh_engine(self):
        rng = np.random.default_rng(2)
        m = chain_model(rng.normal(size=5), rng.normal(size=4))
        eng = single_engine(m)
        eng.log_partition(1.0)
        delta = monomial_table(-0.4, 1)
        eng.add_to_table(rid_at_vertex(eng, 2), delta)

        eng2 = single_engine(m)
        eng2.add_to_table(rid_at_vertex(eng2, 2), delta)
        assert eng.log_partition(1.0)[0] == pytest.approx(eng2.log_partition(1.0)[0], abs=1e-12)
        for rid in eng.where:
            assert np.max(np.abs(log_marginal(eng, rid, 1.0) - log_marginal(eng2, rid, 1.0))) < 1e-12

    def test_tau_change_flushes_sum_cache(self):
        rng = np.random.default_rng(3)
        m = chain_model(rng.normal(size=4), rng.normal(size=3))
        eng = single_engine(m)
        z1 = eng.log_partition(1.0)[0]
        z2 = eng.log_partition(0.5)[0]
        assert z2 < z1  # smooth value decreases with temperature


def grid_engines(strategy, m=3, seed=0):
    model = generate_ising_grid(m, 1.0, "frustrated", seed=seed)
    cfg = DecompositionConfig(strategy=strategy, rows=m, cols=m, strip_width=2, overlap=1, block=2)
    return build_engines(build_augmented(model, cfg))


class TestJunctionTree:
    @pytest.mark.parametrize("strategy, cliques", [("disjoint-edges", 1), ("loops", 2)])
    def test_one_clique_per_edge_two_per_cycle(self, strategy, cliques):
        (eng,) = grid_engines(strategy)
        assert len(eng.cliques) == cliques

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_maximal_cliques_with_running_intersection(self, strategy):
        for eng in grid_engines(strategy, m=4, seed=1):
            cliques = [set(c) for c in eng.cliques]
            for i, a in enumerate(cliques):
                assert not any(a <= b for j, b in enumerate(cliques) if j != i)
            # a tree: connected, with one edge fewer than cliques
            assert sum(len(n) for n in eng.nbrs) == 2 * (len(cliques) - 1)
            for (a, b), sep in eng.seps.items():
                assert set(sep) == cliques[a] & cliques[b]
            # the cliques holding any one vertex are connected in the tree
            for v in range(eng.n_local):
                holding = {i for i, c in enumerate(cliques) if v in c}
                start = min(holding)
                reached, stack = {start}, [start]
                while stack:
                    a = stack.pop()
                    for b in eng.nbrs[a]:
                        if b in holding and b not in reached:
                            reached.add(b)
                            stack.append(b)
                assert reached == holding
            for s, cid in enumerate(eng.owner):
                assert set(eng.edges[s]) <= cliques[cid]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["spanning-trees", "loops", "thin-strips", "induced-blocks"]),
    st.integers(min_value=0, max_value=10_000),
)
def test_cached_messages_match_a_fresh_engine(strategy, seed):
    # After random updates and queries, every cached message and belief
    # equals the one a fresh engine computes from the same tables.
    rng = np.random.default_rng(seed)
    for eng in grid_engines(strategy, seed=seed % 50):
        for _ in range(25):
            op = rng.integers(5)
            slot = int(rng.integers(len(eng.edges)))
            if op == 0:
                rows = rng.choice(eng.size, size=int(rng.integers(1, eng.size + 1)), replace=False)
                eng.add_to_slot(slot, rows, rng.normal(size=eng.tables[slot][rows].shape))
            elif op == 1:
                eng.log_marginal(slot, float(rng.choice([1.0, 0.5])))
            elif op == 2:
                eng.max_marginal(slot)
            elif op == 3:
                eng.map_assignment()
            else:
                eng.vertex_max_marginal()
        fresh = SubgraphEngine(
            eng.n_local, eng.edges, [t.copy() for t in eng.tables], eng.aug_vertices, eng.rids, eng.components
        )
        for mode, tau in (("sum", eng._sum_tau), ("max", None)):
            cache = fresh._cache(mode, tau)
            for key, msg in eng._msgs[mode].items():
                fresh._ensure_msgs(cache, [key], mode, tau)
                assert np.array_equal(msg, cache[key])
            for cid, belief in eng._beliefs[mode].items():
                assert np.array_equal(belief, fresh._belief(cid, mode, tau))


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


def spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestInactiveVariables:
    """An inactive variable is one whose whole row of J is zero."""

    @staticmethod
    def zero_diagonal_coupled():
        # Variable 1 has a zero diagonal but couples to variable 0, so it is
        # active and its eliminated block {1, 2} is not positive definite;
        # read from that block alone, row 1 would look inactive.
        return np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]]), np.zeros(3)

    def test_coupled_zero_diagonal_is_not_inactive(self):
        J, h = self.zero_diagonal_coupled()
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_marginal_info(J, h, [0])
        with pytest.raises(NotPositiveDefiniteError):
            factor_active(J, h)

    def test_coupled_zero_diagonal_in_a_stack_raises(self):
        J, h = self.zero_diagonal_coupled()
        good = spd(np.random.default_rng(1), 3)
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_marginal_info(np.stack([good, J]), np.stack([h, h]), [0])

    @pytest.mark.parametrize("stacked", [False, True])
    def test_potential_on_inactive_variable_raises(self, stacked):
        J = np.diag([2.0, 0.0, 3.0])
        h = np.array([1.0, 0.5, 0.0])
        if stacked:
            J = np.stack([np.diag([2.0, 1.0, 3.0]), J])
            h = np.stack([h, h])
        with pytest.raises(NotPositiveDefiniteError):
            factor_active(J, h)
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_component_mean(J, h)
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_marginal_info(J, h, [0])

    def test_stack_row_with_inactive_variable(self):
        rng = np.random.default_rng(0)
        active = [0, 1, 2, 4, 5, 6]
        J = np.zeros((3, 7, 7))
        J[0] = spd(rng, 7)
        J[1][np.ix_(active, active)] = spd(rng, 6)
        J[2] = spd(rng, 7)
        h = rng.normal(size=(3, 7))
        h[1, 3] = 0.0
        _, inactive = factor_active(J, h)
        assert np.array_equal(np.flatnonzero(inactive), [7 + 3])
        mean, var, value = gaussian_component_mean(J, h)
        assert mean[1, 3] == 0.0 and var[1, 3] == np.inf
        for row in range(3):
            idx = active if row == 1 else list(range(7))
            cov = np.linalg.inv(J[row][np.ix_(idx, idx)])
            np.testing.assert_allclose(mean[row, idx], cov @ h[row, idx], rtol=1e-10)
            np.testing.assert_allclose(var[row, idx], np.diag(cov), rtol=1e-10)
            assert value[row] == pytest.approx(0.5 * h[row, idx] @ cov @ h[row, idx], rel=1e-10)
        # the inactive variable drops out of a Schur complement
        keep = [0, 1]
        Jm, hm = gaussian_marginal_info(J, h, keep)
        for row in range(3):
            idx = active if row == 1 else list(range(7))
            cov = np.linalg.inv(J[row][np.ix_(idx, idx)])
            J_ref = np.linalg.inv(cov[:2, :2])
            np.testing.assert_allclose(Jm[row], J_ref, rtol=1e-10)
            np.testing.assert_allclose(hm[row], J_ref @ (cov @ h[row, idx])[:2], rtol=1e-10)


def dense_read(J, h, keep):
    """Marginal form of `keep` from a dense inverse of the active block of
    one form; an inactive kept variable reads a zero row and a zero h."""
    active = np.flatnonzero(J.any(axis=-1))
    cov = np.linalg.inv(J[np.ix_(active, active)])
    at = {v: i for i, v in enumerate(active)}
    kept = [i for i, v in enumerate(keep) if v in at]
    idx = [at[keep[i]] for i in kept]
    J_ref = np.zeros((len(keep), len(keep)))
    h_ref = np.zeros(len(keep))
    J_ref[np.ix_(kept, kept)] = np.linalg.inv(cov[np.ix_(idx, idx)])
    h_ref[kept] = J_ref[np.ix_(kept, kept)] @ (cov @ h[active])[idx]
    return J_ref, h_ref


class TestBorderedRead:
    """The bordered factor against a dense inverse of each active block."""

    @staticmethod
    def check(J, h, keep, scale=1.0):
        Jm, hm = gaussian_marginal_info(J, h, keep)
        for row in range(J.shape[0]):
            J_ref, h_ref = dense_read(J[row], h[row], keep)
            assert np.max(np.abs(Jm[row] - J_ref)) <= 1e-10 * np.max(np.abs(J_ref))
            assert np.max(np.abs(hm[row] - h_ref)) <= 1e-10 * max(scale, np.max(np.abs(h_ref)))
        return Jm, hm

    def test_stacks_of_every_size_match_the_dense_read(self):
        rng = np.random.default_rng(7)
        for n in range(1, 68):
            for k in range(1, min(n, 4) + 1):
                J = np.stack([spd(rng, n) for _ in range(3)])
                h = rng.normal(size=(3, n))
                keep = sorted(rng.choice(n, size=k, replace=False))
                self.check(J, h, keep)

    @pytest.mark.parametrize("scale", [1e50, 1e100, 1e150])
    @pytest.mark.parametrize("n", [3, 20, 67])
    def test_huge_potentials_do_not_overflow_the_border(self, n, scale):
        rng = np.random.default_rng(n)
        J = np.stack([spd(rng, n) for _ in range(2)])
        h = scale * rng.uniform(-1.0, 1.0, size=(2, n))
        _, hm = self.check(J, h, [0, n - 1], scale)
        assert np.isfinite(hm).all()

    def test_inactive_kept_variable_reads_a_zero_row(self):
        rng = np.random.default_rng(3)
        active = [0, 1, 3, 4, 5]
        J = np.zeros((2, 6, 6))
        J[0] = spd(rng, 6)
        J[1][np.ix_(active, active)] = spd(rng, 5)
        h = rng.normal(size=(2, 6))
        h[1, 2] = 0.0
        Jm, hm = self.check(J, h, [0, 2, 4])
        assert not Jm[1, 1].any() and not Jm[1, :, 1].any() and hm[1, 1] == 0.0

    def test_nan_potential_gives_a_nan_read_without_raising(self):
        rng = np.random.default_rng(4)
        J = np.stack([spd(rng, 8) for _ in range(2)])
        h = rng.normal(size=(2, 8))
        Jm_ok, _ = gaussian_marginal_info(J, h, [0, 1])
        h[1, 5] = np.nan
        Jm, hm = gaussian_marginal_info(J, h, [0, 1])
        assert np.isnan(hm[1]).all() and np.isfinite(hm[0]).all()
        np.testing.assert_allclose(Jm, Jm_ok, rtol=1e-12)
