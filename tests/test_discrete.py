import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagrelax.decomposition import STRATEGIES, DecompositionConfig, ReplicationMap, split_potentials
from lagrelax.discrete import (
    DiscreteRelaxation,
    TemperatureSchedule,
    build_relaxation,
    solve_discrete,
)
from lagrelax.generators import generate_ising_grid
from lagrelax.report import STOP_REASONS
from lagrelax.models import (
    DiscreteFactorModel,
    Hypergraph,
    evaluate_objective,
    monomial_table,
)
from lagrelax.oracle import brute_force_map


def triangle(theta_edge, thetas_v=(0.0, 0.0, 0.0)):
    coeffs = {(v,): thetas_v[v] for v in range(3)}
    for e in [(0, 1), (1, 2), (0, 2)]:
        coeffs[e] = theta_edge
    return DiscreteFactorModel(Hypergraph(3, tuple(coeffs)), coeffs)


def random_model(seed, n_max=8):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, n_max + 1))
    coeffs = {(v,): float(rng.normal(0, 1)) for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.4 or v == u + 1:
                coeffs[(u, v)] = float(rng.normal(0, 1))
    return DiscreteFactorModel(Hypergraph(n, tuple(coeffs)), coeffs)


def replica_table(relax, rid, tau=None):
    """A replica's normalized log marginal at tau, or its max-marginal."""
    eng = relax.engine_of_rid[rid]
    slot, row = eng.where[rid]
    return (eng.max_marginal(slot) if tau is None else eng.log_marginal(slot, tau))[row]


def two_isolated_replicas(theta_v=0.0):
    """Hand-built map: one vertex replicated into two isolated components."""
    model = DiscreteFactorModel(Hypergraph(1, ((0,),)), {(0,): theta_v})
    rmap = ReplicationMap(
        n_orig=1,
        orig_edges=((0,),),
        vertex_origin=np.array([0, 0]),
        replica_edges=[(0,), (1,)],
        edge_origin=np.array([0, 0]),
    )
    return DiscreteRelaxation(split_potentials(model, rmap))


class TestDualValue:
    def test_frustrated_triangle_gap_instance(self):
        relax = build_relaxation(triangle(-1.0), "tree-plus-leaves")
        assert relax.dual_value() == pytest.approx(3.0, abs=1e-12)
        f_star, _ = brute_force_map(triangle(-1.0))
        assert f_star == pytest.approx(1.0)

    def test_attractive_triangle_tight(self):
        relax = build_relaxation(triangle(1.0), "tree-plus-leaves")
        f_star, _ = brute_force_map(triangle(1.0))
        assert relax.dual_value() == pytest.approx(3.0, abs=1e-12)
        assert f_star == pytest.approx(3.0)

    def test_single_component_is_exact(self):
        # a chain is already thin; no replication happens
        coeffs = {(0,): 0.4, (1,): -0.2, (2,): 0.9, (0, 1): 0.7, (1, 2): -1.1}
        m = DiscreteFactorModel(Hypergraph(3, tuple(coeffs)), coeffs)
        relax = build_relaxation(m, "spanning-trees")
        f_star, _ = brute_force_map(m)
        assert relax.dual_value() == pytest.approx(f_star, abs=1e-12)


class TestSmoothDual:
    def test_single_node_log2(self):
        m = DiscreteFactorModel(Hypergraph(1, ((0,),)), {(0,): 0.0})
        relax = build_relaxation(m, "disjoint-edges")
        assert relax.smooth_dual_value(1.0) == pytest.approx(np.log(2.0))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_sandwich_bounds(self, seed):
        m = random_model(seed)
        relax = build_relaxation(m, "disjoint-edges")
        g = relax.dual_value()
        bound = relax.rmap.n_aug * np.log(2.0)
        for tau in [1.0, 0.5, 0.1, 0.01]:
            gs = relax.smooth_dual_value(tau)
            assert g - 1e-9 <= gs <= g + tau * bound + 1e-9

    @given(st.integers(min_value=0, max_value=10_000))
    def test_monotone_in_tau(self, seed):
        m = random_model(seed)
        relax = build_relaxation(m, "disjoint-edges")
        assert relax.smooth_dual_value(0.5) <= relax.smooth_dual_value(1.0) + 1e-12


class TestGradient:
    def test_symmetric_split_zero_gradient(self):
        relax = build_relaxation(triangle(-1.0), "disjoint-edges")
        g = relax.dual_gradient(1.0)
        assert np.max(np.abs(g)) < 1e-12

    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_finite_differences(self, seed):
        m = random_model(seed, n_max=6)
        relax = build_relaxation(m, "disjoint-edges")
        # move off the symmetric point first
        relax.sweep_log_marginal_averaging(0.7)
        tau, delta = 0.8, 1e-5
        grad = relax.dual_gradient(tau)
        for k, (_, a, b) in enumerate(relax.gradient_pairs()):
            relax.perturb_pair(a, b, delta)
            up = relax.smooth_dual_value(tau)
            relax.perturb_pair(a, b, -2 * delta)
            down = relax.smooth_dual_value(tau)
            relax.perturb_pair(a, b, delta)
            fd = (up - down) / (2 * delta)
            assert grad[k] == pytest.approx(fd, abs=1e-6)

    def test_class_gradient_zero_after_update(self):
        m = random_model(11)
        relax = build_relaxation(m, "disjoint-edges")
        tau = 0.9
        cls = relax.classes[0]
        tabs = {rid: tau * replica_table(relax, rid, tau) for rid in cls.rids}
        fbar = sum(tabs.values()) / len(cls.rids)
        for rid in cls.rids:
            relax.engine_of_rid[rid].add_to_table(rid, fbar - tabs[rid])
        pairs = relax.gradient_pairs()
        grad = relax.dual_gradient(tau)
        for k, (oid, _, _) in enumerate(pairs):
            if oid == cls.oid:
                assert abs(grad[k]) < 1e-9


class TestTemperedSweep:
    def test_antisymmetric_pair_averages_to_zero(self):
        relax = two_isolated_replicas(0.0)
        t = 1.3
        r0, r1 = sorted(relax.engine_of_rid)
        relax.engine_of_rid[r0].add_to_table(r0, monomial_table(t, 1))
        relax.engine_of_rid[r1].add_to_table(r1, monomial_table(-t, 1))
        resid = relax.sweep_log_marginal_averaging(1.0)
        assert resid == pytest.approx(t, abs=1e-12)
        assert np.allclose(relax.aug.tables[r0], 0.0, atol=1e-12)
        assert np.allclose(relax.aug.tables[r1], 0.0, atol=1e-12)
        m0 = replica_table(relax, r0, 1.0)
        m1 = replica_table(relax, r1, 1.0)
        assert np.allclose(m0, m1, atol=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_consistency_preserved(self, seed):
        m = generate_ising_grid(3, 1.0, "frustrated", seed=seed % 100)
        relax = build_relaxation(m, "disjoint-edges")
        for tau in [1.0, 0.5]:
            relax.sweep_log_marginal_averaging(tau)
        assert relax.aug.consistency_residual() < 1e-10

    @settings(max_examples=15)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_smooth_dual_never_increases(self, seed):
        m = generate_ising_grid(4, 1.0, "frustrated", seed=seed % 100)
        relax = build_relaxation(m, "spanning-trees")
        tau = 0.7
        prev = relax.smooth_dual_value(tau)
        for _ in range(4):
            relax.sweep_log_marginal_averaging(tau)
            cur = relax.smooth_dual_value(tau)
            assert cur <= prev + 1e-9
            prev = cur


class TestMaxMarginalSweep:
    def test_example_tables_tie(self):
        relax = two_isolated_replicas(0.0)
        r0, r1 = sorted(relax.engine_of_rid)
        relax.engine_of_rid[r0].add_to_table(r0, np.array([1.0, -1.0]))
        relax.engine_of_rid[r1].add_to_table(r1, np.array([-1.0, 1.0]))
        # normalized max-marginals are (0,-2) and (-2,0); average ties them
        resid = relax.sweep_max_marginal_averaging()
        assert resid == pytest.approx(1.0)
        t0 = replica_table(relax, r0)
        t1 = replica_table(relax, r1)
        assert np.allclose(t0 - np.max(t0), t1 - np.max(t1), atol=1e-12)
        assert abs(t0[0] - t0[1]) < 1e-12

    def test_annealed_fixed_point_is_max_fixed_point(self):
        m = generate_ising_grid(3, 1.5, "attractive", seed=2)
        relax = build_relaxation(m, "disjoint-edges")
        sched = TemperatureSchedule(tau_min=1e-4, inner_tol=1e-10, anneal_tol_scale=0.0)
        for tau in sched.ladder():
            for _ in range(sched.max_sweeps_per_tau):
                if relax.sweep_log_marginal_averaging(tau) < sched.inner_tol:
                    break
        for _ in range(500):
            if relax.sweep_max_marginal_averaging() < 1e-12:
                break
        assert relax.sweep_max_marginal_averaging() < 1e-6

    @settings(max_examples=10)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_resummed_dominates_true_max_marginals(self, seed):
        m = random_model(seed, n_max=8)
        relax = build_relaxation(m, "disjoint-edges")
        for _ in range(3):
            relax.sweep_max_marginal_averaging()
        g = relax.dual_value()
        # full-model replica max-marginal = in-component table + rest of g
        states = list(itertools.product([1.0, -1.0], repeat=m.n))
        for cls in relax.classes:
            e = cls.edge
            tabs = []
            for rid in cls.rids:
                eng = relax.engine_of_rid[rid]
                row = eng.where[rid][1]
                tabs.append(replica_table(relax, rid) + (g - eng.component_max()[row]))
            fbar = sum(tabs) / len(tabs)
            true = np.full((2,) * len(e), -np.inf)
            for s in states:
                idx = tuple(int((1 - s[v]) / 2) for v in e)
                true[idx] = max(true[idx], evaluate_objective(m, np.array(s)))
            assert np.all(fbar >= true - 1e-9)


class TestExtract:
    def test_attractive_grid_exact(self):
        m = generate_ising_grid(3, 2.0, "attractive", seed=4)
        rep = solve_discrete(m, "disjoint-edges")
        f_star, maximizers = brute_force_map(m)
        assert rep.best_primal == pytest.approx(f_star, abs=1e-9)
        assert not rep.gap_flag
        assert any(np.array_equal(rep.estimate, x) for x in maximizers)
        assert rep.tie_nodes == []

    def test_frustrated_triangle_all_tied(self):
        rep = solve_discrete(triangle(-1.0), "tree-plus-leaves")
        assert rep.tie_nodes == [0, 1, 2]
        assert rep.gap_flag
        assert rep.stop_reason != "certified"

    @pytest.mark.parametrize(
        "model",
        [
            # best_primal is set by an early sweep, not by the last one
            generate_ising_grid(6, 0.7, "frustrated", seed=1),
            # every re-summed table ties, so its argmax (+1 everywhere)
            # scores 0; the component maximizers score 2
            DiscreteFactorModel(
                Hypergraph(3, ((0,), (1,), (2,), (0, 1), (1, 2))),
                {(0,): 0.0, (1,): 0.0, (2,): 0.0, (0, 1): 1.0, (1, 2): -1.0},
            ),
        ],
        ids=["frustrated-6x6", "tied-chain"],
    )
    def test_estimate_attains_best_primal(self, model):
        rep = solve_discrete(model, "disjoint-edges")
        assert evaluate_objective(model, rep.estimate) == rep.best_primal

    @given(st.integers(min_value=0, max_value=10_000))
    def test_primal_below_dual(self, seed):
        m = random_model(seed, n_max=6)
        relax = build_relaxation(m, "disjoint-edges")
        relax.sweep_max_marginal_averaging()
        est = relax.extract_estimate()
        assert est.best_primal <= relax.dual_value() + 1e-9


class TestSolve:
    def test_chain_any_strategy_exact(self):
        coeffs = {(0,): 0.3, (1,): -0.8, (2,): 0.5, (0, 1): 1.0, (1, 2): -1.0}
        m = DiscreteFactorModel(Hypergraph(3, tuple(coeffs)), coeffs)
        f_star, _ = brute_force_map(m)
        for strat in ["disjoint-edges", "spanning-trees", "tree-plus-leaves"]:
            rep = solve_discrete(m, strat)
            assert rep.final_dual == pytest.approx(f_star, abs=1e-6)
            assert rep.best_primal == pytest.approx(f_star, abs=1e-9)

    def test_weak_duality_on_trace(self):
        m = generate_ising_grid(3, 0.5, "frustrated", seed=9)
        rep = solve_discrete(m, "disjoint-edges")
        f_star, _ = brute_force_map(m)
        for t in rep.dual_trace:
            assert t.g >= f_star - 1e-9
            assert t.g >= t.best_primal - 1e-9

    def test_converged_tau_values_monotone(self):
        m = generate_ising_grid(3, 1.0, "frustrated", seed=12)
        sched = TemperatureSchedule(anneal_tol_scale=0.0, inner_tol=1e-8)
        rep = solve_discrete(m, "disjoint-edges", sched)
        last_per_tau = {}
        for t in rep.dual_trace:
            if t.tau > 0:
                last_per_tau[t.tau] = t.g_smooth
        taus = sorted(last_per_tau, reverse=True)
        for a, b in zip(taus, taus[1:]):
            assert last_per_tau[b] <= last_per_tau[a] + 1e-9

    def test_consistency_after_solve(self):
        m = generate_ising_grid(3, 1.0, "frustrated", seed=3)
        relax = build_relaxation(m, "spanning-trees")
        for tau in [1.0, 0.5, 0.25]:
            for _ in range(5):
                relax.sweep_log_marginal_averaging(tau)
        for _ in range(5):
            relax.sweep_max_marginal_averaging()
        assert relax.aug.consistency_residual() < 1e-10

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TemperatureSchedule(tau0=1e-4, tau_min=1e-3)
        with pytest.raises(ValueError):
            TemperatureSchedule(decay=1.5)
        with pytest.raises(ValueError):
            TemperatureSchedule(max_sweeps_per_tau=0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["disjoint-edges", "spanning-trees", "tree-plus-leaves"]),
    )
    def test_certificate_and_estimate_properties(self, seed, strategy):
        m = random_model(seed, n_max=7)
        f_star, _ = brute_force_map(m)
        rep = solve_discrete(m, strategy)
        slack = 1e-9 * (1 + abs(f_star))
        for t in rep.dual_trace:
            assert t.g >= f_star - slack
        assert evaluate_objective(m, rep.estimate) == rep.best_primal
        assert rep.stop_reason in STOP_REASONS
        assert (rep.stop_reason == "certified") == (not rep.gap_flag)
        if not rep.gap_flag:
            assert rep.best_primal == f_star
            meets = [t.g - t.best_primal <= 1e-6 * (1 + abs(t.g)) for t in rep.dual_trace]
            assert meets[-1] and not any(meets[:-1])
            assert rep.converged

    def test_no_strategy_means_spanning_trees(self):
        rep = solve_discrete(generate_ising_grid(3, 1.0, "attractive", seed=0), None, rows=3, cols=3)
        assert rep.strategy == "spanning-trees"

    def test_sweep_cap_is_not_convergence(self):
        m = generate_ising_grid(3, 1.0, "frustrated", seed=0)
        sched = TemperatureSchedule(max_sweeps_per_tau=1, inner_tol=1e-12)
        rep = solve_discrete(m, "disjoint-edges", sched)
        assert rep.stop_reason == "sweep_cap"
        assert not rep.converged and rep.gap_flag

    def test_report_dict_shape(self):
        m = generate_ising_grid(3, 1.0, "attractive", seed=1)
        rep = solve_discrete(m, "disjoint-edges")
        d = rep.to_dict()
        assert set(d) >= {
            "final_dual",
            "best_primal",
            "gap",
            "gap_flag",
            "estimate",
            "tie_nodes",
            "dual_trace",
            "stop_reason",
        }
        assert len(d["estimate"]) == 9


def spurious_instance():
    """Frustrated cycle with two triple interactions; max-marginal averaging
    from the adversarial split below stalls at a non-minimal point."""
    rng = np.random.default_rng(4 + 777)
    coeffs = {(v,): float(rng.normal(0, 0.5)) for v in range(4)}
    for e in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        coeffs[e] = float(rng.choice([-1.0, 1.0]))
    coeffs[(0, 1, 2)] = float(rng.choice([-1.0, 1.0]))
    coeffs[(1, 2, 3)] = float(rng.choice([-1.0, 1.0]))
    return DiscreteFactorModel(Hypergraph(4, tuple(coeffs)), coeffs)


def adversarial_init(relax, seed=4, scale=2.0):
    rng = np.random.default_rng(seed)
    for cls in relax.classes:
        deltas = [rng.normal(0, scale, size=relax.aug.tables[r].shape) for r in cls.rids]
        mean = sum(deltas) / len(deltas)
        for r, d in zip(cls.rids, deltas):
            relax.engine_of_rid[r].add_to_table(r, d - mean)


def test_nan_table_yields_no_certificate(monkeypatch):
    # A NaN that reaches a replica table (the model itself rejects NaN) must
    # surface as a NaN residual, an unconverged solve and a gap.
    import lagrelax.discrete as discrete

    def build_with_nan(model, config=None, **kwargs):
        relax = build_relaxation(model, config, **kwargs)
        relax.engine_of_rid[0].add_to_table(0, np.full_like(relax.aug.tables[0], np.nan))
        return relax

    model = generate_ising_grid(3, 1.0, "attractive", seed=0)
    relax = build_with_nan(model, "disjoint-edges")
    assert np.isnan(relax.sweep_log_marginal_averaging(1.0))
    assert np.isnan(relax.sweep_max_marginal_averaging())

    monkeypatch.setattr(discrete, "build_relaxation", build_with_nan)
    schedule = TemperatureSchedule(tau0=1.0, tau_min=0.5, max_sweeps_per_tau=3)
    rep = solve_discrete(model, "disjoint-edges", schedule)
    assert np.isnan(rep.final_dual)
    assert rep.gap_flag
    assert not rep.converged


def test_nan_table_gives_nan_consistency_residual():
    relax = build_relaxation(generate_ising_grid(3, 1.0, "attractive", seed=0), "disjoint-edges")
    relax.engine_of_rid[0].add_to_table(0, np.full_like(relax.aug.tables[0], np.nan))
    assert np.isnan(relax.aug.consistency_residual())


def test_nan_ends_the_sweeps_at_once(monkeypatch):
    import lagrelax.discrete as discrete

    def build_with_nan(model, config=None, **kwargs):
        relax = build_relaxation(model, config, **kwargs)
        relax.engine_of_rid[0].add_to_table(0, np.full_like(relax.aug.tables[0], np.nan))
        return relax

    monkeypatch.setattr(discrete, "build_relaxation", build_with_nan)
    rep = solve_discrete(generate_ising_grid(3, 1.0, "attractive", seed=0), "disjoint-edges")
    assert rep.stop_reason == "non_finite"
    assert len(rep.dual_trace) == 1
    assert rep.gap_flag and not rep.converged


def test_annealing_escapes_spurious_max_marginal_fixed_point():
    m = spurious_instance()
    relax = build_relaxation(m, "disjoint-edges")
    adversarial_init(relax)
    for _ in range(3000):
        if relax.sweep_max_marginal_averaging() < 1e-10:
            break
    assert relax.sweep_max_marginal_averaging() < 1e-8  # it is a fixed point
    g_stalled = relax.dual_value()

    relax2 = build_relaxation(m, "disjoint-edges")
    adversarial_init(relax2)
    sched = TemperatureSchedule(tau_min=1e-4, inner_tol=1e-9, anneal_tol_scale=1e-3)
    for tau in sched.ladder():
        tol = sched.tol_at(tau)
        for _ in range(sched.max_sweeps_per_tau):
            if relax2.sweep_log_marginal_averaging(tau) < tol:
                break
    for _ in range(3000):
        if relax2.sweep_max_marginal_averaging() < 1e-10:
            break
    g_annealed = relax2.dual_value()
    assert g_annealed < g_stalled - 1e-3
    f_star, _ = brute_force_map(m)
    assert g_annealed >= f_star - 1e-9


def random_grid_model(seed):
    """Node terms plus a random subset of the edges of a small grid."""
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    n = rows * cols
    coeffs = {(v,): float(rng.normal(0, 1)) for v in range(n)}
    for v in range(n):
        for u, ok in ((v + 1, (v + 1) % cols != 0), (v + cols, v + cols < n)):
            if ok and rng.random() < 0.8:
                coeffs[(v, u)] = float(rng.normal(0, 1))
    model = DiscreteFactorModel(Hypergraph(n, tuple(coeffs)), coeffs)
    return model, DecompositionConfig(rows=rows, cols=cols, strip_width=2, overlap=1, block=2)


def class_by_class_sweep(relax, tau):
    """The colour order run one class at a time, each replica read and
    updated on its own."""

    def tables(rids):
        out = {}
        for rid in rids:
            t = replica_table(relax, rid, tau)
            out[rid] = t - np.max(t) if tau is None else tau * t
        return out

    resids = []
    for colour in relax.colours:
        for cls in colour.classes:
            tabs = tables(cls.rids)
            fbar = sum(tabs.values()) / len(cls.rids)
            resids += [np.max(np.abs(tabs[r] - fbar)) for r in cls.rids]
            if len(cls.groups) == 1:
                for rid in cls.rids:
                    relax.engine_of_rid[rid].add_to_table(rid, fbar - tabs[rid])
                continue
            for group in cls.groups:
                gtabs = tables(group)
                gbar = sum(gtabs.values()) / len(group)
                for rid in group:
                    relax.engine_of_rid[rid].add_to_table(rid, gbar - gtabs[rid])
    return float(np.max(resids, initial=0.0))


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_coloured_sweep_matches_class_by_class(strategy, seed):
    model, cfg = random_grid_model(seed)
    cfg.strategy = strategy
    batched = build_relaxation(model, cfg)
    reference = build_relaxation(model, cfg)
    comp = batched.rmap.replica_component
    arities = []
    for colour in batched.colours:
        arity = {len(c.edge) for c in colour.classes}
        assert len(arity) == 1
        arities += arity
        if colour.hub_groups:
            assert len(colour.classes) == 1
            continue
        comps = [comp(r) for c in colour.classes for r in c.rids]
        assert len(comps) == len(set(comps))
    assert arities == sorted(arities)
    assert sorted(c.oid for col in batched.colours for c in col.classes) == sorted(
        c.oid for c in batched.classes
    )

    for tau in (1.0, 0.5, None, None):
        if tau is None:
            got = batched.sweep_max_marginal_averaging()
        else:
            got = batched.sweep_log_marginal_averaging(tau)
        assert got == pytest.approx(class_by_class_sweep(reference, tau), abs=1e-12)
        for a, b in zip(batched.aug.tables, reference.aug.tables):
            assert np.max(np.abs(a - b)) <= 1e-12

    rep = solve_discrete(model, cfg)
    if rep.stop_reason == "certified":
        assert rep.best_primal == brute_force_map(model)[0]


def test_nan_in_one_row_of_a_batch():
    relax = build_relaxation(generate_ising_grid(3, 1.0, "attractive", seed=0), "disjoint-edges")
    (eng,) = relax.engines
    assert eng.size == 12
    rid = int(eng.rids[5, 0])
    eng.add_to_table(rid, np.full_like(relax.aug.tables[rid], np.nan))
    assert np.isnan(relax.aug.tables[rid]).all()
    assert np.isnan(relax.sweep_log_marginal_averaging(1.0))
    assert np.isnan(relax.sweep_max_marginal_averaging())
