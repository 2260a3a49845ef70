import numpy as np
import pytest
from hypothesis import given, strategies as st

import lagrelax.inference as inference
from lagrelax.decomposition import (
    STRATEGIES,
    DecompositionConfig,
    DecompositionError,
    ReplicationMap,
    UncoveredEdgeError,
    build_decomposition,
    ensure_singletons,
    lift_assignment,
    project_assignment,
    split_potentials,
    update_groups,
)
from lagrelax.discrete import build_relaxation
from lagrelax.gaussian import build_gaussian_relaxation
from lagrelax.generators import generate_ising_grid, generate_thin_membrane
from lagrelax.inference import factor_active
from lagrelax.models import (
    DiscreteFactorModel,
    Hypergraph,
    evaluate_objective,
    monomial_table,
)


def triangle(theta_edge=-1.0):
    coeffs = {(v,): 0.0 for v in range(3)}
    for e in [(0, 1), (1, 2), (0, 2)]:
        coeffs[e] = theta_edge
    return DiscreteFactorModel(Hypergraph(3, tuple(coeffs)), coeffs)


def test_disjoint_edges_on_5x5():
    m = generate_ising_grid(5, 1.0, "attractive", seed=0)
    rmap = build_decomposition(m.graph, "disjoint-edges")
    assert rmap.n_components == 40
    r = [len(v) for v in rmap.vertex_replicas]
    grid = np.array(r).reshape(5, 5)
    assert np.all(grid[1:-1, 1:-1] == 4)  # interior nodes replicated 4x
    assert grid[0, 0] == 2


def test_tree_plus_leaves_on_triangle():
    m = triangle()
    rmap = build_decomposition(m.graph, "tree-plus-leaves")
    # a 4-vertex chain, plus one hub vertex for the leaf's singleton class
    assert rmap.n_aug == 5
    assert rmap.n_components == 2
    assert sum(rmap.component_of_vertex == 0) == 4
    counts = sorted(len(v) for v in rmap.vertex_replicas)
    assert counts == [1, 1, 3]
    relax = build_relaxation(m, "tree-plus-leaves")
    assert max(len(c) for eng in relax.engines for c in eng.cliques) == 2  # a chain


def test_thin_strips_on_4x4():
    m = generate_ising_grid(4, 1.0, "attractive", seed=1)
    cfg = DecompositionConfig(
        strategy="thin-strips", rows=4, cols=4, strip_width=2, overlap=2, treewidth_bound=3
    )
    rmap = build_decomposition(m.graph, cfg)
    assert rmap.n_components == 3  # three 2x4 strips
    r = np.array([len(v) for v in rmap.vertex_replicas]).reshape(4, 4)
    assert np.all(r[:, 1:3] == 2)  # shared full columns
    assert np.all(r[:, [0, 3]] == 1)
    rmap.validate()
    build_relaxation(m, cfg)  # within the bound


def test_loops_with_fallback():
    # path graph: no unit cells at all, everything falls back to edges
    coeffs = {(0,): 0.0, (1,): 0.0, (2,): 0.0, (0, 1): 1.0, (1, 2): 1.0}
    m = DiscreteFactorModel(Hypergraph(3, tuple(coeffs)), coeffs)
    rmap = build_decomposition(
        m.graph, DecompositionConfig(strategy="loops", rows=1, cols=3)
    )
    assert any("fell back" in n for n in rmap.notes)
    rmap.validate()


def test_loops_on_grid_covers_everything():
    m = generate_ising_grid(4, 1.0, "attractive", seed=0)
    rmap = build_decomposition(m.graph, "loops")
    assert rmap.n_components == 9
    rmap.validate()
    build_relaxation(m, "loops", treewidth_bound=2)  # within the bound


def test_induced_blocks_coverage_failure():
    coeffs = {(v,): 0.0 for v in range(4)}
    coeffs[(0, 3)] = 1.0  # not contained in any 2x2 window of a 1x4 chain
    coeffs[(0, 1)] = 1.0
    coeffs[(1, 2)] = 1.0
    coeffs[(2, 3)] = 1.0
    m = DiscreteFactorModel(Hypergraph(4, tuple(coeffs)), coeffs)
    with pytest.raises(UncoveredEdgeError):
        build_decomposition(
            m.graph, DecompositionConfig(strategy="induced-blocks", rows=1, cols=4, block=2)
        )


def test_spanning_trees_rejects_hyperedges():
    coeffs = {(0,): 0.0, (1,): 0.0, (2,): 0.0, (0, 1, 2): 1.0}
    m = DiscreteFactorModel(Hypergraph(3, tuple(coeffs)), coeffs)
    with pytest.raises(UncoveredEdgeError):
        build_decomposition(m.graph, "spanning-trees")


def test_treewidth_bound_enforced():
    m = generate_ising_grid(4, 1.0, "attractive", seed=0)
    with pytest.raises(DecompositionError, match="treewidth 4 exceeds bound 2"):
        build_relaxation(
            m, DecompositionConfig(strategy="induced-blocks", block=4, treewidth_bound=2)
        )
    build_relaxation(m, DecompositionConfig(strategy="induced-blocks", block=4, treewidth_bound=4))


def count_min_fill(monkeypatch):
    calls = []
    real = inference.min_fill_order

    def counted(nbrs):
        calls.append(len(nbrs))
        return real(nbrs)

    monkeypatch.setattr(inference, "min_fill_order", counted)
    return calls


def test_min_fill_runs_once_per_discrete_engine(monkeypatch):
    calls = count_min_fill(monkeypatch)
    m = generate_ising_grid(5, 1.0, "attractive", seed=0)
    for strat in ("disjoint-edges", "loops", "tree-plus-leaves"):
        calls.clear()
        relax = build_relaxation(m, strat)
        assert len(calls) == len(relax.engines) < relax.rmap.n_components


def test_gaussian_build_runs_no_min_fill(monkeypatch):
    calls = count_min_fill(monkeypatch)
    gm = generate_thin_membrane(6, 0.05, seed=0)
    build_gaussian_relaxation(gm, DecompositionConfig(strategy="thin-strips", strip_width=3, overlap=1))
    assert calls == []


@pytest.mark.parametrize(
    "strategy, kw",
    [("loops", {}), ("induced-blocks", {"block": 2}), ("thin-strips", {"strip_width": 2, "overlap": 1})],
)
def test_non_square_grid_needs_its_shape(strategy, kw):
    m = generate_ising_grid(4, 1.0, "attractive", seed=0)
    # the 3x4 grid: the first 12 vertices of a 4x4 grid and the edges among them
    coeffs = {e: t for e, t in m.coefficients.items() if max(e) < 12}
    g = DiscreteFactorModel(Hypergraph(12, tuple(coeffs)), coeffs).graph
    with pytest.raises(DecompositionError, match="rows and cols"):
        build_decomposition(g, strategy, **kw)
    rmap = build_decomposition(g, strategy, rows=3, cols=4, **kw)
    assert {rmap.orig_edges[o] for o in rmap.edge_origin} == set(g.hyperedges)
    if strategy == "loops":
        assert rmap.n_components == 6
        assert not any("fell back" in n for n in rmap.notes)


def _build_rmap(builder, config, **kwargs):
    if builder == "decomposition":
        return build_decomposition(generate_ising_grid(4, 0.5).graph, config, **kwargs)
    if builder == "discrete":
        return build_relaxation(generate_ising_grid(4, 0.5), config, **kwargs).rmap
    return build_gaussian_relaxation(generate_thin_membrane(4, 0.1), config, **kwargs).rmap


@pytest.mark.parametrize("builder", ["decomposition", "discrete", "gaussian"])
def test_config_object_takes_keyword_overrides(builder):
    # A DecompositionConfig plus keywords builds what the strategy name plus
    # the same keywords builds: block=2 on a 4x4 grid gives 9 blocks, not 4.
    by_object = _build_rmap(builder, DecompositionConfig(strategy="induced-blocks"), block=2)
    by_name = _build_rmap(builder, "induced-blocks", block=2)
    assert by_object.n_components == by_name.n_components == 9
    assert by_object.replica_edges == by_name.replica_edges
    assert _build_rmap(builder, DecompositionConfig(strategy="induced-blocks")).n_components == 4


def test_unknown_strategy():
    with pytest.raises(DecompositionError):
        DecompositionConfig(strategy="magic")


def test_coverage_invariant_all_strategies():
    m = generate_ising_grid(4, 1.0, "frustrated", seed=7)
    for strat, kw in [
        ("disjoint-edges", {}),
        ("spanning-trees", {}),
        ("tree-plus-leaves", {}),
        ("loops", {}),
        ("induced-blocks", dict(block=3)),
        ("thin-strips", dict(strip_width=2, overlap=2)),
    ]:
        rmap = build_decomposition(m.graph, strat, **kw)
        covered = {rmap.orig_edges[o] for o in rmap.edge_origin}
        assert covered == set(m.graph.hyperedges)
        rmap.validate()


def test_split_uniform_and_consistency():
    m = triangle()
    rmap = build_decomposition(m.graph, "disjoint-edges")
    aug = split_potentials(m, rmap)
    assert aug.consistency_residual() < 1e-15
    # each edge has one replica, each node has degree-many replicas
    for oid, e in enumerate(rmap.orig_edges):
        r = rmap.replica_count(oid)
        for rid in rmap.edge_replicas[oid]:
            expect = monomial_table(m.theta(e) / r, len(e))
            assert np.allclose(aug.tables[rid], expect)


def test_split_fig_style_node_share():
    # tree-plus-leaves on the triangle: the split node tables, hub included,
    # must sum to the original for both labels
    coeffs = {(0,): 0.8, (1,): -0.3, (2,): 0.1, (0, 1): -1.0, (1, 2): -1.0, (0, 2): -1.0}
    m = DiscreteFactorModel(Hypergraph(3, tuple(coeffs)), coeffs)
    rmap = build_decomposition(m.graph, "tree-plus-leaves")
    aug = split_potentials(m, rmap)
    dup = next(v for v in range(3) if len(rmap.vertex_replicas[v]) == 3)
    oid = rmap.orig_edges.index((dup,))
    total = sum(aug.tables[rid] for rid in rmap.edge_replicas[oid])
    assert np.allclose(total, monomial_table(coeffs[(dup,)], 1), atol=1e-12)


def test_gaussian_split_pd_and_consistent():
    gm = generate_thin_membrane(4, 0.05, seed=1)
    cfg = DecompositionConfig(
        strategy="thin-strips", rows=4, cols=4, strip_width=2, overlap=2
    )
    rmap = build_decomposition(gm.graph, cfg)
    aug = split_potentials(gm, rmap)
    dJ, dh = aug.consistency_residual()
    assert dJ < 1e-12 and dh < 1e-12
    for comp in aug.components:
        _, inactive = factor_active(comp.J, comp.h)  # raises unless PD
        assert not inactive.any()


def test_identity_map_lift_is_identity():
    coeffs = {(0,): 0.1, (1,): 0.2, (2,): 0.3, (0, 1): 1.0, (1, 2): -1.0}
    m = DiscreteFactorModel(Hypergraph(3, tuple(coeffs)), coeffs)
    rmap = build_decomposition(m.graph, "spanning-trees")  # a path: one tree
    assert all(len(r) == 1 for r in rmap.vertex_replicas)
    x = np.array([1.0, -1.0, 1.0])
    assert np.array_equal(lift_assignment(x, rmap), x)


def test_lift_project_examples():
    m = triangle()
    rmap = build_decomposition(m.graph, "tree-plus-leaves")
    x = np.array([1.0, -1.0, 1.0])
    x_aug = lift_assignment(x, rmap)
    assert x_aug.shape[0] == 5  # four chain copies and one hub copy
    back, violations = project_assignment(x_aug, rmap)
    assert violations == []
    assert np.array_equal(back, x)
    # break one replica
    dup = next(v for v in range(3) if len(rmap.vertex_replicas[v]) == 3)
    bad = x_aug.copy()
    bad[rmap.vertex_replicas[dup][1]] *= -1
    none, violations = project_assignment(bad, rmap)
    assert none is None and violations == [dup]


@given(st.integers(min_value=0, max_value=2**31))
def test_projection_matches_replica_loop(seed):
    rng = np.random.default_rng(seed)
    m = generate_ising_grid(3, 1.0, "frustrated", seed=seed % 97)
    strat = ["disjoint-edges", "spanning-trees", "tree-plus-leaves", "loops"][seed % 4]
    rmap = build_decomposition(m.graph, strat)
    x_aug = lift_assignment(rng.choice([-1.0, 1.0], size=m.n), rmap)
    flips = rng.random(rmap.n_aug) < rng.choice([0.0, 0.05, 0.3])
    x_aug[flips] *= -1
    want = np.array([x_aug[reps[0]] for reps in rmap.vertex_replicas])
    bad = [v for v, reps in enumerate(rmap.vertex_replicas) if np.any(x_aug[reps] != x_aug[reps[0]])]
    got, violated = project_assignment(x_aug, rmap)
    assert violated == bad
    if bad:
        assert got is None
    else:
        assert np.array_equal(got, want)


@given(st.integers(min_value=0, max_value=2**31))
def test_lifted_objective_matches(seed):
    rng = np.random.default_rng(seed)
    m = generate_ising_grid(4, 1.0, "frustrated", seed=seed % 97)
    strat = ["disjoint-edges", "spanning-trees", "tree-plus-leaves"][seed % 3]
    rmap = build_decomposition(m.graph, strat)
    aug = split_potentials(m, rmap)
    x = rng.choice([-1.0, 1.0], size=m.n)
    fx = evaluate_objective(m, x)
    f_aug = aug.augmented_objective(lift_assignment(x, rmap))
    assert fx == pytest.approx(f_aug, abs=1e-10)


def test_intermediaries_added_for_shared_components():
    m = triangle()
    rmap = build_decomposition(m.graph, "tree-plus-leaves")
    assert rmap.notes == ["added 1 intermediary replica(s)"]
    dup = next(v for v in range(3) if len(rmap.vertex_replicas[v]) == 3)
    oid = rmap.orig_edges.index((dup,))
    rids = rmap.edge_replicas[oid]
    assert len(rids) == 3  # two originals plus the hub
    groups = update_groups(rmap, rids)
    assert all(len(g) == 2 for g in groups)
    # the hub sits alone in its own component, after every strategy vertex
    hub = next(r for r in rids if r in rmap.hub_replicas)
    assert rmap.hub_replicas == {hub}
    assert rmap.replica_edges[hub] == (rmap.n_aug - 1,)
    comp = rmap.replica_component(hub)
    assert sum(rmap.component_of_vertex == comp) == 1
    rmap.validate()


def test_update_groups_needs_a_hub_for_shared_components():
    # two replicas of vertex 0's singleton in one component, and no hub
    rmap = ReplicationMap(
        n_orig=2,
        orig_edges=((0,), (1,), (0, 1)),
        vertex_origin=np.array([0, 1, 0]),
        replica_edges=[(0,), (2,), (1,), (0, 1), (2, 1)],
        edge_origin=np.array([0, 0, 1, 2, 2]),
    )
    with pytest.raises(DecompositionError, match="no intermediary hub"):
        update_groups(rmap, rmap.edge_replicas[0])
    assert update_groups(rmap, rmap.edge_replicas[1]) == [[2]]


def test_intermediaries_noop_when_disjoint():
    m = triangle()
    rmap = build_decomposition(m.graph, "disjoint-edges")
    assert rmap.hub_replicas == frozenset()
    assert not any("intermediary" in n for n in rmap.notes)
    assert rmap.n_components == 3


def random_pairwise_or_hyper_model(rng):
    n = int(rng.integers(2, 8))
    coeffs = {(v,): float(rng.normal()) for v in range(n) if rng.random() < 0.7}
    for _ in range(int(rng.integers(1, 2 * n))):
        k = 2 if rng.random() < 0.6 else min(3, n)
        coeffs[tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))] = float(rng.normal())
    for v in range(n):
        if not any(v in e for e in coeffs):
            coeffs[(v,)] = 0.0
    return DiscreteFactorModel(Hypergraph(n, tuple(coeffs)), coeffs)


@given(st.integers(min_value=0, max_value=2**31), st.sampled_from(STRATEGIES))
def test_hubs_exactly_where_replicas_share_components(seed, strategy):
    rng = np.random.default_rng(seed)
    if strategy in ("loops", "induced-blocks", "thin-strips") or rng.random() < 0.3:
        m = generate_ising_grid(int(rng.integers(2, 5)), 1.0, "frustrated", seed=seed % 97)
    else:
        m = random_pairwise_or_hyper_model(rng)
    kw = {"strip_width": 2, "overlap": 1} if strategy == "thin-strips" else {}
    try:
        rmap = build_decomposition(m.graph, strategy, **kw)
    except UncoveredEdgeError:
        assert strategy in ("spanning-trees", "tree-plus-leaves")  # hyperedges
        return
    for oid, rids in enumerate(rmap.edge_replicas):
        hubs = [r for r in rids if r in rmap.hub_replicas]
        others = [rmap.replica_component(r) for r in rids if r not in rmap.hub_replicas]
        assert len(hubs) == (len(set(others)) < len(others))
        for hub in hubs:
            comp = rmap.replica_component(hub)
            alone = np.flatnonzero(rmap.component_of_vertex == comp)
            assert sorted(rmap.replica_edges[hub]) == alone.tolist()
            assert len(alone) == len(rmap.orig_edges[oid])
    assert split_potentials(m, rmap).consistency_residual() < 1e-12


def test_ensure_singletons():
    coeffs = {(0, 1): 1.0}
    m = DiscreteFactorModel(Hypergraph(2, ((0, 1),)), coeffs)
    m2 = ensure_singletons(m)
    assert m2.theta((0,)) == 0.0 and m2.theta((1,)) == 0.0
    assert (0,) in m2.graph.edge_index
    x = np.array([1.0, -1.0])
    assert evaluate_objective(m, x) == evaluate_objective(m2, x)
