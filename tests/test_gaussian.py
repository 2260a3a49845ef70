import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lagrelax.gaussian as gaussian
from lagrelax.decomposition import (
    DecompositionConfig,
    DecompositionError,
    GaussianComponent,
    stack_components,
)
from lagrelax.gaussian import (
    GaussClass,
    MomentMatcher,
    build_gaussian_relaxation,
    solve_gaussian,
)
from lagrelax.inference import gaussian_component_mean, gaussian_marginal_info
from lagrelax.models import GaussianInfoModel, NotPositiveDefiniteError
from lagrelax.generators import (
    generate_chain_membrane,
    generate_thin_membrane,
    generate_thin_plate,
)
from lagrelax.oracle import exact_gaussian_solve


def matcher_of_two_singletons(j0, j1, h0=0.0, h1=0.0):
    c0 = GaussianComponent([0], np.array([[j0]]), np.array([h0]))
    c1 = GaussianComponent([1], np.array([[j1]]), np.array([h1]))
    cls = GaussClass(
        (0,),
        [(0, np.array([0]), np.array([], dtype=int)), (1, np.array([0]), np.array([], dtype=int))],
        [[0, 1]],
    )
    return MomentMatcher([c0, c1], [cls], stack_components([c0, c1]))


def rect_membrane(rows, cols, eps, seed):
    """Smoothness prior on a rows x cols grid, eps spread over the cliques."""
    rng = np.random.default_rng(seed)
    n = rows * cols
    edges = [(v, v + 1) for v in range(n) if (v + 1) % cols] + [(v, v + cols) for v in range(n - cols)]
    count = np.ones(n)
    for e in edges:
        count[list(e)] += 1
    terms = [((v,), np.array([[eps / count[v]]]), rng.normal(size=1)) for v in range(n)]
    for e in edges:
        J = 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]]) + np.diag(eps / count[list(e)])
        terms.append((e, J, np.zeros(2)))
    return GaussianInfoModel.from_cliques(n, terms)


def class_by_class_sweep(matcher):
    """The colour order run one class at a time, each member read with
    `gaussian_marginal_info` and updated on its own."""

    def infos(cls, idxs):
        return [matcher.marginal(*cls.members[i]) for i in idxs]

    def apply(cls, idxs, got):
        Jbar = sum(J for J, _ in got) / len(got)
        hbar = sum(h for _, h in got) / len(got)
        for i, (J, h) in zip(idxs, got):
            ci, locs, _ = cls.members[i]
            comp = matcher.components[ci]
            comp.J[np.ix_(locs, locs)] += Jbar - J
            comp.h[locs] += hbar - h

    resids = []
    for colour in matcher.colours:
        for cls in colour.classes:
            every = range(len(cls.members))
            got = infos(cls, every)
            Jbar = sum(J for J, _ in got) / len(got)
            hbar = sum(h for _, h in got) / len(got)
            for J, h in got:
                resids += [np.max(np.abs(J - Jbar)), np.max(np.abs(h - hbar))]
            if len(cls.groups) == 1:
                apply(cls, every, got)
            else:
                for group in cls.groups:
                    apply(cls, group, infos(cls, group))
    return float(np.max(resids, initial=0.0))


def dense_component_read(J, h):
    """Mean, covariance diagonal and value of one component from a dense
    inverse of its active block; an inactive variable reads mean 0 and
    infinite variance."""
    active = np.flatnonzero(J.any(axis=1))
    cov = np.linalg.inv(J[np.ix_(active, active)])
    mean = np.zeros(len(h))
    var = np.full(len(h), np.inf)
    mean[active] = cov @ h[active]
    var[active] = np.diag(cov)
    return mean, var, 0.5 * h @ mean


def assert_same_forms(a, b, tol):
    for ca, cb in zip(a.components, b.components):
        assert np.max(np.abs(ca.J - cb.J)) <= tol
        assert np.max(np.abs(ca.h - cb.h)) <= tol


SWEEP_CASES = {
    # family, rows, cols, strategy, strip width K, overlap L
    "membrane strips": (generate_thin_membrane, 6, 6, "thin-strips", 3, 1),
    "plate strips": (generate_thin_plate, 6, 6, "thin-strips", 4, 2),
    "chain": (generate_chain_membrane, 1, 24, "thin-strips", 4, 2),
    "11x10 blocks of 12 and 10": (rect_membrane, 11, 10, "thin-strips", 6, 2),
    # a stack of one 41-vertex tree plus leaf copies and a stack of eight
    # one-vertex hubs, with hub colours
    "tree-plus-leaves": (generate_thin_membrane, 5, 5, "tree-plus-leaves", 2, 1),
    "disjoint-edges": (generate_thin_membrane, 4, 4, "disjoint-edges", 2, 1),
}


def sweep_case(name, seed):
    family, rows, cols, strategy, K, L = SWEEP_CASES[name]
    eps = float(np.random.default_rng(seed).uniform(0.01, 0.2))
    if family is rect_membrane:
        model = rect_membrane(rows, cols, eps, seed)
    elif family is generate_chain_membrane:
        model = family(cols, eps, seed=seed)
    else:
        model = family(rows, eps, seed=seed)
    cfg = DecompositionConfig(strategy=strategy, rows=rows, cols=cols, strip_width=K, overlap=L)
    return build_gaussian_relaxation(model, cfg), build_gaussian_relaxation(model, cfg)


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_coloured_sweep_matches_class_by_class(name, seed):
    batched, reference = sweep_case(name, seed)
    matcher = batched.matcher
    for colour in matcher.colours:
        assert len({len(c.key) for c in colour.classes}) == 1
        if colour.hub_groups:
            assert len(colour.classes) == 1
            continue
        comps = [ci for c in colour.classes for ci, _, _ in c.members]
        assert len(comps) == len(set(comps))
    assert sorted(c.key for col in matcher.colours for c in col.classes) == sorted(
        c.key for c in matcher.classes
    )
    for _ in range(3):
        got = matcher.sweep()
        assert got == pytest.approx(class_by_class_sweep(reference.matcher), abs=1e-12)
        assert_same_forms(matcher, reference.matcher, 1e-12)
        for stack in batched.aug.stacks:
            for row, ci in enumerate(stack.comps):
                assert np.shares_memory(stack.J[row], matcher.components[ci].J)
            # the batched stack read against a dense inverse of each row
            rows = [dense_component_read(J, h) for J, h in zip(stack.J, stack.h)]
            for got_part, ref_part in zip(gaussian_component_mean(stack.J, stack.h), zip(*rows)):
                np.testing.assert_allclose(got_part, np.array(ref_part), rtol=1e-10, atol=1e-12)


def test_mixed_size_stacks():
    batched, _ = sweep_case("tree-plus-leaves", 0)
    shapes = sorted(stack.J.shape for stack in batched.aug.stacks)
    assert shapes == [(1, 41, 41), (8, 1, 1)]
    assert sum(bool(colour.hub_groups) for colour in batched.matcher.colours) == 8


def test_non_pd_eliminated_block_raises():
    # A class member whose eliminated block is not PD fails the batched
    # factor; the one-member redo raises, as the per-member read does.
    batched, reference = sweep_case("membrane strips", 3)
    for relax in (batched, reference):
        ci, _, elim = relax.classes[0].members[0]
        J = relax.aug.components[ci].J
        J[elim[0], elim[0]] = -J[elim[0], elim[0]]
    with pytest.raises(NotPositiveDefiniteError):
        class_by_class_sweep(reference.matcher)
    with pytest.raises(NotPositiveDefiniteError):
        batched.matcher.sweep()


def test_aggregate_equals_component_loop():
    for name in ("membrane strips", "tree-plus-leaves", "disjoint-edges"):
        relax, _ = sweep_case(name, 1)
        aug = relax.aug
        dJ, dh = aug.consistency_residual()
        assert dJ < 1e-12 and dh < 1e-12
        for _ in range(2):
            relax.matcher.sweep()
        n = aug.rmap.n_orig
        J = np.zeros((n, n))
        h = np.zeros(n)
        for comp in aug.components:
            # np.add.at, because a tree-plus-leaves component holds two
            # copies of a leaf's vertex
            orig = aug.rmap.vertex_origin[comp.vertices]
            np.add.at(J, (orig[:, None], orig), comp.J)
            np.add.at(h, orig, comp.h)
        got_J, got_h = aug.aggregate()
        # per-stack sums may associate differently from the loop
        np.testing.assert_allclose(got_J, J, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(got_h, h, rtol=1e-14, atol=1e-14)


class TestDualValue:
    def test_identity(self):
        _, _, value = gaussian_component_mean(np.eye(2), np.array([1.0, 1.0]))
        assert value == pytest.approx(1.0)

    def test_zero_h(self):
        _, _, value = gaussian_component_mean(2 * np.eye(2), np.zeros(2))
        assert value == pytest.approx(0.0)

    def test_converged_chain_matches_exact(self):
        gm = generate_chain_membrane(4, 0.1, seed=3)
        _, _, val = exact_gaussian_solve(gm)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=1, cols=4, strip_width=2, overlap=1
        )
        rep = solve_gaussian(gm, cfg, tol=1e-12, max_iters=500)
        assert rep.converged and rep.stop_reason == "residual"
        assert rep.dual == pytest.approx(val, rel=1e-10)


class TestSweep:
    def test_singleton_replicas_average(self):
        m = matcher_of_two_singletons(1.0, 2.0)
        resid = m.sweep()
        assert resid == pytest.approx(0.5)
        assert m.components[0].J[0, 0] == pytest.approx(1.5)
        assert m.components[1].J[0, 0] == pytest.approx(1.5)

    def test_nan_marginal_gives_nan_residual(self):
        m = matcher_of_two_singletons(1.0, 2.0)
        c = m.components[0]
        c.J[0, 0] = np.nan
        assert np.isnan(m.sweep())
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_component_mean(c.J, c.h)

    @staticmethod
    def solve_with_corrupt_component(monkeypatch, corrupt):
        def build_corrupted(model, config=None, **kwargs):
            relax = build_gaussian_relaxation(model, config, **kwargs)
            cls = relax.classes[0]
            ci, locs, _ = cls.members[0]
            corrupt(relax.aug.components[ci].J, locs[0])
            return relax

        gm = generate_thin_membrane(4, 0.05, seed=5)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=4, cols=4, strip_width=2, overlap=1
        )
        monkeypatch.setattr(gaussian, "build_gaussian_relaxation", build_corrupted)
        return solve_gaussian(gm, cfg, tol=1e-8, max_iters=5)

    def test_nan_component_yields_no_report(self, monkeypatch):
        # A NaN in a component's J (models reject NaN at construction) must
        # not come back as a converged solve: the sweep or the per-sweep
        # factorization check rejects it.
        def put_nan(J, v):
            J[v, v] = np.nan

        with pytest.raises(NotPositiveDefiniteError):
            self.solve_with_corrupt_component(monkeypatch, put_nan)

    def test_non_pd_component_yields_no_report(self, monkeypatch):
        # A finite J that is not positive definite fails the same check.
        def negate_diagonal(J, v):
            J[v, v] = -J[v, v]

        with pytest.raises(NotPositiveDefiniteError):
            self.solve_with_corrupt_component(monkeypatch, negate_diagonal)

    @pytest.mark.filterwarnings("error")
    def test_nan_potential_ends_the_sweeps_at_once(self, monkeypatch):
        # A NaN h keeps every block PD, so only the residuals can catch it.
        def build_with_nan(model, config=None, **kwargs):
            relax = build_gaussian_relaxation(model, config, **kwargs)
            relax.aug.components[0].h[0] = np.nan
            return relax

        gm = generate_thin_membrane(4, 0.05, seed=5)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=4, cols=4, strip_width=2, overlap=1
        )
        monkeypatch.setattr(gaussian, "build_gaussian_relaxation", build_with_nan)
        rep = solve_gaussian(gm, cfg, tol=1e-8, max_iters=50)
        assert np.isnan(rep.consistency_max)
        assert rep.stop_reason == "non_finite"
        assert rep.iterations == 1 and not rep.converged

    def test_deltas_sum_to_zero(self):
        m = matcher_of_two_singletons(1.0, 3.0, h0=0.5, h1=-0.5)
        before = m.components[0].J[0, 0] + m.components[1].J[0, 0]
        before_h = m.components[0].h[0] + m.components[1].h[0]
        m.sweep()
        assert m.components[0].J[0, 0] + m.components[1].J[0, 0] == pytest.approx(before)
        assert m.components[0].h[0] + m.components[1].h[0] == pytest.approx(before_h)

    def test_replica_marginals_equal_after_update(self):
        # After a colour's step, every class of that colour has equal member
        # marginals; a colour holds several classes here.
        gm = generate_thin_membrane(6, 0.05, seed=5)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=6, cols=6, strip_width=2, overlap=1
        )
        matcher = build_gaussian_relaxation(gm, cfg).matcher
        assert max(len(colour.classes) for colour in matcher.colours) > 1
        for colour in matcher.colours:
            colour.step.average(write=True)
            for cls in colour.classes:
                fresh = [matcher.marginal(*m) for m in cls.members]
                for (Ja, ha), (Jb, hb) in zip(fresh, fresh[1:]):
                    assert np.max(np.abs(Ja - Jb)) < 1e-12
                    assert np.max(np.abs(ha - hb)) < 1e-12

    def test_two_by_two_grid_edge_chains(self):
        # 2x2 grid broken into its four edges: 2-node chains sharing every
        # node through replicas; converged means must match the dense solve
        rng = np.random.default_rng(8)
        terms = []
        for v in range(4):
            terms.append(((v,), np.array([[0.3]]), rng.normal(size=1)))
        for e in [(0, 1), (2, 3), (0, 2), (1, 3)]:
            terms.append((e, np.array([[1.0, -0.8], [-0.8, 1.0]]), np.zeros(2)))
        gm = GaussianInfoModel.from_cliques(4, terms)
        mean, _, _ = exact_gaussian_solve(gm)
        cfg = DecompositionConfig(strategy="disjoint-edges", rows=2, cols=2)
        rep = solve_gaussian(gm, cfg, tol=1e-12, max_iters=3000)
        assert rep.converged
        assert np.max(np.abs(rep.means - mean)) < 1e-8

    def test_strips_on_grid_match_oracle(self):
        gm = generate_thin_membrane(4, 0.2, seed=8)
        mean, _, _ = exact_gaussian_solve(gm)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=4, cols=4, strip_width=2, overlap=1
        )
        rep = solve_gaussian(gm, cfg, tol=1e-12, max_iters=3000)
        assert rep.converged
        assert np.max(np.abs(rep.means - mean)) < 1e-8

    def test_strip_block_over_uncoupled_rows(self):
        # 2x4 grid without vertical edges: each strip is two components, so
        # a strip's overlap block spans both; edge classes solve it exactly.
        rng = np.random.default_rng(3)
        terms = [((v,), np.array([[0.5]]), rng.normal(size=1)) for v in range(8)]
        for r in range(2):
            for c in range(3):
                v = 4 * r + c
                terms.append(((v, v + 1), np.array([[1.0, -0.6], [-0.6, 1.0]]), np.zeros(2)))
        gm = GaussianInfoModel.from_cliques(8, terms)
        strips = DecompositionConfig(strategy="thin-strips", rows=2, cols=4, strip_width=2, overlap=1)
        with pytest.raises(DecompositionError, match="spans several components"):
            build_gaussian_relaxation(gm, strips)
        mean, _, _ = exact_gaussian_solve(gm)
        for strategy in ("disjoint-edges", "spanning-trees"):
            cfg = DecompositionConfig(strategy=strategy, rows=2, cols=4)
            rep = solve_gaussian(gm, cfg, tol=1e-12, max_iters=3000)
            assert rep.converged
            assert np.max(np.abs(rep.means - mean)) < 1e-8

    def test_wide_plate_strips_take_no_treewidth_bound(self):
        # 6-column plate strips have a min-fill width of 13, above the
        # default treewidth_bound of 12, which applies to discrete relaxations only
        gm = generate_thin_plate(10, 0.01, seed=0)
        cfg = DecompositionConfig(strategy="thin-strips", strip_width=6, overlap=2)
        assert cfg.treewidth_bound == 12
        rep = solve_gaussian(gm, cfg)
        assert rep.converged
        mean, var, _ = exact_gaussian_solve(gm)
        assert np.max(np.abs(rep.means - mean)) < 1e-6
        assert np.all(rep.variance_bound >= var - 1e-9)


class TestInvariants:
    def test_pd_and_consistency_every_sweep(self):
        gm = generate_thin_membrane(5, 0.02, seed=2)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=5, cols=5, strip_width=3, overlap=2
        )
        relax = build_gaussian_relaxation(gm, cfg)
        for _ in range(20):
            relax.matcher.sweep()
            dJ, dh = relax.aug.consistency_residual()
            assert dJ < 1e-10 and dh < 1e-10
            relax.node_stats()  # raises when a component is not PD

    def test_one_factor_per_component_per_sweep(self, monkeypatch):
        # Each sweep factors every class member's eliminated block once and
        # every component once, in batched Cholesky calls; the report
        # reuses the last read, and no covariance comes from inv.
        gm = generate_thin_membrane(6, 0.05, seed=3)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=6, cols=6, strip_width=3, overlap=2
        )
        matcher = build_gaussian_relaxation(gm, cfg).matcher
        components = len(matcher.components)
        members = sum(len(cls.members) for cls in matcher.classes)
        calls = {"cholesky": 0, "inv": 0}
        factored = []

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                calls[name] += 1
                if name == "cholesky":
                    factored.append(len(a) if np.ndim(a) == 3 else 1)
                return fn(a, *args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        rep = solve_gaussian(gm, cfg, tol=1e-9, max_iters=2000)
        assert (rep.iterations, components, members, len(matcher.colours)) == (196, 4, 12, 4)
        # one call per colour and one for the single stack of components
        assert calls == {"cholesky": rep.iterations * 5, "inv": 0}
        assert sum(factored) == rep.iterations * (components + members)

    def test_already_thin_chain_converges_immediately(self):
        gm = generate_chain_membrane(6, 0.1, seed=0)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=1, cols=6, strip_width=6, overlap=2
        )
        rep = solve_gaussian(gm, cfg, tol=1e-10, max_iters=10)
        assert rep.converged and rep.iterations == 1
        assert rep.dual_trace[0].max_residual == 0.0
        mean, _, _ = exact_gaussian_solve(gm)
        assert np.max(np.abs(rep.means - mean)) < 1e-10


class TestVarianceBounds:
    def test_unreplicated_node_is_exact(self):
        gm = generate_chain_membrane(6, 0.1, seed=1)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=1, cols=6, strip_width=6, overlap=2
        )
        relax = build_gaussian_relaxation(gm, cfg)
        loose, tight = relax.node_variance_bounds(relax.node_stats())
        _, var, _ = exact_gaussian_solve(gm)
        assert np.max(np.abs(loose - var)) < 1e-10
        assert np.max(np.abs(tight - var)) < 1e-10

    def test_membrane_bounds_dominate_exact(self):
        gm = generate_thin_membrane(6, 0.05, seed=3)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=6, cols=6, strip_width=3, overlap=2
        )
        rep = solve_gaussian(gm, cfg, tol=1e-9, max_iters=2000)
        assert rep.converged
        _, var, _ = exact_gaussian_solve(gm)
        assert np.all(rep.variance_bound >= var - 1e-9)

    @pytest.mark.parametrize("strategy", ["thin-strips", "disjoint-edges"])
    def test_bounds_match_per_replica_schur(self, strategy):
        # 1/Sigma_vv from the component covariance equals the marginal
        # precision that a Schur complement onto each replica gives.
        gm = generate_thin_membrane(5, 0.05, seed=4)
        cfg = DecompositionConfig(
            strategy=strategy, rows=5, cols=5, strip_width=3, overlap=2
        )
        relax = build_gaussian_relaxation(gm, cfg)
        for _ in range(10):
            relax.matcher.sweep()
        rmap, comps = relax.rmap, relax.aug.components
        loose_ref = np.zeros(rmap.n_orig)
        tight_ref = np.zeros(rmap.n_orig)
        for v, reps in enumerate(rmap.vertex_replicas):
            precs, comp_ids = [], []
            for v_aug in reps:
                ci = int(rmap.component_of_vertex[v_aug])
                comp = comps[ci]
                Jm, _ = gaussian_marginal_info(comp.J, comp.h, [comp.local[v_aug]])
                precs.append(float(Jm[0, 0]))
                comp_ids.append(ci)
            jbar = float(np.mean(precs))
            loose_ref[v] = 1.0 / jbar
            distinct = len(set(comp_ids)) == len(reps)
            tight_ref[v] = 1.0 / (len(reps) * jbar) if distinct else loose_ref[v]
        loose, tight = relax.node_variance_bounds(relax.node_stats())
        np.testing.assert_allclose(loose, loose_ref, rtol=1e-10, atol=0)
        np.testing.assert_allclose(tight, tight_ref, rtol=1e-10, atol=0)

    def test_tight_bound_below_loose(self):
        gm = generate_thin_membrane(5, 0.05, seed=4)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=5, cols=5, strip_width=3, overlap=2
        )
        relax = build_gaussian_relaxation(gm, cfg)
        for _ in range(50):
            relax.matcher.sweep()
        loose, tight = relax.node_variance_bounds(relax.node_stats())
        assert np.all(tight <= loose + 1e-12)

    def test_class_bounds_psd_against_exact(self):
        gm = generate_thin_membrane(5, 0.05, seed=6)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=5, cols=5, strip_width=3, overlap=2
        )
        relax = build_gaussian_relaxation(gm, cfg)
        for _ in range(400):
            if relax.matcher.sweep() < 1e-10:
                break
        J, _ = gm.aggregate_dense
        cov = np.linalg.inv(J)
        for key, (jbar, bound, tight) in relax.class_variance_bounds().items():
            idx = np.array(key)
            exact = cov[np.ix_(idx, idx)]
            assert np.linalg.eigvalsh(bound - exact)[0] > -1e-9
            if tight is not None:
                assert np.linalg.eigvalsh(bound - tight)[0] > -1e-12


class TestSolveReport:
    def test_not_converged_flag(self):
        gm = generate_thin_membrane(6, 0.01, seed=0)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=6, cols=6, strip_width=2, overlap=1
        )
        rep = solve_gaussian(gm, cfg, tol=1e-12, max_iters=3)
        assert not rep.converged and rep.stop_reason == "sweep_cap"
        assert rep.iterations == 3

    def test_no_strategy_means_thin_strips(self):
        gm = generate_thin_membrane(4, 0.05, seed=0)
        rep = solve_gaussian(gm, None, rows=4, cols=4, strip_width=2, overlap=1)
        assert rep.strategy == "thin-strips" and rep.converged

    def test_at_least_one_sweep(self):
        gm = generate_thin_membrane(4, 0.05, seed=0)
        with pytest.raises(ValueError):
            solve_gaussian(gm, "thin-strips", max_iters=0)

    def test_trace_csv_schema(self, tmp_path):
        gm = generate_thin_membrane(4, 0.05, seed=0)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=4, cols=4, strip_width=2, overlap=2
        )
        rep = solve_gaussian(gm, cfg, tol=1e-8, max_iters=50)
        path = tmp_path / "trace.csv"
        rep.write_trace_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "sweep,dual,mean_err_proxy,var_residual,max_residual,wall_ms"
