import numpy as np
import pytest

import lagrelax.gaussian as gaussian
from lagrelax.decomposition import DecompositionConfig, GaussianComponent
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
    return MomentMatcher([c0, c1], [cls])


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
        gm = generate_thin_membrane(4, 0.05, seed=5)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=4, cols=4, strip_width=2, overlap=2
        )
        relax = build_gaussian_relaxation(gm, cfg)
        matcher = relax.matcher
        cls = matcher.classes[0]
        infos = matcher._member_infos(cls, range(len(cls.members)))
        matcher._apply(cls, list(range(len(cls.members))), infos)
        fresh = matcher._member_infos(cls, range(len(cls.members)))
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
        # Each sweep reads every component through one Cholesky factor, the
        # report reuses the last read, and no covariance comes from inv.
        gm = generate_thin_membrane(6, 0.05, seed=3)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=6, cols=6, strip_width=3, overlap=2
        )
        components = len(build_gaussian_relaxation(gm, cfg).aug.components)
        calls = {"cholesky": 0, "inv": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        rep = solve_gaussian(gm, cfg, tol=1e-9, max_iters=2000)
        assert (rep.iterations, components) == (196, 4)
        assert calls == {"cholesky": rep.iterations * components, "inv": 0}

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
