import numpy as np
import pytest

from lagrelax.decomposition import DecompositionConfig
from lagrelax.gaussian import build_gaussian_relaxation
from test_gaussian import assert_same_forms, class_by_class_sweep
from lagrelax.generators import generate_chain_membrane, generate_thin_membrane
from lagrelax.inference import gaussian_component_mean
from lagrelax.models import ModelError
from lagrelax.multiscale import (
    build_multiscale,
    cross_scale_update,
    fine_scale_means,
    multiscale_consistency_residual,
    multiscale_objective,
    solve_multiscale,
    summary_multipliers,
    v_cycle,
)
from lagrelax.oracle import exact_gaussian_solve


def test_scale_sizes_dyadic():
    gm = generate_chain_membrane(8, 0.05, seed=0)
    ms = build_multiscale(gm, levels=3, block=2)
    assert [s.rmap.n_orig for s in ms.scales] == [8, 4, 2]


def test_invalid_geometry():
    gm = generate_chain_membrane(6, 0.05, seed=0)
    with pytest.raises(ModelError):
        build_multiscale(gm, levels=3, block=2)  # 6 -> 3 -> not divisible
    gm2 = generate_thin_membrane(3, 0.05, seed=0)
    with pytest.raises(ModelError):
        build_multiscale(gm2, levels=2, block=2)  # not a chain


@pytest.mark.parametrize("block", [0, -1])
def test_block_below_one_rejected(block):
    gm = generate_chain_membrane(8, 0.05, seed=0)
    with pytest.raises(ModelError, match="block"):
        build_multiscale(gm, levels=2, block=block)


def test_at_least_one_iteration():
    gm = generate_chain_membrane(8, 0.05, seed=0)
    with pytest.raises(ValueError, match="max_iters"):
        solve_multiscale(gm, levels=2, block=2, max_iters=0)


def test_initial_equivalence_on_lifted_states():
    gm = generate_chain_membrane(8, 0.05, seed=1)
    ms = build_multiscale(gm, levels=3, block=2)
    rng = np.random.default_rng(0)
    from lagrelax.models import evaluate_objective

    for _ in range(10):
        x = rng.normal(size=8)
        assert multiscale_objective(ms, x) == pytest.approx(
            evaluate_objective(gm, x), abs=1e-10
        )


def test_summary_multiplier_closed_form():
    Lam, lam = summary_multipliers(
        [[1.0, 1.0]], np.eye(2), np.array([1.0, 1.0]), np.array([[0.25]]), np.array([0.0])
    )
    assert Lam[0, 0] == pytest.approx(0.125)
    assert lam[0] == pytest.approx(0.5)


def test_matched_moments_are_a_fixed_point():
    # coarse moments already equal the summarized fine moments
    A = np.array([[0.5, 0.5]])
    J1 = np.array([[2.0, 0.3], [0.3, 1.5]])
    h1 = np.array([0.4, -0.2])
    P1 = np.linalg.inv(J1)
    M = A @ P1 @ A.T
    J2 = np.linalg.inv(M)
    h2 = J2 @ (A @ P1 @ h1)
    Lam, lam = summary_multipliers(A, J1, h1, J2, h2)
    assert np.max(np.abs(Lam)) < 1e-12
    assert np.max(np.abs(lam)) < 1e-12


def test_cross_update_enforces_moment_conditions():
    gm = generate_chain_membrane(4, 0.1, seed=2)
    ms = build_multiscale(gm, levels=2, block=2)
    link = ms.links[0][0]
    cross_scale_update(ms, link)
    fine, coarse = ms.scales[0].matcher, ms.scales[1].matcher
    J1, h1 = fine.marginal(link.fine_comp, link.fine_locs)
    J2, h2 = coarse.marginal(link.coarse_comp, link.coarse_locs)
    P1 = np.linalg.inv(J1)
    P2 = np.linalg.inv(J2)
    A = link.A
    assert np.max(np.abs(P2 @ h2 - A @ (P1 @ h1))) < 1e-9
    assert np.max(np.abs(P2 - A @ P1 @ A.T)) < 1e-9


def test_cross_update_idempotent_at_fixed_point():
    gm = generate_chain_membrane(4, 0.1, seed=3)
    ms = build_multiscale(gm, levels=2, block=2)
    link = ms.links[0][0]
    cross_scale_update(ms, link)
    Jf = ms.scales[0].matcher.components[link.fine_comp].J.copy()
    Jc = ms.scales[1].matcher.components[link.coarse_comp].J.copy()
    resid = cross_scale_update(ms, link)
    assert resid < 1e-12
    assert np.max(np.abs(ms.scales[0].matcher.components[link.fine_comp].J - Jf)) < 1e-12
    assert np.max(np.abs(ms.scales[1].matcher.components[link.coarse_comp].J - Jc)) < 1e-12


def test_global_consistency_preserved_through_solve():
    gm = generate_chain_membrane(16, 0.01, seed=4)
    ms = build_multiscale(gm, levels=3, block=2)
    for _ in range(3):
        v_cycle(ms)
        dJ, dh = multiscale_consistency_residual(ms)
        assert dJ < 1e-9 and dh < 1e-9
        for scale in ms.scales:
            for c in scale.matcher.components:
                gaussian_component_mean(c.J, c.h)  # raises when not PD


def test_solve_converges_to_exact_means():
    gm = generate_chain_membrane(32, 0.01, seed=5)
    mean, _, _ = exact_gaussian_solve(gm)
    rep = solve_multiscale(gm, levels=4, block=2, tol=1e-10, max_iters=300)
    assert rep.converged and rep.stop_reason == "residual"
    assert np.max(np.abs(rep.means - mean)) < 1e-6


@pytest.mark.filterwarnings("error")
def test_sweep_cap_and_nan_stop_reasons(monkeypatch):
    import lagrelax.multiscale as multiscale

    gm = generate_chain_membrane(16, 0.01, seed=0)
    rep = solve_multiscale(gm, levels=3, block=2, tol=1e-14, max_iters=2)
    assert rep.stop_reason == "sweep_cap" and not rep.converged

    def build_with_nan(model, levels, block=2):
        ms = build_multiscale(model, levels, block)
        ms.scales[0].matcher.components[0].h[0] = np.nan
        return ms

    monkeypatch.setattr(multiscale, "build_multiscale", build_with_nan)
    rep = solve_multiscale(gm, levels=3, block=2, tol=1e-8, max_iters=50)
    assert rep.stop_reason == "non_finite"
    assert rep.iterations == 1 and not rep.converged


def test_levels_one_matches_single_scale():
    gm = generate_chain_membrane(16, 0.05, seed=6)
    ms = build_multiscale(gm, levels=1, block=2)
    assert ms.levels == 1 and not ms.links
    cfg = DecompositionConfig(
        strategy="thin-strips", rows=1, cols=16, strip_width=4, overlap=2
    )
    relax = build_gaussian_relaxation(gm, cfg)
    r_ms = [ms.scales[0].matcher.sweep() for _ in range(5)]
    r_ss = [relax.matcher.sweep() for _ in range(5)]
    assert np.allclose(r_ms, r_ss, atol=1e-12)
    mean_ms = fine_scale_means(ms)
    assert np.max(np.abs(mean_ms - relax.node_stats().mean)) < 1e-12


def test_batched_v_cycles_match_class_by_class_sweeps():
    # The first V-cycle sweeps coarse components that still hold all-zero
    # rows, so their batched factors fail and are redone member by member.
    gm = generate_chain_membrane(32, 0.01, seed=7)
    batched = build_multiscale(gm, levels=3, block=2)
    reference = build_multiscale(gm, levels=3, block=2)
    zero_rows = []

    def reference_sweep(matcher):
        zero_rows.append(any(not c.J.any(axis=0).all() for c in matcher.components))
        return class_by_class_sweep(matcher)

    for scale in reference.scales:
        scale.matcher.sweep = lambda m=scale.matcher: reference_sweep(m)
    for cycle in range(3):
        assert v_cycle(batched) == pytest.approx(v_cycle(reference), abs=1e-12)
        for a, b in zip(batched.scales, reference.scales):
            assert_same_forms(a.matcher, b.matcher, 1e-12)
        if cycle == 0:
            assert any(zero_rows)
    assert not any(zero_rows[-5:])
