"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Tolerances are fixed here, not configurable.
"""

import time

import numpy as np

from lagrelax.baselines import (
    baseline_block_gauss_seidel,
    baseline_gaussian_lbp,
    overlapping_blocks_1d,
)
from lagrelax.decomposition import DecompositionConfig
from lagrelax.discrete import build_relaxation, solve_discrete
from lagrelax.gaussian import build_gaussian_relaxation, solve_gaussian
from lagrelax.generators import (
    generate_chain_membrane,
    generate_ising_grid,
    generate_thin_membrane,
    generate_thin_plate,
)
from lagrelax.models import DiscreteFactorModel, Hypergraph
from lagrelax.multiscale import build_multiscale, cross_scale_update, solve_multiscale
from lagrelax.oracle import brute_force_map, exact_gaussian_solve, exact_grid_map


def verdict(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def random_small_model(rng, n_max=12):
    n = int(rng.integers(3, n_max + 1))
    coeffs = {(v,): float(rng.normal(0, 1)) for v in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if v == u + 1 or rng.random() < 0.35:
                coeffs[(u, v)] = float(rng.normal(0, 1))
    return DiscreteFactorModel(Hypergraph(n, tuple(coeffs)), coeffs)


STRATS = ["disjoint-edges", "spanning-trees", "tree-plus-leaves"]


def test_criterion_01_strong_duality_attractive_grids():
    worst_rel_gap = -np.inf
    attained_all = True
    worst_time = 0.0
    for sigma in [1.0, 2.0]:
        for seed in range(5):
            model = generate_ising_grid(10, sigma, "attractive", seed=seed)
            f_star, _ = exact_grid_map(model)
            t0 = time.perf_counter()
            report = solve_discrete(model, "disjoint-edges")
            worst_time = max(worst_time, time.perf_counter() - t0)
            rel_gap = (report.final_dual - f_star) / (1 + abs(f_star))
            worst_rel_gap = max(worst_rel_gap, rel_gap)
            attained_all &= abs(report.best_primal - f_star) < 1e-9
    ok = worst_rel_gap <= 1e-4 and attained_all and worst_time < 30.0
    verdict(
        1,
        "strong duality on attractive grids",
        ok,
        f"worst rel gap {worst_rel_gap:.2e}, decode exact {attained_all}, "
        f"worst time {worst_time:.1f}s",
    )


def test_criterion_02_gap_detection_frustrated_grids():
    n_detected = 0
    agreements = []
    for seed in range(10):
        model = generate_ising_grid(10, 0.7, "frustrated", seed=seed)
        f_star, x_star = exact_grid_map(model)
        report = solve_discrete(model, "disjoint-edges")
        gap = report.final_dual - f_star
        if gap > 1e-2 and report.gap_flag and report.tie_nodes:
            n_detected += 1
        tied = set(report.tie_nodes)
        untied = [v for v in range(model.n) if v not in tied]
        if untied:
            rate = float(np.mean([report.estimate[v] == x_star[v] for v in untied]))
            agreements.append(rate)
    mean_rate = float(np.mean(agreements)) if agreements else float("nan")
    # Partial-optimality agreement of untied nodes is reported, not asserted.
    verdict(
        2,
        "duality-gap detection on frustrated grids",
        n_detected >= 1,
        f"{n_detected}/10 gaps flagged; untied-node agreement vs one exact "
        f"maximizer: mean {mean_rate:.3f}, per-instance "
        + " ".join(f"{r:.2f}" for r in agreements),
    )


def test_criterion_03_weak_duality_exhaustive():
    rng = np.random.default_rng(20240817)
    violations = 0
    for k in range(50):
        model = random_small_model(rng)
        f_star, _ = brute_force_map(model)
        strat = STRATS[int(rng.integers(0, len(STRATS)))]
        report = solve_discrete(model, strat)
        slack = 1e-9 * (1 + abs(f_star))  # float roundoff only
        violations += sum(1 for t in report.dual_trace if t.g < f_star - slack)
    verdict(3, "weak duality over random models", violations == 0,
            f"{violations} violations in 50 runs")


def test_criterion_04_smooth_dual_sandwich():
    rng = np.random.default_rng(7)
    ok = True
    worst = 0.0
    for k in range(20):
        model = random_small_model(rng, n_max=8)
        relax = build_relaxation(model, STRATS[k % 3])
        for _ in range(2):  # move off the uniform split
            relax.sweep_log_marginal_averaging(0.7)
        g = relax.dual_value()
        cap = relax.rmap.n_aug * np.log(2.0)
        prev = -np.inf
        for tau in [0.01, 0.1, 0.5, 1.0]:
            gs = relax.smooth_dual_value(tau)
            ok &= g - 1e-9 <= gs <= g + tau * cap + 1e-9
            ok &= gs >= prev - 1e-9  # monotone in tau
            worst = max(worst, g - gs, gs - (g + tau * cap))
            prev = gs
    verdict(4, "smooth-dual sandwich and monotonicity", ok, f"worst slack {worst:.2e}")


def test_criterion_05_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    worst = 0.0
    for k in range(20):
        model = random_small_model(rng, n_max=7)
        relax = build_relaxation(model, "disjoint-edges")
        relax.sweep_log_marginal_averaging(0.9)
        tau, delta = 0.8, 1e-5
        grad = relax.dual_gradient(tau)
        for idx, (_, a, b) in enumerate(relax.gradient_pairs()):
            relax.perturb_pair(a, b, delta)
            up = relax.smooth_dual_value(tau)
            relax.perturb_pair(a, b, -2 * delta)
            down = relax.smooth_dual_value(tau)
            relax.perturb_pair(a, b, delta)
            worst = max(worst, abs(grad[idx] - (up - down) / (2 * delta)))
    verdict(5, "gradient matches finite differences", worst < 1e-6,
            f"worst deviation {worst:.2e}")


def test_criterion_06_relaxation_equivalence_and_monotonicity():
    worst_spread = 0.0
    blocks_ok = True
    for seed in range(5):
        model = generate_ising_grid(4, 1.0, "frustrated", seed=seed)
        finals = {}
        for strat in STRATS:
            finals[strat] = solve_discrete(model, strat).final_dual
        block_cfg = DecompositionConfig(strategy="induced-blocks", block=3)
        g_blocks = solve_discrete(model, block_cfg).final_dual
        vals = list(finals.values())
        worst_spread = max(worst_spread, max(vals) - min(vals))
        blocks_ok &= g_blocks <= min(vals) + 1e-6
    verdict(
        6,
        "pairwise relaxations agree; blocks are at least as tight",
        worst_spread <= 1e-5 and blocks_ok,
        f"worst pairwise spread {worst_spread:.2e}, blocks tighter {blocks_ok}",
    )


def _gaussian_reports():
    out = {}
    for name, gen in [("membrane", generate_thin_membrane), ("plate", generate_thin_plate)]:
        model = gen(10, 0.01, seed=0)
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=10, cols=10, strip_width=4, overlap=2
        )
        t0 = time.perf_counter()
        report = solve_gaussian(model, cfg, tol=1e-9, max_iters=2000)
        out[name] = (model, cfg, report, time.perf_counter() - t0)
    return out


GAUSSIAN_RUNS = None


def _get_gaussian_runs():
    global GAUSSIAN_RUNS
    if GAUSSIAN_RUNS is None:
        GAUSSIAN_RUNS = _gaussian_reports()
    return GAUSSIAN_RUNS


def test_criterion_07_gaussian_strong_duality():
    ok = True
    details = []
    for name, (model, cfg, report, wall) in _get_gaussian_runs().items():
        mean, _, value = exact_gaussian_solve(model)
        mean_err = float(np.max(np.abs(report.means - mean)))
        dual_rel = abs(report.dual - value) / abs(value)
        ok &= report.converged and mean_err < 1e-6 and dual_rel < 1e-8 and wall < 10.0
        details.append(f"{name}: mean {mean_err:.1e} dual {dual_rel:.1e} {wall:.1f}s")
    verdict(7, "gaussian strong duality on membrane and plate", ok, "; ".join(details))


def test_criterion_08_variance_upper_bounds():
    ok = True
    details = []
    for name, (model, cfg, report, _) in _get_gaussian_runs().items():
        relax = build_gaussian_relaxation(model, cfg)
        for _ in range(2000):
            if relax.matcher.sweep() < 1e-9:
                break
        J, _ = model.aggregate_dense
        cov = np.linalg.inv(J)
        worst = np.inf
        for key, (_, bound, _) in relax.class_variance_bounds().items():
            idx = np.array(key)
            worst = min(worst, float(np.linalg.eigvalsh(bound - cov[np.ix_(idx, idx)])[0]))
        ok &= worst >= -1e-9
        details.append(f"{name}: min class eig {worst:.1e}")
    membrane, _, _, _ = _get_gaussian_runs()["membrane"]
    _, var, _ = exact_gaussian_solve(membrane)
    _, lbp_var, lbp_ok = baseline_gaussian_lbp(membrane, max_iters=20000, tol=1e-12)
    under = bool(lbp_ok and np.all(lbp_var <= var + 1e-9))
    ok &= under
    details.append(f"LBP membrane variances below exact: {under}")
    verdict(8, "variance upper bounds and LBP direction", ok, "; ".join(details))


def test_criterion_09_pd_and_consistency_preserved():
    ok = True
    details = []
    for name, (_, _, report, _) in _get_gaussian_runs().items():
        ok &= report.consistency_max < 1e-9
        details.append(f"{name}: consistency {report.consistency_max:.1e}")
    verdict(9, "PD and consistency across every sweep", ok, "; ".join(details))


def test_criterion_10_multiscale_speedup_ordering():
    # all three methods use the same block geometry: size 16, overlap 8
    n, eps, tol = 256, 1e-4, 1e-6
    model = generate_chain_membrane(n, eps, seed=0)
    mean_ref, _, _ = exact_gaussian_solve(model)
    t0 = time.perf_counter()

    ms = solve_multiscale(model, levels=3, block=8, tol=1e-13, max_iters=200, reference=mean_ref)
    ms_iters = next((t.sweep for t in ms.trace if t.mean_err < tol), None)

    cfg = DecompositionConfig(
        strategy="thin-strips", rows=1, cols=n, strip_width=16, overlap=8
    )
    relax = build_gaussian_relaxation(model, cfg)
    ss_iters = None
    for it in range(1, 2501):
        relax.matcher.sweep()
        if float(np.max(np.abs(relax.node_stats().mean - mean_ref))) < tol:
            ss_iters = it
            break

    blocks = overlapping_blocks_1d(n, 16, 8)
    _, gs_trace = baseline_block_gauss_seidel(
        model, blocks, tol=0.0, max_iters=6000, reference=mean_ref
    )
    gs_iters = next((t.sweep for t in gs_trace if t.err < tol), None)
    wall = time.perf_counter() - t0

    ok = (
        ms_iters is not None
        and ss_iters is not None
        and gs_iters is not None
        and ms_iters < 0.9 * ss_iters
        and ss_iters < 0.9 * gs_iters
        and wall < 30.0
    )
    verdict(
        10,
        "multiscale speedup ordering",
        ok,
        f"iterations-to-{tol:g}: multiscale {ms_iters} < single-scale {ss_iters} "
        f"< block GS {gs_iters}; wall {wall:.1f}s",
    )


def test_criterion_11_thin_plate_lbp_divergence():
    model = generate_thin_plate(10, 0.01, seed=0)
    _, _, lbp_ok = baseline_gaussian_lbp(model, max_iters=500)
    _, _, report, _ = _get_gaussian_runs()["plate"]
    ok = (not lbp_ok) and report.converged
    verdict(11, "thin-plate LBP divergence while relaxation converges", ok,
            f"LBP converged {lbp_ok}, relaxation converged {report.converged}")


def test_criterion_12_cross_scale_update_correctness():
    model = generate_chain_membrane(4, 0.1, seed=1)
    ms = build_multiscale(model, levels=2, block=2)
    link = ms.links[0][0]
    cross_scale_update(ms, link)
    # dense, solver-free moment computation per component
    fcomp = ms.scales[0].matcher.components[link.fine_comp]
    ccomp = ms.scales[1].matcher.components[link.coarse_comp]
    Pf = np.linalg.inv(fcomp.J)
    xf = Pf @ fcomp.h
    active = np.abs(ccomp.J).sum(axis=0) > 0
    idx = np.where(active)[0]
    Pc = np.zeros_like(ccomp.J)
    Pc[np.ix_(idx, idx)] = np.linalg.inv(ccomp.J[np.ix_(idx, idx)])
    xc = Pc @ ccomp.h
    A = link.A
    fl = link.fine_locs
    cl = link.coarse_locs
    mean_gap = float(np.max(np.abs(xc[cl] - A @ xf[fl])))
    cov_gap = float(
        np.max(np.abs(Pc[np.ix_(cl, cl)] - A @ Pf[np.ix_(fl, fl)] @ A.T))
    )
    verdict(
        12,
        "cross-scale update enforces summary moments",
        mean_gap < 1e-9 and cov_gap < 1e-9,
        f"mean gap {mean_gap:.1e}, cov gap {cov_gap:.1e}",
    )
