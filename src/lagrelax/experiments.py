"""Named experiments driven by a small key:value config format.

Each experiment writes report JSON, per-run trace CSVs, and a plot-ready
summary CSV into its output directory. Bundles are reproducible for a
fixed seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .baselines import (
    BaselineTrace,
    baseline_block_gauss_seidel,
    baseline_gaussian_lbp,
    overlapping_blocks_1d,
    vertical_strip_blocks,
)
from .decomposition import DecompositionConfig
from .discrete import TemperatureSchedule, solve_discrete
from .gaussian import solve_gaussian
from .generators import (
    generate_chain_membrane,
    generate_ising_grid,
    generate_thin_membrane,
    generate_thin_plate,
)
from .multiscale import solve_multiscale
from .oracle import exact_gaussian_solve, exact_grid_map
from .report import write_trace_csv

EXPERIMENTS = ("discrete-grid", "gaussian-membrane", "gaussian-plate", "multiscale-1d")


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict:
    config: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ConfigError(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        config[key.strip()] = _parse_value(value.strip())
    return config


def _parse_value(value: str):
    cleaned = value.replace("[", " ").replace("]", " ").replace(",", " ")
    parts = cleaned.split()
    if not parts:
        return ""
    scalars = []
    for p in parts:
        try:
            f = float(p)
            scalars.append(int(f) if f.is_integer() and "." not in p and "e" not in p.lower() else f)
        except ValueError:
            scalars.append(p)
    if len(scalars) == 1:
        return scalars[0]
    return scalars


def _require(config: dict, key: str, default=None):
    if key in config:
        return config[key]
    if default is not None:
        return default
    raise ConfigError(f"missing config field {key!r}")


def _as_list(value):
    return value if isinstance(value, list) else [value]


def run_experiment(config, outdir) -> dict:
    """Dispatch a named experiment; returns its summary dictionary."""
    if isinstance(config, str):
        config = parse_config_text(config)
    os.makedirs(outdir, exist_ok=True)
    name = _require(config, "experiment")
    if name == "discrete-grid":
        summary = _discrete_grid(config, outdir)
    elif name == "gaussian-membrane":
        summary = _gaussian_grid(config, outdir, plate=False)
    elif name == "gaussian-plate":
        summary = _gaussian_grid(config, outdir, plate=True)
    elif name == "multiscale-1d":
        summary = _multiscale_1d(config, outdir)
    else:
        raise ConfigError(f"unknown experiment {name!r}")
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def _discrete_grid(config, outdir) -> dict:
    m = int(_require(config, "m", 10))
    sigmas = [float(s) for s in _as_list(_require(config, "sigmas"))]
    seed = int(_require(config, "seed", 0))
    modes = _as_list(_require(config, "mode", "both"))
    if modes == ["both"]:
        modes = ["attractive", "frustrated"]
    strategy = str(_require(config, "strategy", "spanning-trees"))
    schedule = TemperatureSchedule(
        tau0=float(_require(config, "tau0", 1.0)),
        decay=float(_require(config, "decay", 0.5)),
        tau_min=float(_require(config, "tau_min", 1e-3)),
        inner_tol=float(_require(config, "tol", 1e-6)),
    )
    rows = []
    for mode in modes:
        for sigma in sigmas:
            model = generate_ising_grid(m, sigma, mode, seed)
            report = solve_discrete(model, strategy, schedule)
            tag = f"{mode}_s{sigma:g}"
            report.write_json(os.path.join(outdir, f"report_{tag}.json"))
            report.write_trace_csv(os.path.join(outdir, f"trace_{tag}.csv"))
            row = {
                "sigma": sigma,
                "mode": mode,
                "g": report.final_dual,
                "best_primal": report.best_primal,
                "gap_flag": report.gap_flag,
            }
            if m <= 12:
                f_star, _ = exact_grid_map(model)
                row["f_star"] = f_star
            rows.append(row)
    with open(os.path.join(outdir, "gap_summary.csv"), "w", encoding="utf-8") as fh:
        fh.write("sigma,mode,g,best_primal,gap_flag\n")
        for r in rows:
            fh.write(
                f"{r['sigma']:g},{r['mode']},{r['g']!r},{r['best_primal']!r},"
                f"{int(r['gap_flag'])}\n"
            )
    return {"experiment": "discrete-grid", "m": m, "runs": rows}


def _gaussian_grid(config, outdir, plate: bool) -> dict:
    m = int(_require(config, "m", 10))
    eps = float(_require(config, "eps", 0.01))
    seed = int(_require(config, "seed", 0))
    Ks = [int(k) for k in _as_list(_require(config, "K", 4))]
    L = int(_require(config, "L", 2))
    tol = float(_require(config, "tol", 1e-8))
    max_iters = int(_require(config, "max_iters", 500))
    gen = generate_thin_plate if plate else generate_thin_membrane
    model = gen(m, eps, seed)
    mean_ref, var_ref, _ = exact_gaussian_solve(model)

    summary: dict = {
        "experiment": "gaussian-plate" if plate else "gaussian-membrane",
        "m": m,
        "eps": eps,
        "runs": [],
    }
    for K in Ks:
        cfg = DecompositionConfig(
            strategy="thin-strips", rows=m, cols=m, strip_width=K, overlap=L
        )
        report = solve_gaussian(model, cfg, tol=tol, max_iters=max_iters)
        tag = f"K{K}"
        report.write_json(os.path.join(outdir, f"report_{tag}.json"))
        report.write_trace_csv(os.path.join(outdir, f"trace_{tag}.csv"))
        over = float(np.mean((report.variance_bound - var_ref) / var_ref)) * 100
        summary["runs"].append(
            {
                "K": K,
                "converged": report.converged,
                "iterations": report.iterations,
                "mean_err": float(np.max(np.abs(report.means - mean_ref))),
                "variance_overestimate_pct": over,
            }
        )
    lbp_iters = int(_require(config, "lbp_iters", 500 if plate else 20000))
    lbp_means, lbp_vars, lbp_ok = baseline_gaussian_lbp(model, max_iters=lbp_iters)
    lbp_entry: dict = {"converged": bool(lbp_ok)}
    if lbp_ok:
        lbp_entry["mean_err"] = float(np.max(np.abs(lbp_means - mean_ref)))
        lbp_entry["variance_underestimate_pct"] = float(
            np.mean((var_ref - lbp_vars) / var_ref) * 100
        )
    summary["lbp"] = lbp_entry
    blocks = vertical_strip_blocks(m, m, Ks[0], L)
    _, gs_trace = baseline_block_gauss_seidel(
        model, blocks, tol=1e-12, max_iters=max_iters, reference=mean_ref
    )
    write_trace_csv(os.path.join(outdir, "trace_block_gs.csv"), BaselineTrace, gs_trace)
    summary["block_gs_sweeps"] = len(gs_trace)
    return summary


def _iters_to(trace_errs, tol) -> int | None:
    for k, e in enumerate(trace_errs, start=1):
        if e < tol:
            return k
    return None


def _default_levels(n: int, block: int) -> int:
    levels, size = 1, n
    while size % block == 0 and size // block >= 2:
        size //= block
        levels += 1
    return levels


def _multiscale_1d(config, outdir) -> dict:
    n = int(_require(config, "n", 256))
    eps = float(_require(config, "eps", 1e-4))
    seed = int(_require(config, "seed", 0))
    block = int(_require(config, "block", 8))
    tol = float(_require(config, "tol", 1e-6))
    max_iters = int(_require(config, "max_iters", 2000))
    levels = int(_require(config, "levels", _default_levels(n, block)))

    model = generate_chain_membrane(n, eps, seed)
    mean_ref, _, _ = exact_gaussian_solve(model)

    # Run well past the mean-error target so the trace crosses it; the
    # solver's own stopping rule watches moment residuals, not mean error.
    ms = solve_multiscale(
        model, levels, block, tol=tol * 1e-6, max_iters=max_iters, reference=mean_ref
    )
    ms.write_trace_csv(os.path.join(outdir, "trace_multiscale.csv"))

    cfg = DecompositionConfig(
        strategy="thin-strips", rows=1, cols=n, strip_width=2 * block, overlap=block
    )
    single_errs = _single_scale_mean_errors(model, cfg, mean_ref, max_iters, tol)
    with open(
        os.path.join(outdir, "trace_single_scale.csv"), "w", encoding="utf-8"
    ) as fh:
        fh.write("sweep,err\n")
        for k, e in enumerate(single_errs, start=1):
            fh.write(f"{k},{e!r}\n")

    blocks = overlapping_blocks_1d(n, 2 * block, block)
    _, gs_trace = baseline_block_gauss_seidel(
        model, blocks, tol=1e-14, max_iters=max_iters, reference=mean_ref
    )
    write_trace_csv(os.path.join(outdir, "trace_block_gs.csv"), BaselineTrace, gs_trace)

    ms_iters = _iters_to([t.mean_err for t in ms.trace], tol)
    gs_iters = _iters_to([t.err for t in gs_trace], tol)
    single_iters = _iters_to(single_errs, tol)

    summary = {
        "experiment": "multiscale-1d",
        "n": n,
        "eps": eps,
        "levels": levels,
        "iterations_to_tol": {
            "multiscale": ms_iters,
            "single_scale": single_iters,
            "block_gs": gs_iters,
        },
        "tol": tol,
    }
    return summary


def _single_scale_mean_errors(model, cfg, mean_ref, max_iters, tol):
    """Per-sweep oracle-referenced mean error of the single-scale solver."""
    from .gaussian import build_gaussian_relaxation

    relax = build_gaussian_relaxation(model, cfg)
    errs = []
    for _ in range(max_iters):
        relax.matcher.sweep()
        err = float(np.max(np.abs(relax.node_stats().mean - mean_ref)))
        errs.append(err)
        if err < tol * 1e-3:
            break
    return errs
