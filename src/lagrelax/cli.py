"""Command line interface: solve / gsolve / mssolve / oracle / bench."""

from __future__ import annotations

import argparse
import sys

from .decomposition import DecompositionConfig
from .discrete import TemperatureSchedule, build_relaxation, solve_discrete
from .experiments import parse_config_text, run_experiment
from .gaussian import solve_gaussian
from .modelio import read_model
from .models import DiscreteFactorModel, GaussianInfoModel
from .multiscale import solve_multiscale
from .oracle import brute_force_map, exact_gaussian_solve

STRATEGY_HELP = (
    "disjoint-edges | spanning-trees | tree-plus-leaves | loops | "
    "induced-blocks | thin-strips"
)


def _add_decomposition_args(p: argparse.ArgumentParser, default_strategy: str):
    p.add_argument("--strategy", default=default_strategy, help=STRATEGY_HELP)
    p.add_argument("--K", type=int, default=8, help="strip width")
    p.add_argument("--L", type=int, default=2, help="strip overlap")
    p.add_argument("--block", type=int, default=3, help="induced block size")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--treewidth-bound", type=int, default=12)


def _decomposition_config(args) -> DecompositionConfig:
    return DecompositionConfig(
        strategy=args.strategy,
        rows=args.rows,
        cols=args.cols,
        strip_width=args.K,
        overlap=args.L,
        block=args.block,
        treewidth_bound=args.treewidth_bound,
    )


def _cmd_solve(args) -> int:
    model = read_model(args.model)
    if not isinstance(model, DiscreteFactorModel):
        print("solve expects a discrete model; use gsolve", file=sys.stderr)
        return 2
    config = _decomposition_config(args)
    if args.dump_jt:
        _dump_junction_trees(model, config)
    schedule = TemperatureSchedule(
        tau0=args.tau0,
        decay=args.decay,
        tau_min=args.tau_min,
        inner_tol=args.tol,
    )
    report = solve_discrete(model, config, schedule)
    print(
        f"g = {report.final_dual:.10g}  best f = {report.best_primal:.10g}  "
        f"gap_flag = {report.gap_flag}  ties = {len(report.tie_nodes)}  "
        f"stop = {report.stop_reason}"
    )
    if args.out:
        report.write_json(args.out)
    if args.trace:
        report.write_trace_csv(args.trace)
    return 0


def _dump_junction_trees(model, config):
    relax = build_relaxation(model, config)
    engine_of = {int(ci): eng for eng in relax.engines for ci in eng.components}
    for ci in sorted(engine_of):
        eng = engine_of[ci]
        cliques = " ".join(
            "{" + ",".join(str(v) for v in c) + "}" for c in eng.cliques
        )
        print(f"component {ci}: vertices={eng.n_local} cliques: {cliques}")


def _cmd_gsolve(args) -> int:
    model = read_model(args.model)
    if not isinstance(model, GaussianInfoModel):
        print("gsolve expects a gaussian model; use solve", file=sys.stderr)
        return 2
    config = _decomposition_config(args)
    report = solve_gaussian(model, config, tol=args.tol, max_iters=args.max_iters)
    print(
        f"dual = {report.dual:.10g}  converged = {report.converged} "
        f"in {report.iterations} sweeps  stop = {report.stop_reason}"
    )
    if args.out:
        report.write_json(args.out)
    if args.trace:
        report.write_trace_csv(args.trace)
    return 0


def _cmd_mssolve(args) -> int:
    model = read_model(args.model)
    if not isinstance(model, GaussianInfoModel):
        print("mssolve expects a gaussian chain model", file=sys.stderr)
        return 2
    report = solve_multiscale(
        model, args.levels, args.block, tol=args.tol, max_iters=args.max_iters
    )
    print(
        f"converged = {report.converged} in {report.iterations} outer iterations "
        f"({report.levels} levels)  stop = {report.stop_reason}"
    )
    if args.out:
        report.write_json(args.out)
    if args.trace:
        report.write_trace_csv(args.trace)
    return 0


def _cmd_oracle(args) -> int:
    model = read_model(args.model)
    if isinstance(model, DiscreteFactorModel):
        f_star, maximizers = brute_force_map(model)
        x = maximizers[0]
        labels = " ".join("+1" if v > 0 else "-1" for v in x)
        print(f"f* = {f_star:.12g}")
        print(f"maximizers = {len(maximizers)}")
        print(f"x* = {labels}")
    else:
        mean, var, value = exact_gaussian_solve(model)
        print(f"value = {value:.12g}")
        print("mean =", " ".join(f"{v:.10g}" for v in mean))
        print("var  =", " ".join(f"{v:.10g}" for v in var))
    return 0


def _cmd_bench(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = parse_config_text(fh.read())
    summary = run_experiment(config, args.outdir)
    print(f"experiment {summary['experiment']} written to {args.outdir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lagrelax",
        description="MAP estimation by Lagrangian relaxation on thin subgraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="discrete dual solver with annealing")
    p.add_argument("--model", required=True)
    _add_decomposition_args(p, "spanning-trees")
    p.add_argument("--tau0", type=float, default=1.0)
    p.add_argument("--decay", type=float, default=0.5)
    p.add_argument("--tau-min", dest="tau_min", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None)
    p.add_argument("--dump-jt", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gsolve", help="gaussian moment-matching solver")
    p.add_argument("--model", required=True)
    _add_decomposition_args(p, "thin-strips")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=500)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_gsolve)

    p = sub.add_parser("mssolve", help="multiscale gaussian solver (1D chains)")
    p.add_argument("--model", required=True)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--block", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=500)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_mssolve)

    p = sub.add_parser("oracle", help="exact reference values for a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="run a named experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
