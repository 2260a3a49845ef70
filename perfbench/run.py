"""Seeded benchmark of the lagrelax dual solvers.

    python3 perfbench/run.py --workload ising-grid --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. One process runs the named workload's public solve
calls in rounds until ``--seconds`` have passed (at least one round),
checks every result, and prints one JSON line last on stdout. With
``--trace 0`` it carries the end-to-end metrics; with ``--trace 1`` one
more round runs with every layer traced and the line carries the
per-layer metrics instead. Details and span dumps go to ``perfbench/out``.
See README.md in this directory.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("ising-grid", "gauss-strips", "chain-multiscale")

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "sweeps": "count", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "decomposition.build_s": "s",
    "decomposition.components": "count",
    "decomposition.replica_edges": "count",
    "decomposition.classes": "count",
    "inference.engine_build_s": "s",
    "inference.messages": "count",
    "inference.marginal_calls": "count",
    "inference.marginal_s": "s",
    "inference.decode_s": "s",
    "inference.schur_calls": "count",
    "inference.schur_s": "s",
    "inference.schur_wide_calls": "count",
    "inference.component_solve_s": "s",
    "discrete.sweep_s": "s",
    "discrete.monitor_s": "s",
    "discrete.sweeps_to_certificate": "count",
    "discrete.certified_sweep_share": "ratio",
    "gaussian.sweep_s": "s",
    "gaussian.monitor_s": "s",
    "gaussian.bounds_s": "s",
    "gaussian.iterations": "count",
    "multiscale.cross_scale_calls": "count",
    "multiscale.cross_scale_s": "s",
    "multiscale.means_s": "s",
    "multiscale.iterations": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import lagrelax from this checkout's src/ and nowhere else, with BLAS
    pinned to one thread."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "lagrelax" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lagrelax sources under {src}")
    sys.path.insert(0, str(src))
    import lagrelax

    if Path(lagrelax.__file__).resolve().parent != (src / "lagrelax").resolve():
        sys.exit(f"perfbench: lagrelax imported from {lagrelax.__file__}, not {src}")


class Round:
    """One pass over every case: solve times, work counts, failures."""

    def __init__(self):
        self.times = []  # wall time of each case's solve call, in case order
        self.sweeps = 0
        self.attempted = 0
        self.failed = 0
        self.cases = []  # per-case details for the output file


def run_round(cases, solve=lambda case: case.solve(), on_report=None) -> Round:
    """Solve and check every case once; ``on_report(kind, report)`` sees each
    report that passed its checks."""
    rnd = Round()
    for case in cases:
        rnd.attempted += 1
        t = time.perf_counter()
        try:
            report = solve(case)
        except Exception as exc:  # a raising solve counts as failed; keep going
            rnd.times.append(time.perf_counter() - t)
            rnd.failed += 1
            print(f"FAILED {case.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            rnd.cases.append({"label": case.label, "error": repr(exc)})
            continue
        dt = time.perf_counter() - t
        rnd.times.append(dt)
        fails = case.check(report)
        sweeps = case.sweeps(report)
        rnd.sweeps += sweeps
        rnd.cases.append({"label": case.label, "solve_s": dt, "sweeps": sweeps, "fails": fails})
        if fails:
            rnd.failed += 1
            for f in fails:
                print(f"FAILED {case.label}: {f}", file=sys.stderr)
        elif on_report is not None:
            on_report(case.kind, report)
    return rnd


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    import_s = time.perf_counter() - _T0
    cases = workloads.make_cases(args.workload, args.seed)
    t = time.perf_counter()
    for case in cases:
        case.build()
    setup_s = import_s + time.perf_counter() - t

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(cases))
    sweeps = {r.sweeps for r in rounds if not r.failed}
    if len(sweeps) > 1:
        print(f"perfbench: sweeps differ between rounds: {sorted(sweeps)}", file=sys.stderr)
    # Each solve's fastest round: the host's load only ever adds time.
    best = [min(ts) for ts in zip(*(r.times for r in rounds))]
    solve_s = sum(best)

    absent = []
    if args.trace:
        from tracer import LayerTrace

        layers = LayerTrace()
        layers.install()
        tracer = layers.tracer
        traced_solve = lambda case: tracer.wrap(case.solve, f"solve.{case.kind}")()
        try:
            traced = run_round(cases, traced_solve, layers.count_report)
        finally:
            layers.uninstall()
        rounds.append(traced)
        values, absent = layers.metrics()
        values["trace.overhead_s"] = sum(traced.times) - solve_s
        units = PER_LAYER_UNITS
    else:
        values = {
            "solve_s": solve_s,
            "setup_s": setup_s,
            "sweeps": rounds[0].sweeps,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        if name in absent:
            metrics[name]["absent"] = True
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "rounds": [r.cases for r in rounds]}, fh, indent=1)
    if args.trace:
        tracer.dump(OUT / f"spans-{stem}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
