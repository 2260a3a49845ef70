import json
import time
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np
import pytest

from lagrelax.decomposition import DecompositionConfig
from lagrelax.discrete import SolveReport, TemperatureSchedule, solve_discrete
from lagrelax.gaussian import solve_gaussian
from lagrelax.generators import (
    generate_chain_membrane,
    generate_ising_grid,
    generate_thin_membrane,
)
from lagrelax.multiscale import solve_multiscale
from lagrelax.oracle import exact_gaussian_solve
from lagrelax.report import run_sweeps


def discrete_report():
    return solve_discrete(generate_ising_grid(3, 1.0, "frustrated", seed=0), "disjoint-edges")


def gaussian_report():
    cfg = DecompositionConfig(strategy="thin-strips", rows=4, cols=4, strip_width=2, overlap=2)
    return solve_gaussian(generate_thin_membrane(4, 0.05, seed=0), cfg)


def multiscale_report():
    gm = generate_chain_membrane(16, 0.01, seed=0)
    mean, _, _ = exact_gaussian_solve(gm)
    return solve_multiscale(gm, levels=3, block=2, tol=1e-8, reference=mean)


def multiscale_report_without_reference():
    # Every trace entry's mean_err is NaN without a reference.
    return solve_multiscale(generate_chain_membrane(16, 0.01, seed=0), levels=3, block=2, tol=1e-8)


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize(
    "make",
    [discrete_report, gaussian_report, multiscale_report, multiscale_report_without_reference],
)
def test_json_and_trace_csv_round_trip(make, tmp_path):
    rep = make()
    rep.write_json(tmp_path / "r.json")
    text = (tmp_path / "r.json").read_text()
    assert json.loads(text, parse_constant=reject_constant) == rep.to_dict()
    nan_cells = {"mean_err"} if make is multiscale_report_without_reference else set()

    trace = getattr(rep, rep.TRACE)
    names = [f.name for f in fields(rep.ENTRY)]
    rep.write_trace_csv(tmp_path / "t.csv")
    header, *rows = (tmp_path / "t.csv").read_text().splitlines()
    assert header.split(",") == names
    assert len(rows) == len(trace) > 0
    for row, entry in zip(rows, trace):
        for name, cell in zip(names, row.split(","), strict=True):
            value = getattr(entry, name)
            parsed = float(cell) if isinstance(value, float) else int(cell)
            if name in nan_cells:
                assert np.isnan(parsed) and np.isnan(value)
            else:
                assert parsed == value and np.isfinite(parsed)


@dataclass
class Entry:
    max_residual: float
    sweep: int = 0
    wall_ms: float = 0.0


@pytest.mark.parametrize(
    "resid, rule, want",
    [
        (np.nan, "certified", "non_finite"),  # NaN beats the caller rule
        (np.inf, "certified", "non_finite"),
        (0.0, "certified", "certified"),  # the caller rule beats the residual
        (0.0, None, "residual"),  # the residual beats the cap
        (1.0, None, "sweep_cap"),
    ],
)
def test_run_sweeps_stop_order(resid, rule, want):
    trace = []
    got = run_sweeps(lambda: Entry(resid), trace, 3, 1e-6, time.perf_counter(), lambda e: rule)
    assert got == want
    assert len(trace) == (3 if want == "sweep_cap" else 1)


def test_run_sweeps_numbers_on_across_loops_and_rejects_no_sweeps():
    trace = []
    t0 = time.perf_counter()
    for _ in range(2):
        assert run_sweeps(lambda: Entry(1.0), trace, 3, 1e-6, t0) == "sweep_cap"
    assert [e.sweep for e in trace] == [1, 2, 3, 4, 5, 6]
    assert all(a.wall_ms <= b.wall_ms for a, b in zip(trace, trace[1:]))

    def never():
        raise AssertionError("swept")

    with pytest.raises(ValueError):
        run_sweeps(never, trace, 0, 1e-6, t0)
    assert len(trace) == 6


def capped_ladder_report():
    # Two sweeps per temperature and no annealing slack: several ladder
    # steps hit their cap before the polish stops on its residual.
    schedule = TemperatureSchedule(max_sweeps_per_tau=2, anneal_tol_scale=0)
    return solve_discrete(generate_ising_grid(3, 1.0, "frustrated", seed=0), "spanning-trees", schedule)


def test_discrete_trace_numbers_on_across_temperature_steps():
    trace = capped_ladder_report().dual_trace
    assert len({e.tau for e in trace}) > 2
    assert [e.sweep for e in trace] == list(range(1, len(trace) + 1))
    assert all(a.wall_ms <= b.wall_ms for a, b in zip(trace, trace[1:]))


def test_not_converged_after_residual_when_a_ladder_step_hit_its_cap():
    rep = capped_ladder_report()
    assert max(Counter(e.tau for e in rep.dual_trace).values()) == 2
    assert (rep.stop_reason, rep.converged, rep.gap_flag, len(rep.dual_trace)) == ("residual", False, True, 18)


def test_discrete_report_needs_converged():
    rep = discrete_report()
    kwargs = {f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "converged"}
    with pytest.raises(TypeError):
        SolveReport(**kwargs)
