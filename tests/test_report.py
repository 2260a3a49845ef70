import json
from dataclasses import fields

import numpy as np
import pytest

from lagrelax.decomposition import DecompositionConfig
from lagrelax.discrete import solve_discrete
from lagrelax.gaussian import solve_gaussian
from lagrelax.generators import (
    generate_chain_membrane,
    generate_ising_grid,
    generate_thin_membrane,
)
from lagrelax.multiscale import solve_multiscale
from lagrelax.oracle import exact_gaussian_solve


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
