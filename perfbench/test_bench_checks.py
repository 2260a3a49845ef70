"""The benchmark's checks accept real solver output and reject corrupted
copies of it; the tracer's self times, rebinding and absent names."""

import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lagrelax.decomposition import DecompositionConfig  # noqa: E402
from lagrelax.discrete import solve_discrete  # noqa: E402
from lagrelax.gaussian import solve_gaussian  # noqa: E402
from lagrelax.multiscale import solve_multiscale  # noqa: E402


def test_result_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def grid_case(m, sigma, frustrated, seed, strategy):
    model = workloads.ising_grid(m, sigma, frustrated, np.random.default_rng(seed))
    ref = checks.DiscreteReference.for_grid(model.coefficients, m)
    report = solve_discrete(model, DecompositionConfig(strategy=strategy, rows=m, cols=m))
    return report, ref


@pytest.fixture(scope="module")
def certified():
    report, ref = grid_case(3, 1.0, False, 0, "loops")
    assert not report.gap_flag
    return report, ref


@pytest.fixture(scope="module")
def gapped():
    report, ref = grid_case(3, 0.7, True, 0, "disjoint-edges")
    assert report.gap_flag
    return report, ref


@pytest.mark.parametrize("seed", range(4))
def test_grid_dp_matches_enumeration(seed):
    model = workloads.ising_grid(3, 1.0, seed % 2 == 1, np.random.default_rng(seed))
    best = max(
        checks.objective(model.coefficients, x) for x in itertools.product((-1.0, 1.0), repeat=9)
    )
    assert checks.grid_map_value(3, model.coefficients) == pytest.approx(best, abs=1e-12)


def test_real_discrete_reports_pass(certified, gapped):
    assert checks.check_discrete(*certified, attractive=True) == []
    assert checks.check_discrete(*gapped, attractive=False) == []


def test_dual_below_optimum_is_rejected(certified):
    report, ref = certified
    trace = list(report.dual_trace)
    trace[-1] = dataclasses.replace(trace[-1], g=ref.f_star - 1e-3)
    fails = checks.check_discrete(dataclasses.replace(report, dual_trace=trace), ref, attractive=True)
    assert any("weak duality" in f for f in fails)


def test_flipped_label_on_certified_instance_is_rejected(certified):
    report, ref = certified
    estimate = np.array(report.estimate, dtype=float)
    estimate[4] *= -1
    fails = checks.check_discrete(dataclasses.replace(report, estimate=estimate), ref, attractive=True)
    assert any("certified estimate" in f for f in fails)


def test_cleared_gap_flag_is_rejected(gapped):
    report, ref = gapped
    fails = checks.check_discrete(dataclasses.replace(report, gap_flag=False), ref, attractive=False)
    assert any("gap flag" in f for f in fails)


def test_shifted_gaussian_means_are_rejected():
    model, J, h = workloads.membrane(6, 6, 0.01, np.random.default_rng(0))
    ref = checks.GaussianReference.dense(J, h)
    cfg = DecompositionConfig(strategy="thin-strips", rows=6, cols=6, strip_width=3, overlap=1)
    report = solve_gaussian(model, cfg, tol=workloads.GAUSS_TOL)
    assert checks.check_gaussian(report, ref) == []
    shifted = dataclasses.replace(report, means=report.means + 1e-4)
    assert any("means" in f for f in checks.check_gaussian(shifted, ref))


def test_shifted_multiscale_means_are_rejected():
    model, J, h = workloads.chain(64, 1e-2, np.random.default_rng(0))
    ref = checks.GaussianReference.dense(J, h)
    report = solve_multiscale(model, 2, 4, tol=workloads.CHAIN_TOL)
    assert checks.check_multiscale(report, ref) == []
    shift = 1e-5 * np.max(np.abs(ref.mean))
    shifted = dataclasses.replace(report, means=report.means + shift)
    assert any("means" in f for f in checks.check_multiscale(shifted, ref))


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.names = ["outer", "inner"]
    # outer [0, 10] holds inner [1, 4] and inner [5, 6]; a second outer [20, 22].
    for nid, parent, start, end in ((0, -1, 0, 10), (1, 0, 1, 4), (1, 0, 5, 6), (0, -1, 20, 22)):
        t.name_id.append(nid)
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    self_time, calls = t.totals()
    assert self_time == {"outer": 8.0, "inner": 4.0}
    assert calls == {"outer": 2, "inner": 2}


def test_install_rebinds_every_reference_and_restores(monkeypatch):
    import lagrelax
    from lagrelax import discrete, inference

    original = inference.build_engines
    monkeypatch.setitem(tracer.TARGETS, "inference.gone", ("lagrelax.inference", "no_such_function"))
    layers = tracer.LayerTrace()
    layers.install()
    try:
        assert discrete.build_engines is inference.build_engines is lagrelax.build_engines
        assert inference.build_engines is not original
        assert "inference.gone" in layers.absent
        report, _ = grid_case(3, 1.0, False, 1, "disjoint-edges")
        layers.count_report("discrete", report)
    finally:
        layers.uninstall()
    assert discrete.build_engines is original and lagrelax.build_engines is original
    values, absent = layers.metrics()
    assert absent == []
    assert values["inference.messages"] > 0 and values["inference.marginal_calls"] > 0
    assert values["decomposition.components"] > 0
    assert 0 < values["discrete.certified_sweep_share"] <= 1
