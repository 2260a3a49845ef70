"""The benchmark's per-layer tracer (perfbench/tracer.py, loaded as it is)
still finds every name it times in the discrete, Gaussian and multiscale
solvers."""

import importlib.util
from pathlib import Path

from lagrelax.decomposition import DecompositionConfig
from lagrelax.discrete import solve_discrete
from lagrelax.gaussian import solve_gaussian
from lagrelax.generators import generate_chain_membrane, generate_ising_grid, generate_thin_membrane
from lagrelax.multiscale import solve_multiscale

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gaussian_and_multiscale_metrics_present():
    layers = load_tracer().LayerTrace()
    layers.install()
    try:
        cfg = DecompositionConfig(strategy="thin-strips", rows=4, cols=4, strip_width=2, overlap=1)
        gauss = solve_gaussian(generate_thin_membrane(4, 0.05, seed=0), cfg, tol=1e-8)
        layers.count_report("gaussian", gauss)
        multi = solve_multiscale(generate_chain_membrane(16, 0.01, seed=0), levels=3, block=2, tol=1e-8)
        layers.count_report("multiscale", multi)
    finally:
        layers.uninstall()
    values, absent = layers.metrics()
    assert absent == []
    assert values["gaussian.iterations"] == gauss.iterations > 0
    assert values["multiscale.iterations"] == multi.iterations > 0
    for metric in (
        "inference.component_solve_s",
        "inference.schur_s",
        "gaussian.sweep_s",
        "gaussian.monitor_s",
        "gaussian.bounds_s",
        "multiscale.cross_scale_s",
        "multiscale.means_s",
    ):
        assert values[metric] > 0, metric


def test_discrete_metrics_present():
    layers = load_tracer().LayerTrace()
    layers.install()
    try:
        report = solve_discrete(generate_ising_grid(3, 1.0, "frustrated", seed=0), "loops")
        layers.count_report("discrete", report)
    finally:
        layers.uninstall()
    values, absent = layers.metrics()
    for metric in (
        "inference.marginal_s",
        "inference.decode_s",
        "discrete.sweep_s",
        "discrete.monitor_s",
        "inference.messages",
    ):
        assert metric not in absent, metric
        assert values[metric] > 0, metric
