import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lagrelax
from lagrelax.baselines import (
    baseline_block_gauss_seidel,
    baseline_gaussian_lbp,
    overlapping_blocks_1d,
    vertical_strip_blocks,
)
from lagrelax.generators import generate_chain_membrane, generate_thin_membrane, generate_thin_plate
from lagrelax.models import GaussianInfoModel
from lagrelax.oracle import exact_gaussian_solve


def tree_model():
    terms = [
        ((0,), np.array([[1.0]]), np.array([0.5])),
        ((1,), np.array([[1.5]]), np.array([-0.2])),
        ((2,), np.array([[2.0]]), np.array([1.0])),
        ((0, 1), np.array([[0.5, 0.3], [0.3, 0.5]]), np.zeros(2)),
        ((1, 2), np.array([[0.4, -0.2], [-0.2, 0.4]]), np.zeros(2)),
    ]
    return GaussianInfoModel.from_cliques(3, terms)


class TestBlockGaussSeidel:
    def test_chain_blocks_converge(self):
        gm = generate_chain_membrane(8, 0.1, seed=0)
        mean, _, _ = exact_gaussian_solve(gm)
        blocks = overlapping_blocks_1d(8, 4, 2)
        x, trace = baseline_block_gauss_seidel(gm, blocks, tol=1e-12, max_iters=500)
        assert np.max(np.abs(x - mean)) < 1e-8

    def test_single_block_exact_in_one_sweep(self):
        gm = generate_chain_membrane(6, 0.1, seed=1)
        mean, _, _ = exact_gaussian_solve(gm)
        x, trace = baseline_block_gauss_seidel(gm, [list(range(6))], tol=1e-14, max_iters=5)
        assert np.max(np.abs(x - mean)) < 1e-12
        assert len(trace) <= 2

    def test_error_decreases_monotonically(self):
        gm = generate_thin_membrane(5, 0.05, seed=2)
        mean, _, _ = exact_gaussian_solve(gm)
        blocks = vertical_strip_blocks(5, 5, 2, 1)
        _, trace = baseline_block_gauss_seidel(
            gm, blocks, tol=0.0, max_iters=40, reference=mean
        )
        errs = [t.err for t in trace]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_uncovered_blocks_rejected(self):
        gm = generate_chain_membrane(6, 0.1, seed=0)
        with pytest.raises(ValueError):
            baseline_block_gauss_seidel(gm, [[0, 1, 2]], tol=1e-8, max_iters=5)


class TestGaussianLBP:
    def test_exact_on_trees(self):
        model = tree_model()
        mean, var, _ = exact_gaussian_solve(model)
        got_mean, got_var, ok = baseline_gaussian_lbp(model, max_iters=200)
        assert ok
        assert np.max(np.abs(got_mean - mean)) < 1e-10
        assert np.max(np.abs(got_var - var)) < 1e-10

    def test_membrane_converges_and_underestimates(self):
        gm = generate_thin_membrane(6, 0.01, seed=0)
        mean, var, _ = exact_gaussian_solve(gm)
        got_mean, got_var, ok = baseline_gaussian_lbp(gm, max_iters=20000, tol=1e-12)
        assert ok
        assert np.max(np.abs(got_mean - mean)) < 1e-8
        assert np.all(got_var <= var + 1e-9)

    def test_plate_does_not_converge(self):
        gp = generate_thin_plate(6, 0.01, seed=0)
        _, _, ok = baseline_gaussian_lbp(gp, max_iters=500)
        assert not ok


def test_block_helpers():
    assert overlapping_blocks_1d(8, 4, 2) == [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7]]
    strips = vertical_strip_blocks(3, 4, 2, 1)
    assert strips[0] == [0, 1, 4, 5, 8, 9]
    covered = set().union(*map(set, strips))
    assert covered == set(range(12))


def test_import_does_not_load_scipy():
    # scipy is needed only by the block Gauss-Seidel baseline and the sparse
    # oracle, which import it when called.
    src = str(Path(lagrelax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import lagrelax, sys; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
