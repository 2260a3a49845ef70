import json
import os

import pytest

from lagrelax.cli import main
from lagrelax.decomposition import DecompositionError
from lagrelax.experiments import ConfigError, parse_config_text, run_experiment
from lagrelax.generators import generate_chain_membrane, generate_ising_grid, generate_thin_membrane
from lagrelax.modelio import write_model


class TestConfigParsing:
    def test_scalars_and_lists(self):
        cfg = parse_config_text(
            "experiment: discrete-grid\nm: 10\nsigmas: [2, 1, 1.5, 0.7]\nseed: 3\n"
        )
        assert cfg["experiment"] == "discrete-grid"
        assert cfg["m"] == 10
        assert cfg["sigmas"] == [2, 1, 1.5, 0.7]

    def test_space_separated_lists(self):
        cfg = parse_config_text("sigmas: 2 1 0.7\n")
        assert cfg["sigmas"] == [2, 1, 0.7]

    def test_missing_field_names_the_field(self, tmp_path):
        with pytest.raises(ConfigError, match="sigmas"):
            run_experiment("experiment: discrete-grid\nm: 4\n", tmp_path)

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown experiment"):
            run_experiment("experiment: warp-drive\n", tmp_path)

    def test_bad_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some words\n")


class TestExperiments:
    def test_discrete_grid_bundle(self, tmp_path):
        cfg = "experiment: discrete-grid\nm: 3\nsigmas: [2]\nmode: attractive\nseed: 1\n"
        summary = run_experiment(cfg, tmp_path)
        assert summary["runs"][0]["gap_flag"] is False
        gap_csv = (tmp_path / "gap_summary.csv").read_text().splitlines()
        assert gap_csv[0] == "sigma,mode,g,best_primal,gap_flag"
        assert len(gap_csv) == 2
        trace = (tmp_path / "trace_attractive_s2.csv").read_text().splitlines()
        assert trace[0] == "sweep,tau,g_smooth,g,best_primal,max_residual,wall_ms"

    def test_gaussian_membrane_bundle(self, tmp_path):
        cfg = "experiment: gaussian-membrane\nm: 5\neps: 0.05\nK: 3\nL: 2\nseed: 0\nmax_iters: 500\n"
        summary = run_experiment(cfg, tmp_path)
        assert summary["runs"][0]["converged"]
        assert summary["runs"][0]["mean_err"] < 1e-6
        assert summary["lbp"]["converged"]
        assert os.path.exists(tmp_path / "trace_K3.csv")
        assert os.path.exists(tmp_path / "trace_block_gs.csv")

    def test_multiscale_bundle(self, tmp_path):
        cfg = (
            "experiment: multiscale-1d\nn: 32\neps: 0.01\nblock: 2\nlevels: 3\n"
            "tol: 1e-4\nseed: 0\nmax_iters: 400\n"
        )
        summary = run_experiment(cfg, tmp_path)
        iters = summary["iterations_to_tol"]
        assert iters["multiscale"] is not None
        assert os.path.exists(tmp_path / "trace_multiscale.csv")
        assert os.path.exists(tmp_path / "trace_single_scale.csv")
        assert os.path.exists(tmp_path / "trace_block_gs.csv")

    def test_reproducible_bundles(self, tmp_path):
        cfg = "experiment: discrete-grid\nm: 3\nsigmas: [1]\nmode: frustrated\nseed: 9\n"
        s1 = run_experiment(cfg, tmp_path / "a")
        s2 = run_experiment(cfg, tmp_path / "b")
        assert s1 == s2
        t1 = (tmp_path / "a" / "gap_summary.csv").read_text()
        t2 = (tmp_path / "b" / "gap_summary.csv").read_text()
        assert t1 == t2


class TestCli:
    def test_solve_roundtrip(self, tmp_path, capsys):
        model = generate_ising_grid(3, 1.5, "attractive", seed=2)
        mpath = tmp_path / "m.txt"
        write_model(model, mpath)
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        rc = main(
            [
                "solve",
                "--model", str(mpath),
                "--strategy", "spanning-trees",
                "--tau0", "1.0",
                "--decay", "0.5",
                "--tau-min", "1e-3",
                "--tol", "1e-6",
                "--out", str(out),
                "--trace", str(trace),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["gap_flag"] is False
        assert report["stop_reason"] == "certified"
        assert "stop = certified" in capsys.readouterr().out
        header = trace.read_text().splitlines()[0]
        assert header == "sweep,tau,g_smooth,g,best_primal,max_residual,wall_ms"

    def test_solve_dump_jt(self, tmp_path, capsys):
        model = generate_ising_grid(3, 1.0, "attractive", seed=0)
        mpath = tmp_path / "m.txt"
        write_model(model, mpath)
        # one line per component, also when one engine batches them all
        for strategy, components in (("spanning-trees", 2), ("disjoint-edges", 12)):
            rc = main(["solve", "--model", str(mpath), "--strategy", strategy, "--dump-jt"])
            assert rc == 0
            lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("component ")]
            assert [ln.split(":")[0] for ln in lines] == [f"component {i}" for i in range(components)]
            assert all("cliques:" in ln for ln in lines)

    def test_treewidth_bound_is_a_solve_flag(self, tmp_path):
        model = generate_ising_grid(3, 1.0, "attractive", seed=0)
        mpath = tmp_path / "m.txt"
        write_model(model, mpath)
        with pytest.raises(DecompositionError, match="treewidth 2 exceeds bound 1"):
            main(["solve", "--model", str(mpath), "--strategy", "loops", "--treewidth-bound", "1"])
        gpath = tmp_path / "g.txt"
        write_model(generate_thin_membrane(4, 0.05, seed=1), gpath)
        with pytest.raises(SystemExit):
            main(["gsolve", "--model", str(gpath), "--treewidth-bound", "12"])

    def test_gsolve(self, tmp_path, capsys):
        model = generate_thin_membrane(4, 0.05, seed=1)
        mpath = tmp_path / "g.txt"
        write_model(model, mpath)
        out = tmp_path / "report.json"
        rc = main(
            [
                "gsolve",
                "--model", str(mpath),
                "--strategy", "thin-strips",
                "--K", "2", "--L", "2",
                "--rows", "4", "--cols", "4",
                "--tol", "1e-8",
                "--max-iters", "500",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["converged"] is True and report["stop_reason"] == "residual"
        assert "stop = residual" in capsys.readouterr().out

    def test_gsolve_rejects_discrete(self, tmp_path):
        model = generate_ising_grid(3, 1.0, "attractive", seed=0)
        mpath = tmp_path / "m.txt"
        write_model(model, mpath)
        assert main(["gsolve", "--model", str(mpath)]) == 2

    def test_mssolve(self, tmp_path, capsys):
        model = generate_chain_membrane(16, 0.01, seed=0)
        mpath = tmp_path / "c.txt"
        write_model(model, mpath)
        rc = main(
            ["mssolve", "--model", str(mpath), "--levels", "3", "--block", "2",
             "--tol", "1e-8", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["converged"] and report["stop_reason"] == "residual"
        assert "stop = residual" in capsys.readouterr().out

    def test_oracle_discrete(self, tmp_path, capsys):
        model = generate_ising_grid(3, 1.0, "frustrated", seed=5)
        mpath = tmp_path / "m.txt"
        write_model(model, mpath)
        assert main(["oracle", "--model", str(mpath)]) == 0
        out = capsys.readouterr().out
        assert "f* =" in out and "maximizers" in out

    def test_oracle_gaussian(self, tmp_path, capsys):
        model = generate_thin_membrane(3, 0.1, seed=0)
        mpath = tmp_path / "g.txt"
        write_model(model, mpath)
        assert main(["oracle", "--model", str(mpath)]) == 0
        assert "value =" in capsys.readouterr().out

    def test_bench(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("experiment: discrete-grid\nm: 3\nsigmas: [1]\nmode: attractive\nseed: 0\n")
        outdir = tmp_path / "results"
        assert main(["bench", "--config", str(cfg), "--outdir", str(outdir)]) == 0
        assert (outdir / "summary.json").exists()
