"""CLI smoke tests."""

import json

import numpy as np
import pytest

from nspd import bench, cli, metrics
from nspd.bench import GameConfig


def test_cli_run_game_small(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench, "DESK_GAME", GameConfig(n=10, p=14, density=0.3,
                                                       seed=2))
    code = cli.main(["run", "game", "--seed", "2", "--max-iters", "200",
                     "--trace-every", "10", "--out", str(tmp_path),
                     "--epsilon", "1e-1", "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pd_general_c1" in out
    assert (tmp_path / "report.json").exists()


def test_cli_solve_from_config(tmp_path, capsys):
    cfg = {
        "problem": {"kind": "lad", "n": 20, "p": 8, "s": 2, "seed": 3},
        "solver": {"method": "pd_general", "c": 2.0, "gamma": 0.9,
                   "rho0": 1.0, "max_iters": 50, "trace_every": 5},
        "out": str(tmp_path / "trace.csv"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["solve", "--config", str(path)])
    assert code == 0
    tr = metrics.Trace.from_csv(tmp_path / "trace.csv")
    assert tr.k[-1] == 50


def test_cli_plotdata(tmp_path, capsys):
    tr = metrics.Trace()
    tr.append(10, 1.0, float("nan"), 0.5, float("nan"), 0.0)
    tr.append(100, 0.1, float("nan"), 0.05, float("nan"), 0.0)
    path = tmp_path / "t.csv"
    tr.to_csv(path)
    code = cli.main(["plotdata", str(path)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0].startswith("log10_k")
    first = [float(v) for v in out[1].split(",")]
    assert first[0] == pytest.approx(1.0)  # log10(10)
    assert first[1] == pytest.approx(0.0)  # log10(1.0)


def test_cli_solve_admm_method(tmp_path):
    cfg = {
        "problem": {"kind": "lad", "n": 15, "p": 6, "s": 2, "seed": 4},
        "solver": {"method": "admm", "rho": 1.0, "max_iters": 30},
        "out": str(tmp_path / "trace.csv"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["solve", "--config", str(path)]) == 0


def _solve(tmp_path, solver):
    cfg = {"problem": {"kind": "lad", "n": 15, "p": 6, "s": 2, "seed": 4},
           "solver": solver, "out": str(tmp_path / "trace.csv")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cli.main(["solve", "--config", str(path)])


def test_cli_solve_reports_divergence(tmp_path, capsys):
    # a penalty of 1e308 overflows K x_1, so x_2 is not finite
    with np.errstate(all="ignore"):
        code = _solve(tmp_path, {"method": "pd_general", "c": 1.0,
                                 "gamma": 0.5, "rho0": 1e308,
                                 "max_iters": 50})
    assert code == 4
    err = capsys.readouterr().err
    assert "divergence" in err and "iteration 1" in err
    tr = metrics.Trace.from_csv(tmp_path / "trace.csv")
    assert tr.k == [1]  # the record made before the failing step


def test_cli_solve_reports_inner_solver_failure(tmp_path, capsys):
    # one inner iteration cannot reach a 1e-300 gradient-mapping norm
    code = _solve(tmp_path, {"method": "admm", "rho": 1.0, "max_iters": 30,
                             "inner_max": 1, "inner_tol": 1e-300})
    assert code == 5
    assert "inner solver failure" in capsys.readouterr().err
    tr = metrics.Trace.from_csv(tmp_path / "trace.csv")
    assert tr.k == [1]


def test_cli_solve_zero_iterations_writes_an_empty_trace(tmp_path):
    assert _solve(tmp_path, {"method": "cp", "max_iters": 0}) == 0
    assert len(metrics.Trace.from_csv(tmp_path / "trace.csv")) == 0
