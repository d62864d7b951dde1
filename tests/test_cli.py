"""CLI smoke tests."""

import json
import re
import signal

import numpy as np
import pytest

from nspd import bench, cli, metrics, pd_general, prox
from nspd.bench import GameConfig
from nspd.errors import DivergenceError


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


def test_cli_check_fails_when_a_certified_variant_fails(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr(bench, "DESK_GAME", GameConfig(n=10, p=14, density=0.3,
                                                       seed=2))

    def diverge(*args, **kwargs):
        raise DivergenceError("non-finite iterate", 3, "x")

    monkeypatch.setattr(pd_general, "solve", diverge)
    argv = ["run", "game", "--seed", "2", "--max-iters", "200",
            "--trace-every", "10", "--out", str(tmp_path), "--epsilon", "1e-1"]
    assert cli.main(argv) == 0  # without --check a failed run is reported
    assert cli.main(argv + ["--check"]) == 2
    out = capsys.readouterr().out
    assert "pd_general_c1" in out and "FAILED: DivergenceError" in out
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    c1 = report["variants"][0]
    assert c1["label"] == "pd_general_c1" and c1["certificate_ok"] is None
    assert report["certificates"] == []


def test_cli_run_accepts_the_benchmarks_reference_budget_flag(tmp_path):
    """perfbench/workloads.py passes --reference-budget; the oracle takes
    no budget, so the flag is parsed and its value unused."""
    code = cli.main(["run", "lad-case1", "--desk", "--max-iters", "5",
                     "--reference-budget", "100000", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    assert report["oracle_ok"] and "reference_budget" not in report["spec"]


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


@pytest.mark.parametrize("option, value, quantity", [
    ("--max-iters", "0", "max_iters"), ("--trace-every", "0", "trace_every"),
    ("--trace-every", "abc", "trace_every")], ids=[
    "--max-iters-max_iters", "--trace-every-trace_every", "--trace-every-abc"])
def test_cli_run_refuses_a_bad_option_as_a_usage_error(option, value, quantity,
                                                       tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "game", option, value, "--out", str(tmp_path)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"nspd run: error: {quantity} must be" in err
    assert f"got {int(value) if value.isdigit() else value!r}" in err
    assert "Traceback" not in err and not (tmp_path / "report.json").exists()


def test_cli_run_refuses_epsilon_outside_the_game(tmp_path, capsys):
    # only the game's smoothed baseline reads --epsilon
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "lad-case1", "--desk", "--max-iters", "20",
                  "--epsilon", "5", "--out", str(tmp_path)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("nspd run: error: ")
    assert "epsilon must be unset outside the game" in errors[0]
    assert "got 5.0" in errors[0] and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_cli_run_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "lad-case1", "--seed", "-1", "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "nspd run: error: seed must be a non-negative integer, got -1" in err
    assert "Traceback" not in err and not out.exists()


_SMALL_LAD = {"kind": "lad", "n": 15, "p": 6, "s": 2, "seed": 4}
_STRONG_LAD = _SMALL_LAD | {"mu_f": 0.1}


@pytest.mark.parametrize("problem, solver, named", [
    ({"kind": "foo"}, {"method": "pd_general"}, "unknown problem kind 'foo'"),
    ({"kind": "lad"}, {"method": "bogus"}, "unknown method 'bogus'"),
    ({"kind": "lad", "size": 3}, {"method": "pd_general"}, "'size'"),
    # the modulus is f's, and pd_strong.solve has no inner solve
    ({"kind": "lad"}, {"method": "cp_scvx", "mu_f": 0.1}, "'mu_f'"),
    ({"kind": "lad"}, {"method": "pd_strong", "inner_tol": 1e-8},
     "'inner_tol'"),
    ({"kind": "lad"}, {"method": "pd_strong", "inner_max": 10},
     "'inner_max'"),
    # refused as the solve starts, before its first step
    (_SMALL_LAD, {"method": "pd_general", "c": 0.5}, "c must satisfy c >= 1"),
    (_SMALL_LAD, {"method": "pd_strong"}, "mu_f must be positive"),
    (_SMALL_LAD, {"method": "cp", "rho": 1.0, "beta": 10.0},
     "rho*beta*||K||^2 = 319.256 exceeds 1"),
    (_SMALL_LAD, {"method": "cp_scvx"}, "needs f.mu > 0"),
    (_SMALL_LAD, {"method": "cp", "beta": -1},
     "beta must be a positive number, got -1"),
    (_SMALL_LAD, {"method": "cp", "rho": 0},
     "rho must be a positive number, got 0"),
    (_SMALL_LAD, {"method": "admm", "rho": 0},
     "rho must be a positive number, got 0"),
    (_SMALL_LAD, {"method": "cp", "rho": -1},
     "rho must be a positive number, got -1"),
    (_SMALL_LAD, {"method": "pd_general", "trace_every": 0},
     "trace_every must be 'log' or a positive integer, got 0"),
    (_SMALL_LAD, {"method": "cp", "max_iters": -1},
     "max_iters must be a non-negative integer, got -1"),
    # the inner solve's policy is prox.APG_TOL/APG_MAX_STEPS, not a key
    (_SMALL_LAD, {"method": "admm", "inner_tol": -1}, "'inner_tol'"),
    (_SMALL_LAD, {"method": "admm", "inner_tol": 0}, "'inner_tol'"),
    (_SMALL_LAD, {"method": "admm", "inner_max": 0}, "'inner_max'"),
    (_SMALL_LAD, {"method": "cp", "rho": "a"},
     "rho must be a positive number, got 'a'"),
    # no run stops early on a gap, so there is no tol to set
    (_SMALL_LAD, {"method": "pd_general", "tol": 1e-6}, "'tol'"),
    # a value that is not a number is refused before the first step
    (_SMALL_LAD, {"method": "pd_general", "c": "x"},
     "c must satisfy c >= 1, got 'x'"),
    (_SMALL_LAD, {"method": "pd_general", "gamma": None},
     "gamma must lie in (0, 1), got None"),
    (_SMALL_LAD, {"method": "pd_general", "rho0": "x"},
     "rho0 must be 'auto' or a positive number, got 'x'"),
    (_STRONG_LAD, {"method": "pd_strong", "gamma": "x"},
     "gamma must lie in (1/2, 1), got 'x'"),
    (_STRONG_LAD, {"method": "pd_strong", "case": 2, "c": "x"},
     "c must be a number above 2 in Case 2, got 'x'"),
    (_STRONG_LAD, {"method": "pd_strong", "rho0": "fast"},
     "rho0 must be a positive number, got 'fast'"),
    # ADMM has no step beta to set
    (_SMALL_LAD, {"method": "admm", "beta": 0.1},
     "ADMM takes no beta, got 0.1"),
    (_SMALL_LAD, {"method": "cp", "inner_tol": 1e-8}, "'inner_tol'"),
    (_SMALL_LAD, {"method": "cp", "rho": float("nan")},
     "rho must be a positive number, got nan"),
    # Case 1's tau has no c, and a string is not a truth value
    (_STRONG_LAD, {"method": "pd_strong", "case": 1, "c": 1000.0},
     "c must be unset in Case 1, whose tau has no c, got 1000.0"),
    (_STRONG_LAD, {"method": "pd_strong", "enforce_rho0_bound": "no"},
     "enforce_rho0_bound must be true or false, got 'no'"),
    # the instance config is refused before any instance is drawn
    ({"kind": "game", "n": 0}, {"method": "pd_general"},
     "n must be a positive integer, got 0"),
    ({"kind": "game", "n": 1, "p": 1, "density": 1e-9},
     {"method": "pd_general"}, "a 1x1 game at density 1e-09 drew no nonzero"),
    (_SMALL_LAD | {"n": 0}, {"method": "pd_general"},
     "n must be a positive integer, got 0"),
    (_SMALL_LAD | {"n": 2.5}, {"method": "pd_general"},
     "n must be a positive integer, got 2.5"),
    (_SMALL_LAD | {"lam": float("nan")}, {"method": "pd_general"},
     "lam must be a positive number, got nan"),
    (_SMALL_LAD | {"lam": "x"}, {"method": "pd_general"},
     "lam must be a positive number, got 'x'"),
    (_SMALL_LAD | {"mu_f": -1}, {"method": "pd_general"},
     "mu_f must be a non-negative number, got -1"),
    (_SMALL_LAD | {"seed": -1}, {"method": "pd_general"},
     "seed must be a non-negative integer, got -1"),
    (_SMALL_LAD | {"correlated_fraction": 2}, {"method": "pd_general"},
     "correlated_fraction must lie in [0, 1], got 2"),
    # the noise of a LAD instance is bench.NOISE_SIGMA/NOISE_DENSITY
    (_SMALL_LAD | {"noise_sigma": 0.1}, {"method": "pd_general"},
     "'noise_sigma'")])
def test_cli_solve_refuses_a_bad_config_as_a_usage_error(problem, solver, named,
                                                        tmp_path, capsys):
    _assert_usage_error({"problem": problem, "solver": solver}, named,
                        tmp_path, capsys)


@pytest.mark.parametrize("cfg, key", [
    ({"solver": {"method": "pd_general"}}, "problem"),
    ({"problem": {"kind": "lad"}}, "solver"),
    ({"problem": {"n": 20}, "solver": {"method": "pd_general"}}, "kind"),
    ({"problem": {"kind": "lad"}, "solver": {"c": 2.0}}, "method")])
def test_cli_solve_refuses_a_config_missing_a_key(cfg, key, tmp_path, capsys):
    _assert_usage_error(cfg, f"the config lacks the key {key!r}", tmp_path,
                        capsys)


def _assert_usage_error(cfg, named, tmp_path, capsys):
    """``nspd solve`` on ``cfg`` exits 2 within 5 s with one error line
    naming ``named``, no traceback and no trace written."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg | {"out": str(tmp_path / "trace.csv")}))

    def give_up(signum, frame):
        raise TimeoutError("nspd solve ran for 5 s without exiting")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(5)
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.main(["solve", "--config", str(path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("nspd solve: error: ")
    assert named in errors[0] and "Traceback" not in err
    assert not (tmp_path / "trace.csv").exists()


def test_cli_plotdata_builds_each_column_once(tmp_path, capsys, monkeypatch):
    tr = metrics.Trace()
    for k in range(1, 51):
        tr.append(k, 1.0 / k, float("inf"), 2.0 / k, float("nan"), 0.0)
    path = tmp_path / "t.csv"
    tr.to_csv(path)
    calls, column = [], metrics.Trace.column

    def counted(self, name):
        calls.append(name)
        return column(self, name)

    monkeypatch.setattr(metrics.Trace, "column", counted)
    assert cli.main(["plotdata", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 51 and out[50] == "1.698970004,-1.698970004,nan,-1.397940009,nan"
    assert sorted(calls) == ["F", "G", "feas", "gap", "k"]


_HEADER = "k,F,G,gap,feas,time_s\r\n"


@pytest.mark.parametrize("content, named", [
    (None, "No such file or directory"),
    ("k,F,G\r\n1,2.0,3.0\r\n", "unexpected trace header ['k', 'F', 'G']"),
    (_HEADER + "1,2.0\r\n", "line 2: 2 fields, expected 6"),
    (_HEADER + "1,1,1,1,1,1\r\n2,1,1,1,1,1,1\r\n",
     "line 3: 7 fields, expected 6"),
    (_HEADER + "1,x,1,1,1,1\r\n", "line 2: could not convert string to float")],
    ids=["missing", "header", "short_row", "long_row", "not_a_number"])
def test_cli_plotdata_refuses_what_is_not_a_trace(content, named, tmp_path,
                                                  capsys):
    path = tmp_path / "t.csv"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["plotdata", str(path)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("nspd plotdata: error: ")
    assert named in errors[0] and "Traceback" not in err


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


@pytest.mark.parametrize("solver, code", [
    ({"method": "pd_general", "rho0": 1e17}, 0),
    ({"method": "pd_general", "rho0": 1e200}, 0),
    ({"method": "admm", "rho": 1e308}, 0),
    ({"method": "pd_general", "rho0": 1e308}, 4),
    ({"method": "cp", "rho": 1e-308}, 4)])
def test_cli_solve_game_with_an_extreme_penalty(solver, code, tmp_path,
                                                 capsys):
    # the simplex projection sees entries past 1e16, or non-finite ones
    cfg = {"problem": {"kind": "game", "n": 20, "p": 30},
           "solver": solver | {"max_iters": 200},
           "out": str(tmp_path / "trace.csv")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with np.errstate(all="ignore"):
        assert cli.main(["solve", "--config", str(path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 4:
        assert re.search(r"non-finite iterate \w+ \(iteration \d+\)", err)
    else:
        trace = metrics.Trace.from_csv(tmp_path / "trace.csv")
        assert np.isfinite(trace.F).all()


def test_cli_solve_reports_inner_solver_failure(tmp_path, capsys,
                                                monkeypatch):
    # one inner iteration cannot reach a 1e-300 gradient-mapping norm
    monkeypatch.setattr(prox, "APG_TOL", 1e-300)
    monkeypatch.setattr(prox, "APG_MAX_STEPS", 1)
    code = _solve(tmp_path, {"method": "admm", "rho": 1.0, "max_iters": 30})
    assert code == 5
    assert "inner solver failure" in capsys.readouterr().err
    tr = metrics.Trace.from_csv(tmp_path / "trace.csv")
    assert tr.k == [1]


def test_cli_solve_zero_iterations_writes_an_empty_trace(tmp_path):
    assert _solve(tmp_path, {"method": "cp", "max_iters": 0}) == 0
    assert len(metrics.Trace.from_csv(tmp_path / "trace.csv")) == 0


# -- paths refused before any instance is drawn --------------------------------

def _assert_path_refused(argv, named, command, capsys, monkeypatch):
    """``nspd <argv>`` exits 2 with one error line naming ``named`` and no
    traceback, without drawing an instance."""
    def no_instance(cfg):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(bench, "make_instance", no_instance)
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith(f"nspd {command}: error: ")
    assert named in errors[0] and "Traceback" not in err


def test_cli_solve_refuses_a_missing_config(tmp_path, capsys, monkeypatch):
    path = tmp_path / "nothere.json"
    _assert_path_refused(["solve", "--config", str(path)],
                         "No such file or directory", "solve", capsys,
                         monkeypatch)


def test_cli_solve_refuses_a_config_that_is_not_json(tmp_path, capsys,
                                                     monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text('{"problem": ')
    _assert_path_refused(["solve", "--config", str(path)],
                         f"cannot read the config {str(path)!r}", "solve",
                         capsys, monkeypatch)


def test_cli_solve_refuses_a_config_that_is_not_an_object(tmp_path, capsys,
                                                          monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([{"problem": _SMALL_LAD}]))
    _assert_path_refused(["solve", "--config", str(path)],
                         "the config must be a JSON object, got list",
                         "solve", capsys, monkeypatch)


@pytest.mark.parametrize("out", [5, "missing/trace.csv", "", "."],
                         ids=["number", "missing_dir", "empty", "directory"])
def test_cli_solve_refuses_an_unusable_out(out, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": _SMALL_LAD, "out": out,
                                "solver": {"method": "cp", "max_iters": 5}}))
    _assert_path_refused(["solve", "--config", str(path)],
                         f"out must be a file path in an existing directory, "
                         f"got {out!r}", "solve", capsys, monkeypatch)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_cli_run_refuses_an_out_that_is_a_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "taken"
    path.write_text("kept\n")
    _assert_path_refused(["run", "lad-case1", "--out", str(path)],
                         f"cannot write to --out {str(path)!r}", "run",
                         capsys, monkeypatch)
    assert path.read_text() == "kept\n"
