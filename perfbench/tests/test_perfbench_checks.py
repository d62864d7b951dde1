"""Each benchmark check passes on real outputs and fails on a wrong one.

The outputs come from small instances solved in-process with the program's
own solvers and recorders, laid out the way ``nspd run`` writes them.
"""

import csv
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))
from perfbench import checks  # noqa: E402
from perfbench import reference as R  # noqa: E402


def _write_run(out, problem, runs, report_extra, K):
    """Trace CSVs, instance file and report.json for the given runs."""
    from nspd.linop import save_triplets

    save_triplets(os.path.join(out, "instance_K.txt"), problem.K)
    worker = {"final_k": {}, "norm_K": float(problem.K.norm)}
    cap = {"K": K}
    variants = []
    for label, (trace, x, y, cert, ok) in runs.items():
        trace.to_csv(os.path.join(out, f"trace_{label}.csv"))
        worker["final_k"][label] = trace.k[-1]
        cap[f"x:{label}"], cap[f"y:{label}"] = np.array(x), np.array(y)
        variants.append({"label": label, "final_metric": 0.0, "slope": None,
                         "error": None, "certificate_ok": ok,
                         "certificate": cert.to_dict() if cert else None})
    report = {"variants": variants, "exit_code": 0} | report_extra
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh)
    return worker, cap


def lad_run(out, case):
    from nspd import bench, metrics, pd_general, pd_strong

    cfg = bench.LadConfig(n=30, p=8, s=2, seed=0,
                          mu_f=0.0 if case == 1 else 0.1)
    problem, _ = bench.gen_lad(cfg)
    K, b = np.array(problem.K.matrix), problem.g.shift.copy()
    np.savetxt(os.path.join(out, "instance_b.csv"), b, delimiter=",")
    ref = (R.lad_lp(K, b, cfg.lam) if case == 1
           else R.elastic_dual(K, b, cfg.lam, cfg.mu_f))
    norm_K, M_g = problem.K.norm, problem.g.lipschitz
    x0, y0 = np.zeros(cfg.p), np.zeros(cfg.n)
    F0_gap = problem.primal_value(x0) - ref.F
    runs = {}
    if case == 1:
        rho0 = 1.0 / norm_K
        for c in (1.0, 2.0):
            trace = metrics.Trace()
            state, _ = pd_general.solve(
                problem, x0, y0, pd_general.GeneralOptions(
                    c=c, gamma=0.999, rho0=rho0, max_iters=200),
                recorder=metrics.composite_recorder(problem, trace))
            cert = (metrics.certificate_general_primal(
                x0, y0, ref.x, M_g, rho0, 0.999, norm_K) if c == 1 else
                metrics.certificate_general_fast(
                    c, F0_gap, x0, y0, ref.x, ref.y, M_g, rho0, 0.999, norm_K))
            runs[f"pd_general_c{int(c)}"] = (trace, state.x, state.y_bar, cert,
                                             True)
    else:
        for label, opts in (
                ("pd_strong_case1", pd_strong.StrongOptions(
                    case=1, gamma=0.999, max_iters=200)),
                ("pd_strong_case2_c4", pd_strong.StrongOptions(
                    case=2, gamma=0.75, c=4.0, max_iters=200))):
            trace = metrics.Trace()
            state, sched = pd_strong.solve(
                problem, x0, y0, opts,
                recorder=metrics.composite_recorder(problem, trace))
            cert = (metrics.certificate_strong_primal(
                x0, y0, ref.x, M_g, sched.rho0, opts.gamma, norm_K)
                if opts.case == 1 else metrics.certificate_strong_fast(
                    4.0, F0_gap, x0, y0, ref.x, ref.y, M_g, sched.rho0,
                    opts.gamma, cfg.mu_f, norm_K))
            runs[label] = (trace, state.x, state.y_bar, cert, True)
    worker, cap = _write_run(out, problem, runs, {
        "oracle_ok": True, "reference": {"F": ref.F}}, K)
    worker.update(lam=cfg.lam, mu=cfg.mu_f)
    cap["b"] = b
    w = {"experiment": f"lad-case{case}", "variants": list(runs)}
    return w, worker, cap, ref


def game_run(out):
    from nspd import baselines, bench, metrics, pd_general

    game = bench.gen_game(bench.GameConfig(n=10, p=20, seed=0))
    problem = game.to_composite()
    p, n = game.p, game.n
    x0, y0 = np.full(p, 1.0 / p), np.full(n, 1.0 / n)
    rho0 = 1.0 / game.K.norm
    trace = metrics.Trace()
    state, _ = pd_general.solve(problem, x0, y0, pd_general.GeneralOptions(
        c=1.0, gamma=0.5, rho0=rho0, max_iters=200),
        recorder=metrics.game_recorder(game, trace))
    cert = metrics.Certificate("general_gap_simplex", 1.0, 1, lambda k: 1.0,
                               "1/(2k)", "exact", {"rho0": rho0, "gamma": 0.5})
    runs = {"pd_general_c1": (trace, state.x, state.y_bar, cert, True)}
    trace = metrics.Trace()
    x, y, _, _ = baselines.smoothing_solve(
        game, 0.1, recorder=metrics.game_recorder(game, trace))
    runs["smoothing_mu1"] = (trace, x, y, None, None)
    worker, cap = _write_run(out, problem, runs, {},
                             np.array(game.K.matrix))
    worker.update(lam=None, mu=None)
    w = {"experiment": "game", "variants": list(runs), "epsilon": 0.1}
    return w, worker, cap, None


def edit_trace(out, label, column, row, value):
    path = os.path.join(out, f"trace_{label}.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1 if row >= 0 else row][rows[0].index(column)] = repr(value)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def failures(case, out):
    ops, problems, _ = checks.check_experiment(*case[:1], out, *case[1:])
    return {op.name: op.wrong for op in ops if op.failed}, problems


@pytest.fixture(params=["lad1", "lad2", "game"])
def run(request, tmp_path):
    out = str(tmp_path)
    case = {"lad1": lambda: lad_run(out, 1), "lad2": lambda: lad_run(out, 2),
            "game": lambda: game_run(out)}[request.param]()
    return request.param, out, case


def test_real_outputs_pass(run):
    _, out, case = run
    assert failures(case, out) == ({}, [])


@pytest.mark.parametrize("lad_case", [1, 2])
def test_oracle_off_by_1e6_relative_fails(lad_case, tmp_path):
    out = str(tmp_path)
    case = lad_run(out, lad_case)
    path = os.path.join(out, "report.json")
    with open(path) as fh:
        report = json.load(fh)
    report["reference"]["F"] *= 1 + 1e-6
    with open(path, "w") as fh:
        json.dump(report, fh)
    assert "oracle" in failures(case, out)[0]


def test_perturbed_final_iterate_fails(run):
    _, out, case = run
    w, worker, cap, ref = case
    label = w["variants"][0]
    x = cap[f"x:{label}"]
    if w["experiment"] == "game":  # move 10% of the mass, staying feasible
        cap[f"x:{label}"] = 0.9 * x + 0.1 * (np.arange(x.size) == 0)
    else:
        cap[f"x:{label}"] = x + 1e-3
    assert label in failures(case, out)[0]


def test_bound_violation_fails(run):
    _, out, case = run
    w, worker, cap, ref = case
    label = w["variants"][0]
    col = "gap" if w["experiment"] == "game" else "F"
    edit_trace(out, label, col, 150, 1e12)
    assert any("bound violated" in m for m in failures(case, out)[0][label])


def test_F_below_optimum_fails(tmp_path):
    out = str(tmp_path)
    case = lad_run(out, 1)
    edit_trace(out, "pd_general_c2", "F", 20, case[3].F * (1 - 1e-8))
    assert "pd_general_c2" in failures(case, out)[0]


def test_weak_duality_violation_fails(tmp_path):
    out = str(tmp_path)
    case = lad_run(out, 2)
    edit_trace(out, "pd_strong_case1", "G", 5, -1e3)
    assert any("weak duality" in m
               for m in failures(case, out)[0]["pd_strong_case1"])


def test_negative_gap_and_smoothing_accuracy_fail(tmp_path):
    out = str(tmp_path)
    case = game_run(out)
    edit_trace(out, "pd_general_c1", "gap", 3, -1e-12)
    edit_trace(out, "smoothing_mu1", "gap", -1, 0.2)
    failed = failures(case, out)[0]
    assert any("negative" in m for m in failed["pd_general_c1"])
    assert any("smoothing_mu1 ends" in m for m in failed["smoothing_mu1"])


def test_changed_instance_file_and_missing_variant_fail(tmp_path):
    out = str(tmp_path)
    case = lad_run(out, 1)
    path = os.path.join(out, "instance_K.txt")
    with open(path) as fh:
        lines = fh.readlines()
    i, j, v = lines[5].split()
    lines[5] = f"{i} {j} {float(v) + 1e-9!r}\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    case[0]["variants"].append("cp_rho1")
    failed, problems = failures(case, out)
    assert problems == ["instance_K.txt differs from the generated K"]
    assert "cp_rho1" in failed


def test_throughput_bound_and_repeatability_fail(tmp_path):
    out = str(tmp_path)
    w, worker, cap, ref = lad_run(out, 1)
    tp = {"method": "pd_general", "iters": 200, "times": [0.1, 0.1],
          "errors": [], "identical": True, "rho0": 1.0 / worker["norm_K"],
          "gamma": 0.999, "c": 2.0, "norm_K": worker["norm_K"],
          "x": cap["x:pd_general_c2"], "y": cap["y:pd_general_c2"]}

    def failed(t):
        return [op.failed for op in checks.check_throughput(
            w, t, cap, ref, worker["lam"], worker["mu"])]

    assert failed(tp) == [False, False]
    assert failed(tp | {"x": tp["x"] + 10.0}) == [True, True]
    assert failed(tp | {"identical": False}) == [True, True]
    assert failed(tp | {"errors": ["DivergenceError: non-finite iterate"]}) \
        == [False, False, True]


@pytest.mark.parametrize("name", ["lad1", "game"])
def test_recorded_throughput_trace_fails_on_wrong_rows(name, tmp_path):
    out = str(tmp_path)
    if name == "lad1":
        w, worker, cap, ref = lad_run(out, 1)
        label, col, t = "pd_general_c2", "F", {"c": 2.0, "gamma": 0.999}
    else:
        w, worker, cap, ref = game_run(out)
        label, col, t = "pd_general_c1", "gap", {"c": 1.0, "gamma": 0.5}
    tp = t | {"method": "pd_general", "iters": 200, "times": [0.1],
              "recorded_times": [0.2], "errors": [], "identical": True,
              "rho0": 1.0 / worker["norm_K"], "norm_K": worker["norm_K"],
              "x": cap[f"x:{label}"], "y": cap[f"y:{label}"]}
    path = os.path.join(out, f"trace_{label}.csv")

    def wrong():
        ops = checks.check_throughput(w, tp, cap, ref, worker["lam"],
                                      worker["mu"], path)
        return {op.name: " ".join(op.wrong) for op in ops if op.failed}

    assert wrong() == {}
    final = float(checks.read_trace(path)[col][-1])
    edit_trace(out, label, col, -1, final + 1e-6)
    assert list(wrong()) == ["recorded0"]
    assert "recorded final" in wrong()["recorded0"]
    edit_trace(out, label, col, -1, final)
    edit_trace(out, label, col, 50, 1e6)
    assert list(wrong()) == ["recorded0"]
    assert "bound violated at k=51" in wrong()["recorded0"]
