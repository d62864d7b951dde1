"""The shared driver loop and the products it hands to the recorders."""

import csv
import math

import numpy as np
import pytest

from nspd import baselines, bench, metrics, pd_general, pd_strong, prox
from nspd.driver import record_cadence, run
from nspd.linop import LinearMap
from nspd.problems import (CompositeProblem, EqConstrainedProblem,
                           MatrixGame, SemiStrongProblem, neg_identity)

ITERS = 1000


def counting(K, calls):
    """K behind a LinearMap that counts its forward and adjoint products."""
    def counted(fn):
        def call(v):
            calls[0] += 1
            return fn(v)
        return call

    return LinearMap(K.rows, K.cols, counted(K.apply), counted(K.adjoint_apply),
                     norm_estimate=K.norm, norm_is_exact=True)


# -- instances: those of the acceptance suite, without their references ---------

def lad1(calls):
    problem, _ = bench.gen_lad(bench.LadConfig(seed=7))
    return CompositeProblem(problem.f, problem.g, counting(problem.K, calls))


def lad2(calls):
    problem, _ = bench.gen_lad(bench.LadConfig(seed=7, mu_f=0.1,
                                               correlated_fraction=0.5))
    return CompositeProblem(problem.f, problem.g, counting(problem.K, calls))


def constrained(calls):
    rng = np.random.default_rng(500)
    n, p = 40, 80
    K = LinearMap.from_dense(rng.standard_normal((n, p)))
    b = K.apply(rng.standard_normal(p))
    return EqConstrainedProblem(prox.l1_norm(p, 0.1), prox.squared_l2(p, 1.0),
                                counting(K, calls), b)


def semistrong(calls):
    rng = np.random.default_rng(800)
    n, p, q = 40, 60, 40
    K = LinearMap.from_dense(rng.standard_normal((n, p)))
    B = neg_identity(n)
    b = K.apply(rng.standard_normal(p)) + B.apply(rng.standard_normal(q))
    return SemiStrongProblem(prox.elastic_net(p, 0.05, 0.5),
                             prox.l1_norm(q, 1.0), counting(K, calls), B, b)


def _lad_solve(method, opts):
    def solve(problem, recorder):
        x0, y0 = np.zeros(problem.p), np.zeros(problem.n)
        return method(problem, x0, y0, opts, recorder=recorder)[0]
    return solve


def _constrained_solve(problem, recorder):
    opts = pd_general.GeneralOptions(c=1.0, gamma=0.9, rho0=1.0,
                                     max_iters=ITERS)
    return pd_general.solve_constrained(problem, np.zeros(80), np.zeros(40),
                                        opts, recorder=recorder)[0]


def _semistrong_solve(problem, recorder):
    opts = pd_strong.StrongOptions(case=1, gamma=0.75, max_iters=ITERS)
    return pd_strong.solve_semistrong(problem, np.zeros(60), np.zeros(40),
                                      np.zeros(40), opts,
                                      recorder=recorder)[0]


CASES = {
    "lad1_c1": (lad1, metrics.composite_recorder, _lad_solve(
        pd_general.solve, pd_general.GeneralOptions(
            c=1.0, gamma=0.999, max_iters=ITERS))),
    "lad1_c2": (lad1, metrics.composite_recorder, _lad_solve(
        pd_general.solve, pd_general.GeneralOptions(
            c=2.0, gamma=0.999, max_iters=ITERS))),
    "lad2_case1": (lad2, metrics.composite_recorder, _lad_solve(
        pd_strong.solve, pd_strong.StrongOptions(
            case=1, gamma=0.999, max_iters=ITERS))),
    "lad2_case2": (lad2, metrics.composite_recorder, _lad_solve(
        pd_strong.solve, pd_strong.StrongOptions(
            case=2, gamma=0.75, c=4.0, max_iters=ITERS))),
    "constrained": (constrained, metrics.constrained_recorder,
                    _constrained_solve),
    "semistrong": (semistrong, metrics.semistrong_recorder,
                   _semistrong_solve),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_recorders_use_the_handed_products(case):
    """With products handed over a recorder multiplies by nothing; F and
    feas equal a recomputation bit for bit, and G (which reads the running
    K^T y_bar) agrees to 1e-12 relative."""
    make_problem, make_recorder, solve = CASES[case]
    calls = [0]
    problem = make_problem(calls)
    handed, recomputed = metrics.Trace(), metrics.Trace()
    rec_handed = make_recorder(problem, handed)
    rec_recomputed = make_recorder(problem, recomputed)
    during = []

    def record(k, x, y, t, **products):
        assert products  # every state here holds its products
        before = calls[0]
        gap = rec_handed(k, x, y, t, **products)
        during.append(calls[0] - before)
        # w is an iterate of the semi-strong scheme, not a product
        rec_recomputed(k, x, y, t, **{key: v for key, v in products.items()
                                      if key == "w"})
        return gap

    solve(problem, record)
    assert len(during) == ITERS and sum(during) == 0
    assert handed.F == recomputed.F
    assert np.array_equal(handed.column("feas"), recomputed.column("feas"),
                          equal_nan=True)
    G_h, G_r = handed.column("G"), recomputed.column("G")
    assert np.array_equal(np.isinf(G_h), np.isinf(G_r))
    assert np.array_equal(np.isnan(G_h), np.isnan(G_r))
    finite = np.isfinite(G_r)
    assert np.all(np.abs(G_h[finite] - G_r[finite])
                  <= 1e-12 * np.maximum(1.0, np.abs(G_r[finite])))
    if case.startswith("lad1"):
        assert np.isinf(G_h).all()  # f* is an indicator that y_bar leaves


def test_recorded_iterates_equal_bare_ones():
    """Carrying K^T y_bar for a recorder leaves every iterate unchanged."""
    for make_problem, solve in ((lad1, CASES["lad1_c2"][2]),
                                (lad2, CASES["lad2_case2"][2])):
        problem = make_problem([0])
        bare = solve(problem, None)
        recorded = solve(problem, metrics.composite_recorder(
            problem, metrics.Trace()))
        assert bare.Kt_ybar is None
        for name in ("x", "y", "y_bar", "y_tilde"):
            assert np.array_equal(getattr(bare, name), getattr(recorded, name))


def test_running_product_starts_anywhere(rng):
    """tau_0 = 1, so the running K^T y_bar matches K^T y_bar from any y0."""
    problem = lad2([0])
    y0 = rng.uniform(-1, 1, problem.n)
    state = pd_strong.init_state(problem, np.zeros(problem.p), y0)
    state.Kt_ybar = np.zeros(problem.p)
    sched = pd_strong.StrongSchedule(2, 0.75, problem.f.mu, problem.K.norm)
    for _ in range(50):
        pd_strong.step(state, problem, sched)
        direct = problem.K.adjoint_apply(state.y_bar)
        assert np.allclose(state.Kt_ybar, direct, rtol=1e-12, atol=1e-14)


# -- record cadence ---------------------------------------------------------------

def old_cadence(max_iters, trace_every):
    """The k set the per-solver loops recorded before the shared driver."""
    if trace_every == "log":
        ks = np.unique(np.round(np.logspace(0, np.log10(max_iters), 400)).astype(int))
        log_ks = set(int(k) for k in ks) | set(range(1, min(11, max_iters + 1)))
        return [k for k in range(1, max_iters + 1)
                if k in log_ks or k == max_iters]
    return [k for k in range(1, max_iters + 1)
            if k % trace_every == 0 or k == max_iters or k <= 10]


@pytest.mark.parametrize("trace_every", [1, 7, "log"])
@pytest.mark.parametrize("max_iters", [5, 999, 3000])
def test_cadence_matches_the_old_loops(trace_every, max_iters):
    recorded = record_cadence(max_iters, trace_every)
    assert [k for k in range(1, max_iters + 1) if recorded(k)] == \
        old_cadence(max_iters, trace_every)


@pytest.mark.parametrize("trace_every", [1, 7, "log"])
def test_every_solver_records_the_cadence(trace_every):
    problem, _ = bench.gen_lad(bench.LadConfig(n=20, p=8, s=2, seed=3))
    x0, y0 = np.zeros(8), np.zeros(20)
    want = old_cadence(300, trace_every)
    runs = {
        "pd_general": lambda rec: pd_general.solve(
            problem, x0, y0, pd_general.GeneralOptions(
                max_iters=300, trace_every=trace_every), recorder=rec),
        "cp": lambda rec: baselines.solve_cp(
            problem, x0, y0, baselines.BaselineConfig(
                max_iters=300, trace_every=trace_every), recorder=rec),
        "admm": lambda rec: baselines.solve_admm(
            problem, x0, y0, baselines.BaselineConfig(
                max_iters=300, trace_every=trace_every,
                output_mode="last_iterate"), recorder=rec),
    }
    for name, solve in runs.items():
        trace = metrics.Trace()
        solve(metrics.composite_recorder(problem, trace))
        assert trace.k == want, name


def test_smoothing_records_the_log_cadence(rng):
    A = rng.uniform(-1, 1, (6, 9))
    game = MatrixGame(LinearMap.from_dense(A / np.linalg.norm(A, 2)))
    trace = metrics.Trace()
    _, _, k_max, _ = baselines.smoothing_solve(
        game, 0.05, recorder=metrics.game_recorder(game, trace))
    assert trace.k == old_cadence(k_max, "log")


def test_tol_stops_the_run():
    class State:
        k = 0

    def advance(s):
        s.k += 1
        return s

    seen = []

    def recorder(k, x, y, t, **products):
        seen.append(k)
        return 1.0 / k

    state = run(advance, State(), 10_000, 1, recorder,
                lambda s: (None, None, {}), tol=0.01)
    assert state.k == 100 and seen[-1] == 100
    # no tol, or a recorder returning None: the run goes the distance
    assert run(advance, State(), 500, 1, recorder,
               lambda s: (None, None, {})).k == 500
    assert run(advance, State(), 500, 1, lambda *a, **kw: None,
               lambda s: (None, None, {}), tol=1.0).k == 500


def test_constrained_solve_honours_tol():
    problem = constrained([0])
    trace = metrics.Trace()
    rec = metrics.constrained_recorder(problem, trace)

    def feasibility_stop(k, x, y, t, **products):
        rec(k, x, y, t, **products)
        return trace.feas[-1]

    opts = pd_general.GeneralOptions(c=1.0, gamma=0.9, rho0=1.0,
                                     max_iters=ITERS, tol=1e-2)
    state, _ = pd_general.solve_constrained(problem, np.zeros(80),
                                            np.zeros(40), opts,
                                            recorder=feasibility_stop)
    assert state.k < ITERS
    assert trace.feas[-1] <= 1e-2 < trace.feas[-2]


# -- trace CSV --------------------------------------------------------------------

def csv_writer_bytes(trace, path):
    """What Trace.to_csv wrote through csv.writer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(metrics.CSV_HEADER)
        for row in zip(trace.k, trace.F, trace.G, trace.gap, trace.feas,
                       trace.time_s):
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])
    with open(path, "rb") as fh:
        return fh.read()


def test_to_csv_bytes_equal_csv_writer(tmp_path, rng):
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e-300,
                1e-310, 5e-324, -2.2250738585072014e-308 / 3, 1.0, 123456789.0,
                1 / 3, -7.25e22]
    trace = metrics.Trace()
    for k in range(1, 40):
        F, G, gap, feas = (specials[(k + j) % len(specials)] for j in range(4))
        trace.append(k ** 5, F, G, gap, feas, float(rng.random()))
    trace.to_csv(tmp_path / "new.csv")
    assert (tmp_path / "new.csv").read_bytes() == \
        csv_writer_bytes(trace, tmp_path / "old.csv")
    back = metrics.Trace.from_csv(tmp_path / "new.csv")
    assert back.k == trace.k
    assert np.array_equal(back.column("G"), trace.column("G"), equal_nan=True)

    empty = metrics.Trace()
    empty.to_csv(tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_bytes() == \
        csv_writer_bytes(empty, tmp_path / "old_empty.csv")
