"""Tests for evaluators, certificates, slope estimation and traces."""

import dataclasses
import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import nspd
from nspd import baselines, bench, metrics, pd_general, prox
from nspd.errors import (CertificateUnavailableError, OracleFailureError,
                         UnsupportedMetricError)
from nspd.linop import LinearMap
from nspd.metrics import (Certificate, Trace,
                          certificate_constrained, certificate_general_fast,
                          certificate_general_primal, certificate_semistrong,
                          certificate_strong_fast, certificate_strong_primal,
                          rate_slope)
from nspd.problems import CompositeProblem, EqConstrainedProblem, MatrixGame
from oracle_lp import game_gap


def lad_instance(rng, n=10, p=4, lam=0.3):
    A = rng.standard_normal((n, p))
    b = rng.standard_normal(n)
    return CompositeProblem(prox.l1_norm(p, lam), prox.l1_shifted(b),
                            LinearMap.from_dense(A))


# -- gaps ---------------------------------------------------------------------------

def test_game_gap_zero_matrix():
    game = MatrixGame(LinearMap.from_dense(np.zeros((3, 4))))
    assert game_gap(game, np.full(4, 0.25), np.full(3, 1 / 3)) == 0.0


def test_game_gap_antisymmetric_hand_value():
    K = LinearMap.from_dense([[0.0, 1.0], [-1.0, 0.0]])
    game = MatrixGame(K)
    c = np.array([0.5, 0.5])
    assert game_gap(game, c, c) == pytest.approx(1.0)


def _zoom_simplex_argmin(fun, rounds=7, pts_per_axis=60):
    """Derivative-free nested-grid minimizer over the 3-point simplex."""
    lo = np.zeros(2)
    hi = np.ones(2)
    best = None
    for _ in range(rounds):
        ta = np.linspace(lo[0], hi[0], pts_per_axis)
        tb = np.linspace(lo[1], hi[1], pts_per_axis)
        cand = [np.array([a, b, 1 - a - b]) for a in ta for b in tb
                if a + b <= 1 and a >= 0 and b >= 0 and 1 - a - b >= 0]
        vals = [fun(c) for c in cand]
        best = cand[int(np.argmin(vals))]
        span = (hi - lo) / (pts_per_axis - 1)
        lo = np.maximum(best[:2] - 4 * span, 0.0)
        hi = np.minimum(best[:2] + 4 * span, 1.0)
    return best


def test_game_gap_at_grid_equilibrium(rng):
    # nested fine-grid search over both simplexes of a random 3x3 game
    K = rng.uniform(-1, 1, (3, 3))
    game = MatrixGame(LinearMap.from_dense(K))
    x_eq = _zoom_simplex_argmin(lambda x: float(np.max(K @ x)))
    y_eq = _zoom_simplex_argmin(lambda y: -float(np.min(K.T @ y)))
    gap = game_gap(game, x_eq, y_eq)
    assert -1e-9 <= gap <= 1e-6


def test_game_gap_rejects_off_simplex(rng):
    game = MatrixGame(LinearMap.from_dense(np.zeros((3, 3))))
    with pytest.raises(UnsupportedMetricError):
        game_gap(game, np.array([0.5, 0.5, 0.1]), np.full(3, 1 / 3))


def test_duality_gap_nonnegative_on_feasible_points(rng):
    problem = lad_instance(rng)
    for _ in range(20):
        x = rng.standard_normal(4)
        y = rng.uniform(-1, 1, 10) * 0.5
        g = problem.primal_value(x) + metrics.dual_value(problem, y)
        assert g >= -1e-9


@given(st.integers(0, 2 ** 32 - 1))
def test_game_gap_weak_duality(seed):
    rng = np.random.default_rng(seed)
    game = MatrixGame(LinearMap.from_dense(rng.uniform(-1, 1, (4, 6))))
    x = rng.dirichlet(np.ones(6))
    y = rng.dirichlet(np.ones(4))
    assert game_gap(game, x, y) >= -1e-9


# -- bound evaluators --------------------------------------------------------------

def bound_general_gap(x0, y0, x_ref, y_ref, rho0, gamma, norm_K, k) -> float:
    """Worst-case Lagrangian-gap bound of the general method with c = 1:
    (1/(2k)) [rho0 ||K||^2 ||x0-x||^2 / gamma + ||y0-y||^2 / ((1-gamma) rho0)].

    No run certifies the Lagrangian gap yet, so the formula lives here."""
    if k < 1:
        raise ValueError("k must be at least 1")
    dx2 = float(np.sum((np.asarray(x0, float) - np.asarray(x_ref, float)) ** 2))
    dy2 = float(np.sum((np.asarray(y0, float) - np.asarray(y_ref, float)) ** 2))
    c = rho0 * norm_K ** 2 * dx2 / gamma + dy2 / ((1.0 - gamma) * rho0)
    return c / (2.0 * k)


def test_bound_gap_zero_radii():
    x0 = np.ones(3)
    y0 = np.ones(2)
    assert bound_general_gap(x0, y0, x0, y0, 1.0, 0.5, 1.0, 5) == 0.0


def test_bound_gap_hand_arithmetic():
    x0, xr = np.zeros(1), np.ones(1)
    y0, yr = np.zeros(1), np.ones(1)
    got = bound_general_gap(x0, y0, xr, yr, 1.0, 0.5, 1.0, 1)
    assert got == pytest.approx(0.5 * (2.0 + 2.0))


def test_bound_gap_halves_with_doubled_k():
    x0, xr = np.zeros(2), np.ones(2)
    y0, yr = np.zeros(2), np.ones(2)
    b1 = bound_general_gap(x0, y0, xr, yr, 2.0, 0.25, 3.0, 7)
    b2 = bound_general_gap(x0, y0, xr, yr, 2.0, 0.25, 3.0, 14)
    assert b2 == pytest.approx(b1 / 2)


def test_certificates_zero_reference_keeps_objective_term():
    x0 = np.zeros(2)
    y0 = np.zeros(3)
    cert = certificate_general_fast(2.0, 1.5, x0, y0, x0, y0, 1.0, 1.0, 0.5, 1.0)
    # only the (c-1)[F(x0)-F*] term survives in R0^2
    assert cert.inputs["R0_sq"] == pytest.approx(1.5)


def test_certificates_monotone_in_radius():
    y0 = np.zeros(3)
    base = certificate_general_primal(np.zeros(2), y0, np.zeros(2), 2.0,
                                      1.0, 0.5, 1.0)
    moved = certificate_general_primal(np.zeros(2), y0, np.ones(2), 2.0,
                                       1.0, 0.5, 1.0)
    assert moved.constant >= base.constant
    s_base = certificate_strong_primal(np.zeros(2), y0, np.zeros(2), 2.0,
                                       0.05, 0.75, 1.0)
    s_moved = certificate_strong_primal(np.zeros(2), y0, np.ones(2), 2.0,
                                        0.05, 0.75, 1.0)
    assert s_moved.constant >= s_base.constant


def test_game_gap_certificate_formula():
    # rho0 ||K||^2 (1 - 1/p)/gamma + (1 - 1/n)/((1 - gamma) rho0)
    cert = metrics.certificate_game_gap(4, 2, rho0=1.0, gamma=0.5, norm_K=1.0)
    assert cert.constant == 2.5 and cert.bound_at(5) == 0.25
    assert (cert.name, cert.shape_label, cert.reference_source) == \
        ("general_gap_simplex", "1/(2k)", "exact")
    assert cert.inputs == {"rho0": 1.0, "gamma": 0.5}


def test_certificate_shapes_and_slack():
    cert = Certificate("demo", 10.0, 1, lambda k: 1.0 / k, "1/k")
    assert cert.bound_at(5) == pytest.approx(2.0)
    assert cert.slack == pytest.approx(1e-6 * 11.0)
    ok, worst, k = cert.check([1, 2, 4], [9.0, 5.0, 2.5])
    assert ok
    ok2, worst2, k2 = cert.check([1, 2, 4], [9.0, 5.0, 2.6])
    assert not ok2 and k2 == 4


def test_certificate_does_not_hold_without_a_checked_record():
    cert = Certificate("demo", 10.0, 1, lambda k: 1.0 / k, "1/k")
    assert cert.check([], [])[0] is False
    assert cert.check([0, 1, 2], [1.0, np.nan, np.inf]) == (False, -np.inf,
                                                            None)


def test_certificate_requires_lipschitz_constant():
    with pytest.raises(CertificateUnavailableError):
        certificate_general_primal(np.zeros(2), np.zeros(3), np.zeros(2),
                                   None, 1.0, 0.5, 1.0)


def test_constrained_certificate_formula():
    x0 = np.zeros(2)
    y0 = np.zeros(3)
    x_s = np.array([1.0, 0.0])
    y_s = np.array([0.0, 2.0, 0.0])
    cert = certificate_constrained(x0, y0, x_s, y_s, rho0=1.0, gamma=0.5,
                                   norm_K=2.0, L_psi=1.0)
    expected = (1.0 * 4.0 + 0.5 * 1.0) / 0.5 * 1.0 + (2 * 2 + 0 + 1) ** 2 / 0.5
    assert cert.constant == pytest.approx(expected)
    assert cert.bound_at(10) == pytest.approx(expected / 20)


def test_semistrong_certificate_formula():
    cert = certificate_semistrong(np.zeros(2), np.zeros(2), np.zeros(3),
                                  np.ones(2), np.ones(2), np.zeros(3),
                                  rho0=0.05, gamma=0.75, norm_K=1.0, nu0=0.5)
    Gamma = 2 - 1 / 0.75
    expected = 0.05 * 2.0 / Gamma + 0.5 * 2.0 + 1.0 / ((1 - 0.75) * 0.05)
    assert cert.constant == pytest.approx(expected)
    assert cert.bound_at(3) == pytest.approx(2 * expected / 16)


def test_strong_fast_certificate_requires_c_above_two():
    with pytest.raises(CertificateUnavailableError):
        certificate_strong_fast(2.0, 0.0, np.zeros(1), np.zeros(1),
                                np.zeros(1), np.zeros(1), 1.0, 0.05, 0.75,
                                0.1, 1.0)


# -- rate slope ---------------------------------------------------------------------

def test_rate_slope_exact_powers():
    ks = np.arange(10, 2000)
    assert rate_slope(ks, 1.0 / ks, 10, 2000) == pytest.approx(-1.0, abs=1e-6)
    assert rate_slope(ks, 1.0 / ks ** 2, 10, 2000) == pytest.approx(-2.0, abs=1e-6)


def test_rate_slope_with_noise(rng):
    ks = np.arange(10, 3000)
    vals = 3.0 / ks + 1e-9 * rng.random(ks.size)
    assert -1.01 <= rate_slope(ks, vals, 10, 3000) <= -0.99


def test_rate_slope_drops_nonpositive_and_errors_when_few():
    ks = np.arange(1, 30)
    vals = np.ones(29)
    vals[5:] = -1.0
    with pytest.raises(ValueError):
        rate_slope(ks, vals, 1, 29)


def test_rate_slope_on_certificate_curve_matches_rate():
    cert = Certificate("demo", 7.0, 2, lambda k: 2.0 / (k + 1) ** 2, "2/(k+1)^2")
    ks = np.arange(100, 10_000, 7)
    vals = [cert.bound_at(int(k)) for k in ks]
    slope = rate_slope(ks, vals, 100, 10_000)
    assert slope == pytest.approx(-2.0, abs=2e-2)


# -- traces ------------------------------------------------------------------------

def test_trace_roundtrip(tmp_path):
    tr = Trace()
    tr.append(1, 1.5, float("inf"), 0.25, float("nan"), 0.001)
    tr.append(10, 0.5, 2.0, 0.125, 3.0, 0.01)
    path = tmp_path / "t.csv"
    tr.to_csv(path)
    back = Trace.from_csv(path)
    assert back.k == [1, 10]
    assert back.F == [1.5, 0.5]
    assert back.G[0] == float("inf")
    assert np.isnan(back.feas[0])
    assert back.gap[1] == 0.125


def test_trace_requires_increasing_k():
    tr = Trace()
    tr.append(3, 1.0)
    with pytest.raises(ValueError):
        tr.append(3, 0.5)


def test_trace_header_pinned(tmp_path):
    tr = Trace()
    tr.append(1, 1.0)
    path = tmp_path / "t.csv"
    tr.to_csv(path)
    with open(path) as fh:
        assert fh.readline().strip() == "k,F,G,gap,feas,time_s"


# -- reference oracle (small, fast instances) ------------------------------------------

def _tiny(kind, rng):
    """A small instance for each exact arm, and the feasibility residual
    that must vanish (None unless g is a point indicator)."""
    if kind == "lad":
        return lad_instance(rng), None
    if kind == "game":
        return MatrixGame(LinearMap.from_dense(
            rng.uniform(-1, 1, (5, 7)))).to_composite(), None
    if kind == "elastic_box":
        return CompositeProblem(prox.elastic_net(4, 0.3, 0.5),
                                prox.l1_shifted(rng.standard_normal(10)),
                                LinearMap.from_dense(
                                    rng.standard_normal((10, 4)))), None
    K = LinearMap.from_dense(rng.standard_normal((4, 8)))
    b = K.apply(rng.standard_normal(8))
    return (CompositeProblem(prox.elastic_net(8, 0.1, 1.0),
                             prox.point_indicator(b), K),
            lambda x: float(np.linalg.norm(K.apply(x) - b)))


@pytest.mark.parametrize("kind", ["lad", "game", "elastic_box", "elastic_eq"])
def test_exact_arm_certifies_its_pair(kind, rng):
    problem, feas = _tiny(kind, rng)
    f, g = problem.f, problem.g
    arm = metrics._EXACT_ARMS[f.kind, g.kind]
    F = f.value if feas else problem.primal_value  # f alone where Kx = b

    def gap(x, y):
        return abs(F(x) + metrics.dual_value(problem, y))

    x, y = arm(problem.K.matrix, f, g, gap)
    assert gap(x, y) <= 1e-8
    assert feas is None or feas(x) <= 1e-8


def test_reference_solution_is_exact(rng):
    problem = lad_instance(rng)
    ref = metrics.reference_solution(problem)
    assert ref.exact_arm == "lad_lp"
    assert ref.residual <= 1e-8 and ref.F == problem.primal_value(ref.x)
    report = ref.to_dict()
    assert report["exact_s"] > 0
    assert "x" not in report and "y" not in report


def test_reference_solution_refuses_a_conjugate_that_under_reports(
        monkeypatch):
    """x off the optimum by 1e-4 per entry, with g* under-reported by
    exactly F(x) - F*: the duality gap reads 0, but FY_g is -FY_f < 0."""
    problem, _ = bench.gen_lad(bench.LadConfig(n=20, p=8, s=3, seed=11))
    f, g, K = problem.f, problem.g, problem.K
    lad_lp = metrics._EXACT_ARMS["l1", "l1_shifted"]
    x_star, y_star = lad_lp(K.matrix, f, g, None)
    x = x_star + 1e-4  # moves zero entries: breaks -K^T y* in df(x)
    delta = problem.primal_value(x) - problem.primal_value(x_star)
    monkeypatch.setitem(metrics._EXACT_ARMS, ("l1", "l1_shifted"),
                        lambda *args: (x, y_star))
    with pytest.raises(OracleFailureError, match="residual of"):
        metrics.reference_solution(problem)  # exact conjugates: the gap
    under = dataclasses.replace(
        g, conjugate_value=lambda y: g.conjugate_value(y) - delta)
    with pytest.raises(OracleFailureError,
                       match=r"Fenchel-Young term FY_g = -4\.0\d*e-05"):
        metrics.reference_solution(CompositeProblem(f, under, K))


def test_reference_solution_refuses_a_pair_without_an_exact_arm(rng):
    problem = CompositeProblem(prox.squared_l2(4), prox.l1_shifted(
        rng.standard_normal(10)), LinearMap.from_dense(
        rng.standard_normal((10, 4))))
    with pytest.raises(OracleFailureError,
                       match="'squared_l2'.*'l1_shifted'"):
        metrics.reference_solution(problem)


def test_reference_solution_takes_the_problem_only():
    assert list(inspect.signature(metrics.reference_solution).parameters) == [
        "problem"]


def test_reference_solution_folds_an_equality_constrained_problem(rng):
    """min lam||x||_1 + (w/2)||x||^2 s.t. Kx = b: the same solution, field
    by field, as its point-indicator composite with the folded elastic net."""
    K = LinearMap.from_dense(rng.standard_normal((4, 8)))
    b = K.apply(rng.standard_normal(8))
    eq = EqConstrainedProblem(prox.l1_norm(8, 0.1), prox.squared_l2(8, 2.0),
                              K, b)
    composite = CompositeProblem(prox.elastic_net(8, 0.1, 2.0),
                                 prox.point_indicator(b), K)
    ref, twin = (metrics.reference_solution(problem)
                 for problem in (eq, composite))
    assert np.array_equal(ref.x, twin.x) and np.array_equal(ref.y, twin.y)
    assert (ref.F, ref.residual) == (twin.F, twin.residual)
    assert ref.exact_arm == "elastic_eq_dual" and ref.residual <= 1e-8


def test_reference_solution_refuses_a_constrained_pair_it_cannot_fold(rng):
    K = LinearMap.from_dense(rng.standard_normal((4, 8)))
    problem = EqConstrainedProblem(prox.l1_norm(8, 0.1),
                                   prox.zero(8), K, np.ones(4))
    with pytest.raises(OracleFailureError, match="'l1'.*'zero'"):
        metrics.reference_solution(problem)


def test_recorder_skips_g_conjugate_when_f_conjugate_is_infinite(rng):
    """Handed K^T y, a +inf f*(-K^T y) decides G = +inf without g*(y)."""
    lad = lad_instance(rng)
    calls = []

    def g_conj(y):
        calls.append(1)
        return lad.g.conjugate_value(y)

    problem = CompositeProblem(lad.f, dataclasses.replace(
        lad.g, conjugate_value=g_conj), lad.K)
    trace = Trace()
    record = metrics.composite_recorder(problem, trace)
    x, y = np.zeros(problem.p), np.full(problem.n, 10.0)
    record(1, x, y, 0.0, Kty=problem.K.adjoint_apply(y))
    assert trace.G == [math.inf] and calls == []
    record(2, x, y, 0.0)  # no K^T y handed over: g* first
    assert trace.G == [math.inf, math.inf] and calls == [1]
    assert trace.gap == [math.inf, math.inf]


# -- the game's record contract ------------------------------------------------------

def _small_game():
    return bench.make_instance(bench.GameConfig(n=30, p=40, seed=3))


def test_game_recorder_is_the_composite_formulas_on_fresh_products():
    """F, G and the gap of a game record equal, bit for bit, those of
    composite_recorder on the composite form fed no products."""
    inst = _small_game()
    opts = [pd_general.GeneralOptions(c=c, gamma=0.5,
                                      rho0=1.0 / inst.problem.K.norm,
                                      max_iters=200) for c in (1.0, 2.0)]
    solves = [lambda rec, o=o: pd_general.solve(
        inst.problem, inst.x0, inst.y0, o, recorder=rec) for o in opts]
    solves.append(lambda rec: baselines.smoothing_solve(inst.game, 0.05,
                                                        recorder=rec))
    for solve in solves:
        game_trace, composite_trace = Trace(), Trace()
        game_record = inst.recorder(game_trace)
        composite_record = metrics.composite_recorder(
            inst.game.to_composite(), composite_trace)

        def both(k, x, y, t, **products):
            game_record(k, x, y, t, **products)
            composite_record(k, x, y, t)

        solve(both)
        assert len(game_trace) > 10 and np.isfinite(game_trace.gap).all()
        for name in ("F", "G", "gap"):
            assert (game_trace.column(name).tobytes()
                    == composite_trace.column(name).tobytes())


def test_game_record_makes_one_product_each_way_handed_or_not():
    inst = _small_game()
    K, calls = inst.problem.K, {"apply": 0, "adjoint_apply": 0}

    def counted(name):
        def call(v):
            calls[name] += 1
            return getattr(K, name)(v)
        return call

    counting = LinearMap(K.rows, K.cols, counted("apply"),
                         counted("adjoint_apply"), norm_estimate=K.norm)
    game = MatrixGame(counting)
    record = metrics.game_recorder(game, Trace())
    x, y = inst.x0, inst.y0
    record(1, x, y, 0.0)
    assert calls == {"apply": 1, "adjoint_apply": 1}
    record(2, x, y, 0.0, Kx=K.apply(x), Kty=K.adjoint_apply(y))
    assert calls == {"apply": 2, "adjoint_apply": 2}


def test_game_recorder_does_not_go_through_the_composite_attribute(
        monkeypatch):
    """A wrapper installed on metrics.composite_recorder (as a tracer
    would) is not entered by a game record."""
    inst = _small_game()

    def stub(problem, trace):
        raise AssertionError("the game recorder went through the attribute")

    monkeypatch.setattr(metrics, "composite_recorder", stub)
    trace = Trace()
    inst.recorder(trace)(1, inst.x0, inst.y0, 0.0)
    assert len(trace) == 1 and math.isfinite(trace.gap[0])


def test_import_nspd_leaves_scipy_optimize_and_sparse_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(nspd.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, nspd; print([m for m in "
         "('scipy.optimize', 'scipy.sparse') if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
