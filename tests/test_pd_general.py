"""Tests for the general convex primal-dual method."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nspd import pd_general, pd_strong, prox
from nspd.errors import ConfigurationError, DivergenceError
from nspd.linop import LinearMap
from nspd.pd_general import (GeneralSchedule, constrained_beta,
                             init_split_state, init_state, split_step, step)
from nspd.problems import CompositeProblem, EqConstrainedProblem


def lad_instance(rng, n=50, p=20, lam=0.05):
    A = rng.standard_normal((n, p))
    b = rng.standard_normal(n)
    K = LinearMap.from_dense(A)
    return CompositeProblem(prox.l1_norm(p, lam), prox.l1_shifted(b), K)


# -- schedule ------------------------------------------------------------------

def test_schedule_tau_values():
    s = GeneralSchedule(c=1.0, gamma=0.5, rho0=1.0, norm_K=1.0)
    assert s.tau(0) == 1.0
    assert s.tau(1) == 0.5
    assert s.tau(3) == 0.25


def test_schedule_hand_values():
    s = GeneralSchedule(c=1.0, gamma=0.5, rho0=2.0, norm_K=1.0)
    tau, rho, beta, eta = s.at(1)
    assert rho == pytest.approx(4.0)
    assert beta == pytest.approx(0.125)
    assert eta == pytest.approx(2.0)


@given(st.integers(0, 10 ** 6), st.floats(1.0, 8.0), st.floats(0.01, 0.99),
       st.floats(0.01, 50.0), st.floats(0.1, 40.0))
def test_schedule_invariants(k, c, gamma, rho0, norm_K):
    s = GeneralSchedule(c=c, gamma=gamma, rho0=rho0, norm_K=norm_K)
    tau, rho, beta, eta = s.at(k)
    assert 0 < tau <= 1.0
    assert abs(rho * beta * norm_K ** 2 - gamma) <= 1e-15 * gamma
    assert rho > eta
    assert rho == pytest.approx(rho0 / tau, rel=1e-15)
    assert eta == pytest.approx((1 - gamma) * rho, rel=1e-15)


def test_schedule_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        GeneralSchedule(c=0.5)
    with pytest.raises(ConfigurationError):
        GeneralSchedule(gamma=1.0)
    with pytest.raises(ConfigurationError):
        GeneralSchedule(rho0=0.0)


@given(st.integers(0, 2 ** 32 - 1))
def test_two_point_norm_identity(seed):
    # alpha1 ||u-w||^2 + alpha2 ||v-w||^2 combines into a single square plus
    # a cross term whenever alpha1 + alpha2 != 0
    rng = np.random.default_rng(seed)
    u, v, w = rng.standard_normal((3, 6))
    a1, a2 = rng.uniform(-2, 2, size=2)
    if abs(a1 + a2) < 0.05:
        a2 += 0.2
    lhs = a1 * np.sum((u - w) ** 2) + a2 * np.sum((v - w) ** 2)
    m = (a1 * u + a2 * v) / (a1 + a2)
    rhs = (a1 + a2) * np.sum((w - m) ** 2) + (a1 * a2 / (a1 + a2)) * np.sum((u - v) ** 2)
    scale = abs(a1) * np.sum((u - w) ** 2) + abs(a2) * np.sum((v - w) ** 2) + 1
    assert abs(lhs - rhs) <= 1e-10 * scale


# -- stationarity and simple dynamics ---------------------------------------------

def test_zero_instance_is_stationary():
    # no coupling, no objective: x never moves and y stays at the dual
    # solution 0 (g = 0 pins the dual prox at the origin)
    p = n = 3
    problem = CompositeProblem(prox.zero(p), prox.zero(n),
                               LinearMap.from_dense(np.zeros((n, p))))
    sched = GeneralSchedule(c=1.0, gamma=0.5, rho0=1.0, norm_K=1.0)
    st_m = init_state(problem, np.ones(p), np.zeros(n))
    st_s = init_split_state(problem, np.ones(p), np.zeros(n))
    for _ in range(5):
        step(st_m, problem, sched)
        split_step(st_s, problem, sched)
    assert np.array_equal(st_m.x, np.ones(p))
    assert np.array_equal(st_m.y, np.zeros(n))
    assert np.array_equal(st_m.y_tilde, np.zeros(n))
    assert np.array_equal(st_s.x, np.ones(p))


def test_zero_start_at_saddle_point_stays():
    # f = 0, g = ||.||_1, K = I: the origin is a saddle point
    p = 2
    problem = CompositeProblem(prox.zero(p), prox.l1_shifted(np.zeros(p)),
                               LinearMap.from_dense(np.eye(p)))
    sched = GeneralSchedule(c=1.0, gamma=0.5, rho0=1.0, norm_K=1.0)
    st_m = init_state(problem, np.zeros(p), np.zeros(p))
    step(st_m, problem, sched)
    assert np.array_equal(st_m.x, np.zeros(p))
    assert np.array_equal(st_m.y, np.zeros(p))


@pytest.mark.parametrize("method, form", [
    (pd_general, "merged"), (pd_strong, "merged"),
    (pd_general, "split"), (pd_strong, "split")],
    ids=["pd_general.step", "pd_strong.step", "pd_general.split_step",
         "pd_strong.split_step"])
def test_divergence_raises_with_iteration_index(method, form):
    p = 2
    problem = CompositeProblem(prox.zero(p), prox.zero(p),
                               LinearMap.from_dense(np.eye(p)))
    sched = (GeneralSchedule(c=1.0, gamma=0.5, rho0=1.0, norm_K=1.0)
             if method is pd_general
             else pd_strong.StrongSchedule(1, 0.75, mu_f=1.0, norm_K=1.0))
    init, advance = ((method.init_state, method.step) if form == "merged"
                     else (method.init_split_state, method.split_step))
    state = init(problem, np.array([1.0, np.nan]), np.zeros(p))
    before = {name: np.copy(v) for name, v in vars(state).items()
              if isinstance(v, np.ndarray)}
    with pytest.raises(DivergenceError) as err:
        advance(state, problem, sched)
    assert err.value.iteration == 0
    assert err.value.quantity == "x"
    # a failed step writes nothing into the state
    assert state.k == 0
    for name, value in before.items():
        assert np.array_equal(getattr(state, name), value, equal_nan=True), name


# -- merged vs split equivalence ---------------------------------------------------

@pytest.mark.parametrize("c", [1.0, 2.0])
def test_merged_matches_split_form(rng, c):
    problem = lad_instance(rng)
    x0 = rng.standard_normal(20)
    y0 = rng.standard_normal(50)
    sched = GeneralSchedule(c=c, gamma=0.5, rho0=1.0, norm_K=problem.K.norm)
    sm = init_state(problem, x0, y0)
    ss = init_split_state(problem, x0, y0)
    for _ in range(100):
        step(sm, problem, sched)
        split_step(ss, problem, sched)
        assert np.linalg.norm(sm.x - ss.x) <= 1e-9
        assert np.linalg.norm(sm.y_bar - ss.y_bar) <= 1e-9
        assert np.linalg.norm(sm.y - ss.y) <= 1e-9


def test_split_residual_elimination_identity(rng):
    # r_{k+1} recovers from the dual prox point: r = (y~ + rho K xhat - y)/rho
    problem = lad_instance(rng, 12, 6)
    sched = GeneralSchedule(c=1.0, gamma=0.5, rho0=0.7, norm_K=problem.K.norm)
    ss = init_split_state(problem, rng.standard_normal(6), rng.standard_normal(12))
    for k in range(20):
        tau, rho, _, _ = sched.at(ss.k)
        x_hat = (1 - tau) * ss.x + tau * ss.x_tilde
        K_xhat = problem.K.apply(x_hat)
        y_tilde_before = ss.y_tilde.copy()
        split_step(ss, problem, sched)
        r_rec = (y_tilde_before + rho * K_xhat - ss.y) / rho
        assert np.linalg.norm(r_rec - ss.r) <= 1e-12 * (1 + np.linalg.norm(ss.r))


def test_dual_average_is_weighted_combination(rng):
    problem = lad_instance(rng, 10, 4)
    sched = GeneralSchedule(c=2.0, gamma=0.5, rho0=1.0, norm_K=problem.K.norm)
    y_init = rng.standard_normal(10)
    state = init_state(problem, rng.standard_normal(4), y_init)
    ys = []
    weights = []  # scalar recursion run alongside the vector one
    w_init = 1.0
    for k in range(20):
        tau = sched.tau(state.k)
        step(state, problem, sched)
        ys.append(state.y.copy())
        weights = [w * (1 - tau) for w in weights] + [tau]
        w_init *= (1 - tau)
        recon = w_init * y_init
        for w, y in zip(weights, ys):
            recon = recon + w * y
        assert np.linalg.norm(state.y_bar - recon) <= 1e-10


def test_y_bar_within_hull_bounding_box(rng):
    problem = lad_instance(rng, 15, 6)
    sched = GeneralSchedule(c=1.0, gamma=0.9, rho0=2.0, norm_K=problem.K.norm)
    state = init_state(problem, rng.standard_normal(6), np.zeros(15))
    lo = state.y.copy()
    hi = state.y.copy()
    for _ in range(50):
        step(state, problem, sched)
        lo = np.minimum(lo, state.y)
        hi = np.maximum(hi, state.y)
        assert np.all(state.y_bar >= lo - 1e-12)
        assert np.all(state.y_bar <= hi + 1e-12)


def test_one_forward_one_adjoint_per_step(rng):
    problem = lad_instance(rng, 8, 5)
    calls = {"fwd": 0, "adj": 0}
    inner = problem.K

    wrapped = LinearMap(
        inner.rows, inner.cols,
        lambda x: (calls.__setitem__("fwd", calls["fwd"] + 1), inner.apply(x))[1],
        lambda y: (calls.__setitem__("adj", calls["adj"] + 1), inner.adjoint_apply(y))[1],
        norm_estimate=inner.norm)
    problem2 = CompositeProblem(problem.f, problem.g, wrapped)
    sched = GeneralSchedule(c=1.0, gamma=0.5, rho0=1.0, norm_K=wrapped.norm)
    state = init_state(problem2, np.zeros(5), np.zeros(8))
    calls["fwd"] = calls["adj"] = 0
    for _ in range(10):
        step(state, problem2, sched)
    assert calls["fwd"] == 10
    assert calls["adj"] == 10


# -- equality-constrained problems: the merged step with a smooth term -----------------

def constrained_instance(rng, n=10, p=20):
    K = LinearMap.from_dense(rng.standard_normal((n, p)))
    x_feas = rng.standard_normal(p)
    b = K.apply(x_feas)
    return EqConstrainedProblem(prox.l1_norm(p, 0.1), prox.squared_l2(p, 1.0),
                                K, b)


def as_composite(problem):
    """f + indicator_{b}(Kx): the problem solve_constrained steps on."""
    return CompositeProblem(problem.f, prox.point_indicator(problem.b),
                            problem.K)


def test_constrained_hand_step():
    # p=2, n=1, K=[1,1], b=1, f=0, psi=||x||^2/2, zero start
    K = LinearMap.from_dense([[1.0, 1.0]])
    problem = EqConstrainedProblem(prox.zero(2), prox.squared_l2(2, 1.0), K,
                                   np.array([1.0]))
    sched = GeneralSchedule(c=1.0, gamma=0.5, rho0=1.0, norm_K=np.sqrt(2.0))
    assert sched.norm_K ** 2 == pytest.approx(2.0)
    composite = as_composite(problem)
    state = init_state(composite, np.zeros(2), np.zeros(1))
    beta0 = constrained_beta(sched, 1.0, 1.0)
    assert beta0 == pytest.approx(0.2)
    step(state, composite, sched, psi=problem.psi)
    assert np.allclose(state.y, [-1.0])
    assert np.allclose(state.x, [0.2, 0.2])


def test_constrained_trivial_solution_at_origin():
    K = LinearMap.from_dense(np.eye(2))
    problem = EqConstrainedProblem(prox.point_indicator(np.zeros(2)),
                                   prox.zero(2), K, np.zeros(2))
    sched = GeneralSchedule(c=1.0, gamma=0.5, rho0=1.0, norm_K=1.0)
    composite = as_composite(problem)
    state = init_state(composite, np.zeros(2), np.zeros(2))
    for _ in range(5):
        step(state, composite, sched, psi=problem.psi)
    assert np.allclose(state.x, np.zeros(2))
    assert np.linalg.norm(problem.K.apply(state.x) - problem.b) == 0.0


def test_constrained_feasibility_decays_like_1_over_k(rng):
    problem = constrained_instance(rng)
    sched = GeneralSchedule(c=1.0, gamma=0.5, rho0=1.0, norm_K=problem.K.norm)
    composite = as_composite(problem)
    state = init_state(composite, np.zeros(20), np.zeros(10))
    ks, feas = [], []
    for k in range(1, 4001):
        step(state, composite, sched, psi=problem.psi)
        if k >= 20 and k % 4 == 0:
            ks.append(k)
            feas.append(np.linalg.norm(problem.K.apply(state.x) - problem.b))
    from nspd.metrics import rate_slope
    assert rate_slope(ks, feas, 40, 4000) <= -0.8
    assert feas[-1] < feas[0] / 50


def dedicated_constrained_step(s, problem, sched):
    """The equality-constrained update as a step of its own: a multiplier
    ascent on K x^ - b and a dual correction formed from K x - b."""
    k = s["k"]
    tau, rho, _, eta = sched.at(k)
    beta = constrained_beta(sched, rho, problem.psi.smooth_lipschitz)
    f, psi, K, b = problem.f, problem.psi, problem.K, problem.b
    y = s["y_tilde"] + rho * (s["K_xhat"] - b)
    x = f.prox(s["x_hat"] - beta * (K.adjoint_apply(y)
                                    + psi.gradient(s["x_hat"])), beta)
    momentum = sched.tau(k + 1) * (1.0 - tau) / tau
    K_x = K.apply(x)
    s.update(
        k=k + 1, x=x, y=y,
        x_hat=x + momentum * (x - s["x"]),
        K_xhat=K_x + momentum * (K_x - s["K_x"]),
        y_tilde=s["y_tilde"] + eta * (K_x - (1.0 - tau) * s["K_x"] - tau * b),
        y_bar=(1.0 - tau) * s["y_bar"] + tau * y, K_x=K_x)


def test_merged_step_matches_the_dedicated_constrained_update():
    # the criterion-5b instance; the two forms differ only in rounding: the
    # merged correction reads (y_{k+1} - y~_k)/rho_k where the dedicated
    # one reads K x^_k - b
    rng = np.random.default_rng(500)
    n, p = 40, 80
    K = LinearMap.from_dense(rng.standard_normal((n, p)))
    b = K.apply(rng.standard_normal(p))
    problem = EqConstrainedProblem(prox.l1_norm(p, 0.1),
                                   prox.squared_l2(p, 1.0), K, b)
    sched = GeneralSchedule(c=1.0, gamma=0.9, rho0=1.0, norm_K=K.norm)
    composite = as_composite(problem)
    merged = init_state(composite, np.zeros(p), np.zeros(n))
    Kx0 = K.apply(np.zeros(p))
    ref = dict(k=0, x=np.zeros(p), x_hat=np.zeros(p), y=np.zeros(n),
               y_tilde=np.zeros(n), y_bar=np.zeros(n), K_x=Kx0,
               K_xhat=Kx0.copy())
    for _ in range(2000):
        step(merged, composite, sched, psi=problem.psi)
        dedicated_constrained_step(ref, problem, sched)
    for name in ("x", "y_bar"):
        want = ref[name]
        assert np.linalg.norm(getattr(merged, name) - want) \
            <= 1e-9 * np.linalg.norm(want), name


def test_constrained_requires_gradient():
    K = LinearMap.from_dense(np.eye(2))
    with pytest.raises(ConfigurationError):
        EqConstrainedProblem(prox.zero(2), prox.l1_norm(2, 1.0), K, np.zeros(2))


def test_psi_gradient_matches_finite_differences(rng):
    problem = constrained_instance(rng)
    for _ in range(10):
        x = rng.standard_normal(20)
        g = problem.psi.gradient(x)
        for i in rng.choice(20, size=3, replace=False):
            e = np.zeros(20)
            e[i] = 1e-6
            fd = (problem.psi.value(x + e) - problem.psi.value(x - e)) / 2e-6
            assert abs(fd - g[i]) <= 1e-5 * (1 + abs(g[i]))


# -- inflated norm estimate stays safe ----------------------------------------------

def test_inflated_norm_estimate_keeps_certificate(rng):
    # overestimating ||K|| by 1% only loosens the schedule: the bound
    # certificate evaluated with the inflated constant still dominates the
    # trajectory
    from nspd import baselines, metrics
    from nspd.linop import estimate_norm

    A = rng.standard_normal((20, 8))
    b = rng.standard_normal(20)
    K = LinearMap.from_dense(A)
    problem = CompositeProblem(prox.l1_norm(8, 0.1), prox.l1_shifted(b), K)
    sigma = estimate_norm(K, tol=1e-14).value
    norm_infl = 1.01 * sigma

    cfg = baselines.BaselineConfig(rho=1.0 / sigma)
    st = baselines.init_cp_state(problem, np.zeros(8), np.zeros(20), cfg.rho,
                                 cfg.resolved_beta(sigma))
    for _ in range(60_000):
        baselines.cp_step(st, problem)
    F_star = problem.primal_value(st.x)
    x_star = st.x.copy()

    sched = GeneralSchedule(c=1.0, gamma=0.5, rho0=1.0, norm_K=norm_infl)
    state = init_state(problem, np.zeros(8), np.zeros(20))
    cert = metrics.certificate_general_primal(
        np.zeros(8), np.zeros(20), x_star, problem.g.lipschitz, 1.0, 0.5,
        norm_infl)
    for k in range(1, 2001):
        step(state, problem, sched)
        resid = problem.primal_value(state.x) - F_star
        assert resid <= cert.bound_at(k) + cert.slack
    tau, rho, beta, eta = sched.at(17)
    assert abs(rho * beta * norm_infl ** 2 - 0.5) <= 1e-15
    assert rho > eta


# -- rho0 resolution -------------------------------------------------------------

def test_resolve_rho0_auto_rule():
    x0, y0 = np.zeros(2), np.zeros(3)
    x_ref = np.array([1.0, 0.0])
    y_ref = np.array([0.0, 2.0, 0.0])
    got = pd_general.resolve_rho0("auto", 0.5, 4.0, x0=x0, y0=y0,
                                  x_ref=x_ref, y_ref=y_ref)
    assert got == pytest.approx(5.0 * 1.0 * 2.0 / (4.0 * 1.0))


def test_resolve_rho0_fallback_without_reference():
    assert pd_general.resolve_rho0("auto", 0.5, 4.0, x0=np.zeros(2),
                                   y0=np.zeros(3)) == pytest.approx(0.25)


def test_resolve_rho0_numeric_passthrough():
    assert pd_general.resolve_rho0(2.5, 0.5, 4.0) == 2.5
