"""Tests for the strongly convex primal-dual method."""

import numpy as np
import pytest

from nspd import pd_general, pd_strong, prox
from nspd.errors import ConfigurationError, InnerSolverError
from nspd.linop import LinearMap
from nspd.pd_strong import (StrongSchedule, init_semistrong_state,
                            init_split_state, init_state, semistrong_step,
                            split_step, step)
from nspd.problems import CompositeProblem, SemiStrongProblem, neg_identity


def elastic_instance(rng, n=50, p=20, lam=0.05, mu=0.1):
    A = rng.standard_normal((n, p))
    b = rng.standard_normal(n)
    return CompositeProblem(prox.elastic_net(p, lam, mu),
                            prox.l1_shifted(b), LinearMap.from_dense(A))


# -- schedule ---------------------------------------------------------------------

def test_gamma_to_big_gamma():
    s = StrongSchedule(1, 0.75, mu_f=1.0, norm_K=1.0)
    assert s.Gamma == pytest.approx(2.0 / 3.0)


def test_case1_first_tau_is_golden_ratio_conjugate():
    s = StrongSchedule(1, 0.75, mu_f=1.0, norm_K=1.0)
    assert s.tau(0) == 1.0
    assert s.tau(1) == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-12)


def test_case1_recursion_identity_to_1e12():
    s = StrongSchedule(1, 0.9, mu_f=0.5, norm_K=2.0)
    for k in range(10_000):
        t, t1 = s.tau(k), s.tau(k + 1)
        assert abs((1 - t1) - t1 ** 2 / t ** 2) <= 1e-12


def test_case1_tau_upper_bound():
    s = StrongSchedule(1, 0.8, mu_f=1.0, norm_K=1.0)
    for k in range(0, 100_000, 997):
        assert s.tau(k) <= 2.0 / (k + 2) + 1e-15


def test_case2_rho0_bound_hand_value():
    s = StrongSchedule(2, 0.75, mu_f=0.1, norm_K=1.0, c=4.0)
    assert s.rho0_bound() == pytest.approx(8.0 / 70.0)
    assert s.rho0 == pytest.approx(8.0 / 70.0)  # default takes the bound


def test_schedule_product_and_eta_invariants():
    for case, kwargs in ((1, {}), (2, {"c": 4.0})):
        s = StrongSchedule(case, 0.75, mu_f=0.3, norm_K=2.5, **kwargs)
        for k in (0, 1, 5, 100, 5000):
            tau, rho, beta, eta = s.at(k)
            assert abs(rho * beta * s.norm_K ** 2 - s.Gamma) <= 1e-15 * s.Gamma
            assert rho > eta
            assert rho == pytest.approx(s.rho0 / tau ** 2, rel=1e-15)


def test_rho0_bound_violation_names_inequality():
    with pytest.raises(ConfigurationError, match="Gamma"):
        StrongSchedule(1, 0.75, mu_f=0.1, norm_K=1.0, rho0=1.0)
    with pytest.raises(ConfigurationError, match="2\\*c-1"):
        StrongSchedule(2, 0.75, mu_f=0.1, norm_K=1.0, rho0=1.0, c=4.0)
    # explicit opt-out used by the oversized-penalty benchmark variant
    s = StrongSchedule(1, 0.75, mu_f=0.1, norm_K=1.0, rho0=1.0,
                       enforce_rho0_bound=False)
    assert s.rho0 == 1.0


def test_schedule_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        StrongSchedule(3, 0.75, mu_f=1.0, norm_K=1.0)
    with pytest.raises(ConfigurationError):
        StrongSchedule(1, 0.4, mu_f=1.0, norm_K=1.0)
    with pytest.raises(ConfigurationError):
        StrongSchedule(2, 0.75, mu_f=1.0, norm_K=1.0, c=2.0)
    with pytest.raises(ConfigurationError):
        StrongSchedule(1, 0.75, mu_f=0.0, norm_K=1.0)


# -- dynamics -----------------------------------------------------------------------

def test_decoupled_quadratic_contracts_to_zero():
    # f = (mu/2)||x||^2, g = 0, K = 0: x_tilde follows a pure prox descent
    p = n = 3
    problem = CompositeProblem(prox.squared_l2(p, 1.0), prox.zero(n),
                               LinearMap.from_dense(np.zeros((n, p))))
    sched = StrongSchedule(1, 0.75, mu_f=1.0, norm_K=1.0)
    state = init_state(problem, np.ones(p), np.zeros(n))
    norms = [np.linalg.norm(state.x_tilde)]
    for _ in range(100):
        step(state, problem, sched)
        norms.append(np.linalg.norm(state.x_tilde))
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert np.linalg.norm(state.x) < 1e-3


def test_init_state_extends_the_general_state(rng):
    problem = elastic_instance(rng)
    x0, y0 = rng.standard_normal(20), rng.standard_normal(50)
    strong = init_state(problem, x0, y0)
    general = pd_general.init_state(problem, x0, y0)
    for name, value in vars(general).items():
        assert np.array_equal(getattr(strong, name), value), name
    assert set(vars(strong)) == set(vars(general)) | {"x_tilde"}
    assert np.array_equal(strong.x_tilde, x0)


@pytest.mark.parametrize("case,c", [(1, None), (2, 4.0), (2, 3.0)])
def test_merged_matches_split_form(rng, case, c):
    problem = elastic_instance(rng)
    x0 = rng.standard_normal(20)
    y0 = rng.standard_normal(50)
    sched = StrongSchedule(case, 0.75, mu_f=0.1, norm_K=problem.K.norm, c=c)
    sm = init_state(problem, x0, y0)
    ss = init_split_state(problem, x0, y0)
    for _ in range(100):
        step(sm, problem, sched)
        split_step(ss, problem, sched)
        assert np.linalg.norm(sm.x - ss.x) <= 1e-9
        assert np.linalg.norm(sm.y_bar - ss.y_bar) <= 1e-9


@pytest.mark.parametrize("case", [1, 2])
def test_cached_products_are_those_of_the_iterates(rng, case):
    problem = elastic_instance(rng)
    sched = StrongSchedule(case, 0.75, mu_f=0.1, norm_K=problem.K.norm)
    state = init_state(problem, rng.standard_normal(20),
                       rng.standard_normal(50))
    for _ in range(50):
        step(state, problem, sched)
        assert np.array_equal(state.K_xhat, problem.K.apply(state.x_hat))
        assert np.array_equal(state.K_x, problem.K.apply(state.x))


def test_split_form_stationary_at_constructed_saddle(rng):
    # f elastic, g = |.|_1 (zero shift), any K: the subgradient conditions
    # 0 in df(0) + K^T 0 and K 0 in dg*(0) make (0, 0) a saddle point
    problem = CompositeProblem(prox.elastic_net(6, 0.2, 0.3),
                               prox.l1_shifted(np.zeros(9)),
                               LinearMap.from_dense(rng.standard_normal((9, 6))))
    sched = StrongSchedule(1, 0.75, mu_f=0.3, norm_K=problem.K.norm)
    state = init_split_state(problem, np.zeros(6), np.zeros(9))
    for _ in range(25):
        split_step(state, problem, sched)
    assert np.linalg.norm(state.x) <= 1e-9
    assert np.linalg.norm(state.y) <= 1e-9


def test_split_residual_free_reduction(rng):
    # when r_{k+1} = K xhat the split gradient collapses to K^T y~
    problem = elastic_instance(rng, 8, 4)
    K = problem.K
    x_hat = rng.standard_normal(4)
    y_tilde = rng.standard_normal(8)
    rho = 2.0
    grad = K.adjoint_apply(y_tilde + rho * (K.apply(x_hat) - K.apply(x_hat)))
    assert np.allclose(grad, K.adjoint_apply(y_tilde))


def test_two_prox_evaluations_are_consistent_for_quadratic(rng):
    # x~ and x proxes act on the same quadratic f at different steps; the
    # closed-form resolvent v/(1 + s*mu) must match both
    f = prox.squared_l2(5, 0.8)
    v = rng.standard_normal(5)
    for s in (0.3, 4.0):
        assert np.allclose(f.prox(v, s), v / (1 + s * 0.8), atol=1e-12)


def test_squared_distance_decays_fast(rng):
    problem = elastic_instance(rng, 40, 16, mu=0.5)
    sched = StrongSchedule(1, 0.9, mu_f=0.5, norm_K=problem.K.norm)
    state = init_state(problem, np.zeros(16), np.zeros(40))
    for _ in range(30_000):
        step(state, problem, sched)
    x_star = state.x.copy()
    state = init_state(problem, np.zeros(16), np.zeros(40))
    ks, dists = [], []
    for k in range(1, 10_001):
        step(state, problem, sched)
        if k >= 100 and k % 20 == 0:
            ks.append(k)
            dists.append(float(np.sum((state.x - x_star) ** 2)))
    from nspd.metrics import rate_slope
    slope = rate_slope(ks, dists, 100, 10_000)
    assert slope <= -1.8


# -- semi-strong constrained scheme ----------------------------------------------------

def semistrong_instance(rng, n=12, p=18, q=12):
    K = LinearMap.from_dense(rng.standard_normal((n, p)))
    B = neg_identity(n)
    x_feas = rng.standard_normal(p)
    w_feas = rng.standard_normal(q)
    b = K.apply(x_feas) + B.apply(w_feas)
    return SemiStrongProblem(prox.elastic_net(p, 0.05, 0.5),
                             prox.l1_norm(q, 1.0), K, B, b)


def test_w_subproblem_closed_form_zero_psi(rng):
    # psi = 0, B = -I, nu0 = 0: minimizer is K xhat - b + y~/rho
    n, p = 6, 9
    K = LinearMap.from_dense(rng.standard_normal((n, p)))
    problem = SemiStrongProblem(prox.elastic_net(p, 0.1, 0.4), prox.zero(n),
                                K, neg_identity(n), rng.standard_normal(n),
                                nu0=0.0)
    sched = StrongSchedule(1, 0.75, mu_f=0.4, norm_K=K.norm)
    state = init_semistrong_state(problem, np.zeros(p), np.zeros(n), np.zeros(n))
    K_xhat = K.apply(state.x_hat)
    expected_w = K_xhat - problem.b + state.y_tilde / sched.at(0)[1]
    semistrong_step(state, problem, sched)
    assert np.allclose(state.w, expected_w, atol=1e-12)


def test_w_subproblem_apg_matches_closed_form(rng):
    n, p, q = 6, 9, 6
    K = LinearMap.from_dense(rng.standard_normal((n, p)))
    b = rng.standard_normal(n)
    f = prox.elastic_net(p, 0.1, 0.4)
    psi = prox.l1_norm(q, 0.3)
    closed = SemiStrongProblem(f, psi, K, neg_identity(n), b, nu0=0.5)
    # an untagged -I: the w-step runs APG on it
    general = SemiStrongProblem(f, psi, K, LinearMap.from_dense(-np.eye(n)), b,
                                nu0=0.5)
    sched = StrongSchedule(1, 0.75, mu_f=0.4, norm_K=K.norm)
    s1 = init_semistrong_state(closed, np.zeros(p), np.zeros(q), np.zeros(n))
    s2 = init_semistrong_state(general, np.zeros(p), np.zeros(q), np.zeros(n))
    for _ in range(20):
        semistrong_step(s1, closed, sched)
        semistrong_step(s2, general, sched)
    assert np.linalg.norm(s1.w - s2.w) <= 1e-7
    assert np.linalg.norm(s1.x - s2.x) <= 1e-7


def test_w_subproblem_apg_matches_a_linear_solve(rng, monkeypatch):
    # psi = (m/2)||w||^2 and a dense B with fewer rows than columns: the
    # w-subproblem's minimizer solves
    #   ((m + nu0) I + rho B^T B) w = nu0 w^ - B^T y~ - rho B^T (K x^ - b).
    # A small K allows a large rho0, so the subproblem is ill-conditioned
    # (L/mu ~ 130) and APG runs thousands of momentum steps, where B = -I
    # lands on the minimizer in one.
    n, p, q, m, nu0 = 4, 9, 7, 0.1, 0.0
    K = LinearMap.from_dense(0.1 * rng.standard_normal((n, p)))
    Bm = rng.standard_normal((n, q))
    b = rng.standard_normal(n)
    problem = SemiStrongProblem(prox.elastic_net(p, 0.1, 0.4),
                                prox.squared_l2(q, m), K,
                                LinearMap.from_dense(Bm), b, nu0=nu0)
    sched = StrongSchedule(1, 0.75, mu_f=0.4, norm_K=K.norm)
    x0, w0, y0 = (rng.standard_normal(p), rng.standard_normal(q),
                  rng.standard_normal(n))
    rho = sched.at(0)[1]
    A = (m + nu0) * np.eye(q) + rho * Bm.T @ Bm
    rhs = nu0 * w0 - Bm.T @ y0 - rho * Bm.T @ (K.apply(x0) - b)
    w_star = np.linalg.solve(A, rhs)
    state = init_semistrong_state(problem, x0, w0, y0)
    monkeypatch.setattr(prox, "APG_TOL", 1e-12)
    monkeypatch.setattr(prox, "APG_MAX_STEPS", 20_000)
    semistrong_step(state, problem, sched)
    assert np.linalg.norm(state.w - w_star) <= 1e-9 * np.linalg.norm(w_star)


def test_semistrong_step_reuses_the_residual(rng):
    problem = semistrong_instance(rng)
    K = problem.K
    calls = {"fwd": 0, "adj": 0}

    def counted(name, fn):
        def call(v):
            calls[name] += 1
            return fn(v)
        return call

    counting = LinearMap(K.rows, K.cols, counted("fwd", K.apply),
                         counted("adj", K.adjoint_apply),
                         norm_estimate=K.norm)
    problem = SemiStrongProblem(problem.f, problem.psi, counting, problem.B,
                                problem.b)
    sched = StrongSchedule(1, 0.75, mu_f=problem.f.mu, norm_K=K.norm)
    state = init_semistrong_state(problem, np.zeros(18), np.zeros(12),
                                  np.zeros(12))
    calls.update(fwd=0, adj=0)
    for _ in range(10):
        semistrong_step(state, problem, sched)
        # the carried residual is the one a fresh evaluation gives
        assert np.array_equal(state.resid,
                              K.apply(state.x) + problem.B.apply(state.w)
                              - problem.b)
    assert calls == {"fwd": 20, "adj": 10}  # K x^ and K x_{k+1} per step


def test_w_subproblem_apg_that_runs_out_of_steps_raises(rng, monkeypatch):
    K = LinearMap.from_dense(rng.standard_normal((4, 5)))
    B = LinearMap.from_dense(rng.standard_normal((4, 3)))
    general = SemiStrongProblem(prox.elastic_net(5, 0.1, 0.2),
                                prox.zero(3), K, B, rng.standard_normal(4))
    sched = StrongSchedule(1, 0.75, mu_f=0.2, norm_K=K.norm)
    state = init_semistrong_state(general, np.zeros(5), np.zeros(3),
                                  np.zeros(4))
    monkeypatch.setattr(prox, "APG_MAX_STEPS", 1)
    with pytest.raises(InnerSolverError, match="w-subproblem APG"):
        semistrong_step(state, general, sched)


def test_semistrong_feasible_saddle_is_nearly_fixed(rng):
    # psi = 0, b = 0, zero start: the origin is a saddle point
    n, p = 5, 7
    K = LinearMap.from_dense(rng.standard_normal((n, p)))
    problem = SemiStrongProblem(prox.elastic_net(p, 0.1, 0.4), prox.zero(n),
                                K, neg_identity(n), np.zeros(n))
    sched = StrongSchedule(1, 0.75, mu_f=0.4, norm_K=K.norm)
    state = init_semistrong_state(problem, np.zeros(p), np.zeros(n), np.zeros(n))
    for _ in range(50):
        semistrong_step(state, problem, sched)
    assert np.linalg.norm(state.x) <= 1e-9
    assert np.linalg.norm(problem.K.apply(state.x) + problem.B.apply(state.w)
                          - problem.b) <= 1e-9


def test_semistrong_feasibility_decays_like_k2(rng):
    problem = semistrong_instance(rng)
    sched = StrongSchedule(1, 0.75, mu_f=problem.f.mu, norm_K=problem.K.norm)
    state = init_semistrong_state(problem, np.zeros(18), np.zeros(12),
                                  np.zeros(12))
    ks, feas = [], []
    for k in range(1, 5001):
        semistrong_step(state, problem, sched)
        if k >= 50 and k % 10 == 0:
            ks.append(k)
            feas.append(np.linalg.norm(problem.K.apply(state.x)
                                       + problem.B.apply(state.w) - problem.b))
    from nspd.metrics import rate_slope
    assert rate_slope(ks, feas, 50, 5000) <= -1.8


def test_nu0_defaults():
    rng = np.random.default_rng(0)
    prob = semistrong_instance(rng)
    assert prob.resolved_nu0() == 0.0
    K = LinearMap.from_dense(rng.standard_normal((4, 5)))
    B = LinearMap.from_dense(rng.standard_normal((4, 3)))
    general = SemiStrongProblem(prox.elastic_net(5, 0.1, 0.2),
                                prox.l1_norm(3, 0.1), K, B, np.zeros(4))
    assert general.resolved_nu0() == 1.0
