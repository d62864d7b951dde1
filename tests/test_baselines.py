"""Tests for the comparison solvers."""

import numpy as np
import pytest

from nspd import metrics, prox
from nspd.baselines import (BaselineConfig, admm_step, cp_scvx_step, cp_step,
                            init_admm_state, init_cp_state, smoothing_iterations,
                            smoothing_mu, smoothing_solve, solve_admm, solve_cp,
                            solve_cp_scvx)
from nspd.errors import ConfigurationError, InnerSolverError
from nspd.linop import LinearMap
from nspd.problems import CompositeProblem, MatrixGame
from oracle_lp import game_gap


def lad_instance(rng, n=30, p=12, lam=0.1, mu=0.0):
    A = rng.standard_normal((n, p))
    b = rng.standard_normal(n)
    f = prox.l1_norm(p, lam) if mu == 0 else prox.elastic_net(p, lam, mu)
    return CompositeProblem(f, prox.l1_shifted(b), LinearMap.from_dense(A))


def small_game(rng, n=8, p=10):
    K = rng.uniform(-1, 1, size=(n, p))
    op = LinearMap.from_dense(K / np.linalg.svd(K, compute_uv=False)[0])
    return MatrixGame(op)


def test_step_size_invariant_enforced():
    cfg = BaselineConfig(rho=2.0, beta=2.0)
    with pytest.raises(ConfigurationError):
        cfg.resolved_beta(norm_K=1.0)
    assert BaselineConfig(rho=2.0).resolved_beta(2.0) == pytest.approx(1 / 8)


def test_unknown_output_mode_is_refused():
    # a misspelt mode used to run the last-iterate output without a word
    with pytest.raises(ConfigurationError, match="'ergodc'"):
        BaselineConfig(output_mode="ergodc")


def test_cp_zero_instance_stationary():
    p = n = 2
    problem = CompositeProblem(prox.zero(p), prox.zero(n),
                               LinearMap.from_dense(np.zeros((n, p))))
    state = init_cp_state(problem, np.ones(p), np.zeros(n), 1.0, 1.0)
    for _ in range(4):
        cp_step(state, problem)
    assert np.array_equal(state.x, np.ones(p))
    assert np.array_equal(state.y, np.zeros(n))


def test_cp_fixed_at_saddle_point():
    # f = 0, g = |.|, K = I: (0, 0) is a saddle point
    p = 2
    problem = CompositeProblem(prox.zero(p), prox.l1_shifted(np.zeros(p)),
                               LinearMap.from_dense(np.eye(p)))
    state = init_cp_state(problem, np.zeros(p), np.zeros(p), 0.9, 0.9)
    for _ in range(6):
        cp_step(state, problem)
    assert np.array_equal(state.x, np.zeros(p))
    assert np.array_equal(state.y, np.zeros(p))


def test_cp_scvx_degenerates_to_cp_for_tiny_mu(rng):
    problem = lad_instance(rng, mu=1e-14)
    x0, y0 = np.zeros(12), np.zeros(30)
    rho = 1.0 / problem.K.norm
    beta = 1.0 / (rho * problem.K.norm ** 2)
    s1 = init_cp_state(problem, x0, y0, rho, beta)
    s2 = init_cp_state(problem, x0, y0, rho, beta)
    plain = lad_instance(rng, mu=0.0)
    for _ in range(20):
        cp_scvx_step(s1, problem, 1e-14)
        cp_step(s2, problem)
    assert np.linalg.norm(s1.x - s2.x) <= 1e-8


def test_cp_scvx_with_zero_mu_is_cp_bit_for_bit(rng):
    # theta = 1/sqrt(1 + 0) is 1.0 exactly, so both steps are one update
    problem = lad_instance(rng)
    rho = 1.0 / problem.K.norm
    beta = 1.0 / (rho * problem.K.norm ** 2)
    s1, s2 = (init_cp_state(problem, np.zeros(12), np.zeros(30), rho, beta)
              for _ in range(2))
    for _ in range(50):
        cp_scvx_step(s1, problem, 0.0)
        cp_step(s2, problem)
    for name in ("x", "x_bar", "y", "x_erg", "y_erg", "rho", "beta"):
        assert np.array_equal(getattr(s1, name), getattr(s2, name)), name


def test_cp_scvx_refuses_an_f_that_is_not_strongly_convex(rng):
    # the modulus is read from f, so an l1 f (mu = 0) cannot be run
    with pytest.raises(ConfigurationError, match="f.mu > 0"):
        solve_cp_scvx(lad_instance(rng), np.zeros(12), np.zeros(30),
                      BaselineConfig())


def test_cp_scvx_step_product_invariant(rng):
    problem = lad_instance(rng, mu=0.5)
    state = init_cp_state(problem, np.zeros(12), np.zeros(30), 0.5, 0.1)
    prod = state.rho * state.beta
    for _ in range(25):
        cp_scvx_step(state, problem, 0.5)
        assert state.rho * state.beta == pytest.approx(prod, rel=1e-12)


@pytest.mark.parametrize("make_K", [
    lambda: LinearMap.from_dense(2.0 * np.eye(3)),
    lambda: LinearMap(3, 3, lambda x: 2.0 * x, lambda y: 2.0 * y),
], ids=["dense", "custom"])
def test_admm_on_scaled_identity_reaches_optimum(make_K):
    # 0.1||x||_1 + ||2x - b||_1 is minimized at x = b/2; an x-step that
    # treated K = 2I as the identity would stall at F = 1.31
    b = np.array([1.0, -2.0, 0.5])
    problem = CompositeProblem(prox.l1_norm(3, 0.1), prox.l1_shifted(b),
                               make_K())
    cfg = BaselineConfig(rho=1.0, max_iters=300)
    state = solve_admm(problem, np.zeros(3), np.zeros(3), cfg)
    F_star = problem.primal_value(b / 2)
    assert F_star == pytest.approx(0.175, rel=1e-12)
    assert problem.primal_value(state.x) <= F_star + 1e-9


def test_admm_zero_instance_stationary():
    p = 2
    problem = CompositeProblem(prox.zero(p), prox.zero(p),
                               LinearMap.from_dense(np.zeros((p, p))))
    cfg = BaselineConfig(rho=1.0)
    state = init_admm_state(problem, np.ones(p), np.zeros(p), cfg.rho)
    for _ in range(3):
        admm_step(state, problem, cfg)
    assert np.array_equal(state.x, np.ones(p))


def test_admm_x_step_that_runs_out_of_steps_raises(rng, monkeypatch):
    monkeypatch.setattr(prox, "APG_MAX_STEPS", 1)
    cfg = BaselineConfig(rho=1.0, max_iters=5)
    with pytest.raises(InnerSolverError, match="ADMM x-subproblem"):
        solve_admm(lad_instance(rng), np.zeros(12), np.zeros(30), cfg)


def test_admm_feasibility_residual_shrinks(rng):
    problem = lad_instance(rng)
    cfg = BaselineConfig(rho=1.0, max_iters=2000)
    state = solve_admm(problem, np.zeros(12), np.zeros(30), cfg)
    first = np.linalg.norm(problem.K.apply(np.zeros(12)) -
                           problem.K.apply(np.zeros(12)))
    final = np.linalg.norm(problem.K.apply(state.x) - state.r)
    start_res = np.linalg.norm(problem.g.shift)  # r0 = Kx0 = 0, b-sized scale
    assert final < max(start_res, 1.0) / 100


def test_baselines_share_trace_format(rng):
    problem = lad_instance(rng)
    traces = []
    for solver in (solve_cp, solve_admm):
        trace = metrics.Trace()
        rec = metrics.composite_recorder(problem, trace)
        cfg = BaselineConfig(rho=1.0 / problem.K.norm, max_iters=40)
        solver(problem, np.zeros(12), np.zeros(30), cfg, recorder=rec)
        traces.append(trace)
    assert traces[0].k == traces[1].k
    for tr in traces:
        assert len(tr.F) == len(tr.k)


# -- smoothed game baseline ---------------------------------------------------------

def test_smoothing_iteration_counts_match_closed_form():
    assert smoothing_iterations(1e-3, 1000, 2000, 1.0) == 3997
    assert smoothing_iterations(1e-4, 1000, 2000, 1.0) == 39970


def test_smoothing_mu_hand_value():
    assert smoothing_mu(1e-3, 1000) == pytest.approx(1e-3 / (2 * 0.999))


def test_smoothing_gradient_matches_finite_differences(rng):
    game = small_game(rng)
    n, p = game.n, game.p
    mu = 0.05
    y_c = np.full(n, 1.0 / n)

    def F_mu(x):
        y = prox.project_simplex(y_c + game.K.apply(x) / mu)
        return float(game.K.apply(x) @ y - 0.5 * mu * np.sum((y - y_c) ** 2))

    def grad(x):
        y = prox.project_simplex(y_c + game.K.apply(x) / mu)
        return game.K.adjoint_apply(y)

    for _ in range(20):
        x = rng.dirichlet(np.ones(p))
        g = grad(x)
        h = 1e-6
        for i in rng.choice(p, size=3, replace=False):
            e = np.zeros(p)
            e[i] = h
            fd = (F_mu(x + e) - F_mu(x - e)) / (2 * h)
            assert abs(fd - g[i]) <= 1e-5 * (1 + abs(g[i]))


def test_smoothing_reduces_game_gap(rng):
    game = small_game(rng)
    x, y, k_max, mu = smoothing_solve(game, epsilon=1e-2)
    gap = game_gap(game, x, y)
    assert gap >= -1e-9
    assert gap <= 1e-2  # the accuracy the iteration count was sized for


def test_smoothing_mu_scaling(rng):
    game = small_game(rng)
    _, _, k1, mu1 = smoothing_solve(game, 1e-2, mu_scale=1.0)
    _, _, k5, mu5 = smoothing_solve(game, 1e-2, mu_scale=5.0)
    assert mu5 == pytest.approx(5 * mu1)
    # the iteration count is epsilon's, whatever the smoothing
    assert k1 == k5 == smoothing_iterations(1e-2, game.n, game.p, game.K.norm)
