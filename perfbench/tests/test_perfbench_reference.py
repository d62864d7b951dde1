"""The benchmark's independent references and bound formulas."""

import os
import sys
from itertools import combinations

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))
from perfbench import reference as R  # noqa: E402


def vertex_optimum(K, b, lam):
    """min lam ||x||_1 + ||Kx - b||_1 by visiting every intersection of p
    kink hyperplanes {x_i = 0}, {(Kx - b)_j = 0}; an optimum is among them."""
    n, p = K.shape
    planes = np.vstack([np.eye(p), K])
    rhs = np.concatenate([np.zeros(p), b])
    best = np.inf
    for rows in combinations(range(n + p), p):
        A = planes[list(rows)]
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, rhs[list(rows)])
        best = min(best, R.lad_primal(K, b, lam, 0.0, x))
    return best


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lad_lp_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((7, 3))
    b = rng.standard_normal(7)
    ref = R.lad_lp(K, b, 0.3)
    assert ref.F == pytest.approx(vertex_optimum(K, b, 0.3), rel=1e-10)
    # y* is dual feasible and closes the gap
    assert np.max(np.abs(ref.y)) <= 1 + 1e-9
    assert abs(ref.gap) <= 1e-9


@pytest.mark.parametrize("seed", [0, 1])
def test_elastic_dual_is_certified(seed):
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((40, 10))
    x_true = np.zeros(10)
    x_true[:3] = rng.standard_normal(3)
    b = K @ x_true + 0.1 * rng.standard_normal(40) * (rng.random(40) < 0.2)
    ref = R.elastic_dual(K, b, 0.05, 0.1)
    assert 0 <= ref.gap <= 1e-10
    # no nearby point does better
    for _ in range(20):
        x = ref.x + 1e-4 * rng.standard_normal(10)
        assert R.lad_primal(K, b, 0.05, 0.1, x) >= ref.F - 1e-12


def test_bound_constants_match_the_program():
    """The recomputed bound formulas equal the program's certificates."""
    from nspd import metrics

    rng = np.random.default_rng(3)
    x0, xs = rng.standard_normal(5), rng.standard_normal(5)
    y0, ys = rng.standard_normal(4), rng.standard_normal(4)
    M, rho0, gamma, norm_K, mu = 2.0, 0.7, 0.8, 3.0, 0.1
    pairs = [
        (R.bound_general_primal(1, x0, y0, xs, M, rho0, gamma, norm_K),
         metrics.certificate_general_primal(x0, y0, xs, M, rho0, gamma, norm_K)),
        (R.bound_general_fast(1, 2.0, 0.4, x0, y0, xs, ys, M, rho0, gamma, norm_K),
         metrics.certificate_general_fast(2.0, 0.4, x0, y0, xs, ys, M, rho0,
                                          gamma, norm_K)),
        (R.bound_strong_primal(1, x0, y0, xs, M, rho0, gamma, norm_K),
         metrics.certificate_strong_primal(x0, y0, xs, M, rho0, gamma, norm_K)),
        (R.bound_strong_fast(1, 4.0, 0.4, x0, y0, xs, ys, M, rho0, gamma, mu,
                             norm_K),
         metrics.certificate_strong_fast(4.0, 0.4, x0, y0, xs, ys, M, rho0,
                                         gamma, mu, norm_K)),
    ]
    for (C, bound), cert in pairs:
        assert C == pytest.approx(cert.constant, rel=1e-12)
        assert bound == pytest.approx(cert.bound_at(1), rel=1e-12)
