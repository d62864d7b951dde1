"""Independent references and evaluators for the benchmark's checks.

Nothing here imports nspd.  The optima come from solvers that share no code
with the program: HiGHS (through ``scipy.optimize.linprog``) for the
l1-regression LP and L-BFGS-B on the box-constrained smooth dual of the
elastic-net variant.  Objective values are recomputed in numpy from the
benchmark's own copy of K and b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize


@dataclass
class Reference:
    F: float          # optimal primal value
    x: np.ndarray     # an optimal primal point
    y: np.ndarray     # an optimal dual point (saddle point of f + <Kx,y> - g*)
    gap: float        # F(x) + G(y) at the returned pair


# -- objective values ----------------------------------------------------------

def lad_primal(K, b, lam, mu, x):
    """lam ||x||_1 + (mu/2) ||x||^2 + ||Kx - b||_1."""
    return float(lam * np.abs(x).sum() + 0.5 * mu * (x @ x)
                 + np.abs(K @ x - b).sum())


def lad_dual(K, b, lam, mu, y):
    """G(y) = f*(-K^T y) + g*(y); +inf outside the dual domain.

    g*(y) = b^T y on the unit l-inf ball.  f* is the indicator of the
    lam l-inf ball when mu = 0, else ||max(|s| - lam, 0)||^2 / (2 mu).
    The 1e-9 membership slack matches the rounding of a box projection.
    """
    if np.max(np.abs(y)) > 1.0 + 1e-9:
        return float("inf")
    s = -(K.T @ y)
    if mu == 0.0:
        if np.max(np.abs(s)) > lam * (1.0 + 1e-9) + 1e-9:
            return float("inf")
        fstar = 0.0
    else:
        t = np.maximum(np.abs(s) - lam, 0.0)
        fstar = float(t @ t) / (2.0 * mu)
    return float(fstar + b @ y)


def game_gap(K, x, y):
    """max_i (Kx)_i - min_j (K^T y)_j."""
    return float(np.max(K @ x) - np.min(K.T @ y))


# -- optima ----------------------------------------------------------------------

def lad_lp(K, b, lam) -> Reference:
    """min lam ||x||_1 + ||Kx - b||_1 as an LP solved by HiGHS.

    Variables [u, v, s, t] >= 0 with x = u - v and Kx - b = s - t.  The
    equality marginals lambda satisfy F* = b^T lambda, so y* = -lambda makes
    G(y*) = b^T y* = -F*.
    """
    n, p = K.shape
    c = np.concatenate([np.full(2 * p, lam), np.ones(2 * n)])
    A = np.hstack([K, -K, -np.eye(n), np.eye(n)])
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the LAD LP: {res.message}")
    x = res.x[:p] - res.x[p:2 * p]
    y = -np.asarray(res.eqlin.marginals, dtype=float)
    F = lad_primal(K, b, lam, 0.0, x)
    return Reference(F, x, y, F + lad_dual(K, b, lam, 0.0, y))


def elastic_dual(K, b, lam, mu) -> Reference:
    """Elastic-net l1 regression through its smooth dual.

    min_y f*(-K^T y) + b^T y subject to ||y||_inf <= 1 by L-BFGS-B; the
    primal point is x* = grad f*(-K^T y*) = soft(-K^T y*, lam) / mu.  The
    dual is degenerate (most rows fit exactly), so L-BFGS-B alone stalls at
    a gap of 1e-8..1e-5; each pass is followed by a KKT polish (see
    :func:`_kkt_polish`) and restarted until the duality gap certifies the
    pair to 1e-11 relative.
    """
    if mu <= 0:
        raise ValueError("the smooth dual needs mu > 0")
    n, _ = K.shape

    def fun(y):
        s = -(K.T @ y)
        t = np.maximum(np.abs(s) - lam, 0.0)
        return float(t @ t) / (2.0 * mu) + float(b @ y), b - K @ (np.sign(s) * t / mu)

    def pair(x, y):
        F = lad_primal(K, b, lam, mu, x)
        return Reference(F, x, y, F + lad_dual(K, b, lam, mu, y))

    y = np.zeros(n)
    best = None
    for _ in range(4):
        res = minimize(fun, y, jac=True, method="L-BFGS-B",
                       bounds=[(-1.0, 1.0)] * n,
                       options={"ftol": 0.0, "gtol": 0.0, "maxiter": 5000,
                                "maxcor": 20, "maxls": 50})
        y = res.x
        s = -(K.T @ y)
        x = np.sign(s) * np.maximum(np.abs(s) - lam, 0.0) / mu
        cands = [pair(x, y)]
        for tau in (1e-4, 1e-6, 1e-8):
            polished = _kkt_polish(K, b, lam, mu, x, tau)
            if polished is not None:
                cands.append(pair(*polished))
        for c in cands:
            if best is None or c.gap < best.gap:
                best = c
        if best.gap <= 1e-11 * (1.0 + abs(best.F)):
            break
    return best


def _kkt_polish(K, b, lam, mu, x, tau):
    """Exact KKT point on the support and sign pattern of an approximate x.

    With A the support of x (signs sA), Z the rows whose residual is within
    ``tau`` of zero and N the rest (signs sN), optimality is linear in
    (x_A, y_Z): K_ZA x_A = b_Z, mu x_A + lam sA + K_A^T y = 0 with y_N = sN,
    |y_Z| <= 1, |K_j^T y| <= lam off the support, and the sign patterns
    kept.  HiGHS finds a feasible point; None when the pattern is wrong.
    """
    n, p = K.shape
    A = x != 0
    sA = np.sign(x[A])
    r = K @ x - b
    Z = np.abs(r) <= tau
    N = ~Z
    sN = np.sign(r[N])
    nA, nZ, nO = int(A.sum()), int(Z.sum()), int((~A).sum())
    KZA, KNA = K[np.ix_(Z, A)], K[np.ix_(N, A)]
    KZO = K[np.ix_(Z, ~A)]
    cO = K[np.ix_(N, ~A)].T @ sN
    A_eq = np.block([[KZA, np.zeros((nZ, nZ))], [mu * np.eye(nA), KZA.T]])
    b_eq = np.concatenate([b[Z], -lam * sA - KNA.T @ sN])
    A_ub = np.vstack([np.hstack([np.zeros((nO, nA)), KZO.T]),
                      np.hstack([np.zeros((nO, nA)), -KZO.T]),
                      np.hstack([-np.diag(sA), np.zeros((nA, nZ))]),
                      np.hstack([-sN[:, None] * KNA, np.zeros((n - nZ, nZ))])])
    b_ub = np.concatenate([lam - cO, lam + cO, np.zeros(nA), -sN * b[N]])
    res = linprog(np.zeros(nA + nZ), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                  b_eq=b_eq, bounds=[(None, None)] * nA + [(-1.0, 1.0)] * nZ,
                  method="highs")
    if res.status != 0:
        return None
    xp = np.zeros(p)
    xp[A] = res.x[:nA]
    yp = np.empty(n)
    yp[N] = sN
    yp[Z] = res.x[nA:]
    return xp, yp


# -- bound constants (the program's certificate formulas, recomputed) ----------

def _sq(v):
    return float(np.dot(v, v))


def bound_general_primal(k, x0, y0, x_star, M_g, rho0, gamma, norm_K):
    """c = 1: F(x_k) - F* <= C / (2k)."""
    C = (rho0 * norm_K ** 2 * _sq(x0 - x_star) / gamma
         + (np.linalg.norm(y0) + M_g) ** 2 / ((1.0 - gamma) * rho0))
    return C, C / (2.0 * np.asarray(k, dtype=float))


def bound_general_fast(k, c, F0_gap, x0, y0, x_star, y_star, M_g, rho0,
                       gamma, norm_K):
    """c > 1: F(x_k) - F* <= R1^2 / (k + c - 1)."""
    R0sq = ((c - 1.0) * max(F0_gap, 0.0)
            + 0.5 * c * (rho0 * norm_K ** 2 * _sq(x0 - x_star) / gamma
                         + _sq(y0 - y_star) / ((1.0 - gamma) * rho0)))
    R0 = np.sqrt(R0sq)
    C = R0sq + np.sqrt(2.0 * c / rho0) * (np.linalg.norm(y_star) + M_g) * R0
    return C, C / (np.asarray(k, dtype=float) + c - 1.0)


def bound_strong_primal(k, x0, y0, x_star, M_g, rho0, gamma, norm_K):
    """Case 1: F(x_k) - F* <= 2 C / (k + 1)^2."""
    Gamma = 2.0 - 1.0 / gamma
    C = (rho0 * norm_K ** 2 * _sq(x0 - x_star) / Gamma
         + (np.linalg.norm(y0) + M_g) ** 2 / ((1.0 - gamma) * rho0))
    return C, 2.0 * C / (np.asarray(k, dtype=float) + 1.0) ** 2


def bound_strong_fast(k, c, F0_gap, x0, y0, x_star, y_star, M_g, rho0,
                      gamma, mu, norm_K):
    """Case 2: F(x_k) - F* <= R1^2 / (k + c - 1)^2."""
    Gamma = 2.0 - 1.0 / gamma
    R0sq = ((c - 1.0) * max(F0_gap, 0.0)
            + 0.5 * (c - 1.0) * ((c - 1.0) * rho0 * norm_K ** 2 / Gamma
                                 + c * mu) * _sq(x0 - x_star)
            + c ** 2 * _sq(y0 - y_star) / (2.0 * (1.0 - gamma) * rho0))
    R0 = np.sqrt(R0sq)
    C = R0sq + np.sqrt(2.0 * c ** 2 / rho0) * (np.linalg.norm(y_star) + M_g) * R0
    return C, C / (np.asarray(k, dtype=float) + c - 1.0) ** 2


def bound_game_gap(k, n, p, rho0, gamma, norm_K):
    """c = 1 on the simplex pair from the uniform start: gap <= C / (2k),
    with the supremum of ||x0 - x||^2 over the simplex, 1 - 1/p."""
    C = (rho0 * norm_K ** 2 * (1.0 - 1.0 / p) / gamma
         + (1.0 - 1.0 / n) / ((1.0 - gamma) * rho0))
    return C, C / (2.0 * np.asarray(k, dtype=float))


def cert_slack(C):
    """Additive slack of the program's certificate checks, 1e-6 (1 + C)."""
    return 1e-6 * (1.0 + C)
