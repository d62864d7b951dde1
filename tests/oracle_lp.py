"""Independent checks of small optima: brute-force vertex enumeration of
piecewise-linear fits, and the matrix-game gap of a simplex pair.

The objective lam ||x||_1 + ||Kx - b||_1 is polyhedral: an optimum exists at
a point where p of the kink hyperplanes {x_i = 0} and {(Kx - b)_j = 0}
intersect.  Enumerating all p-subsets of the n + p hyperplanes and solving
the corresponding linear systems visits every such vertex; the best finite
candidate is the optimum.  Only usable for tiny p.
"""

from itertools import combinations

import numpy as np

from nspd.errors import UnsupportedMetricError


def lad_optimum_by_vertex_enumeration(K, b, lam):
    K = np.asarray(K, dtype=float)
    b = np.asarray(b, dtype=float)
    n, p = K.shape
    rows = np.vstack([np.eye(p), K])
    rhs = np.concatenate([np.zeros(p), b])

    def objective(x):
        return lam * np.sum(np.abs(x)) + np.sum(np.abs(K @ x - b))

    best_val = objective(np.zeros(p))
    best_x = np.zeros(p)
    for idx in combinations(range(n + p), p):
        A = rows[list(idx)]
        try:
            x = np.linalg.solve(A, rhs[list(idx)])
        except np.linalg.LinAlgError:
            continue
        val = objective(x)
        if val < best_val:
            best_val, best_x = val, x
    return best_val, best_x


def game_gap(game, x, y, tol: float = 1e-9) -> float:
    """max_i (Kx)_i - min_j (K^T y)_j for simplex-feasible x, y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for v, d, name in ((x, game.p, "x"), (y, game.n, "y")):
        if v.shape != (d,):
            raise UnsupportedMetricError(f"{name} has wrong dimension")
        if abs(float(np.sum(v)) - 1.0) > tol or float(np.min(v)) < -tol:
            raise UnsupportedMetricError(
                f"{name} is not on the simplex within tolerance {tol}")
    return float(np.max(game.K.apply(x)) - np.min(game.K.adjoint_apply(y)))
