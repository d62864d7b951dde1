"""Objective/gap evaluators, worst-case bound certificates, the empirical
rate-slope estimator, and the reference oracle: an exact solve for each
(f, g) pair it knows, certified by its duality gap split into two
Fenchel-Young terms.

A :class:`Certificate` packages an evaluated bound constant together with
the decay shape it multiplies (1/(2k), 1/(k+c-1), 2/(k+1)^2, 1/(k+c-1)^2).
Checking a certificate against a trace uses the additive slack
1e-6 (1 + constant), which absorbs the substitution of a numerical
reference point for the exact optimum; no certificate is reported as exact
unless its reference source is exact.

A recorder is called by the solver driver (:mod:`nspd.driver`) as
``recorder(k, x, y, t, **products)`` and appends one :class:`Trace` row.
The products are what the solver state already holds: ``Kx`` (K x) and
``Kty`` (K^T y, kept as a running average alongside the averaged dual
iterate) from the merged methods, ``Kx`` from the equality-constrained
one, and ``w`` with ``resid`` (K x + B w - b) from the semi-strong scheme;
the baselines hand over none.  A recorder accepts every product keyword,
uses those it can, computes one it needs but was not given, and returns
nothing.  F, G and the gap are defined once, in :func:`composite_recorder`
(the game's too), and ``feas`` once, in the two constrained recorders.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import prox
from .errors import (CertificateUnavailableError, OracleFailureError,
                     UnsupportedMetricError)
from .problems import CompositeProblem, EqConstrainedProblem, MatrixGame

__all__ = [
    "Trace",
    "dual_value",
    "Certificate",
    "certificate_general_primal",
    "certificate_general_fast",
    "certificate_game_gap",
    "certificate_strong_primal",
    "certificate_strong_fast",
    "certificate_constrained",
    "certificate_semistrong",
    "rate_slope",
    "trace_slope",
    "ReferenceSolution",
    "reference_solution",
    "composite_recorder",
    "constrained_recorder",
    "semistrong_recorder",
    "game_recorder",
]

CERT_SLACK = 1e-6  # slack factor: 1e-6 * (1 + constant)
AGREE_TOL = RESIDUAL_TOL = 1e-8  # the oracle's gates; never loosened


# -- traces -------------------------------------------------------------------

CSV_HEADER = ["k", "F", "G", "gap", "feas", "time_s"]
_CSV_ROW = "{},{!r},{!r},{!r},{!r},{!r}\r\n"


class Trace:
    """Per-iteration metric records with CSV persistence.

    Columns: k, primal value F, dual value G (inf when dual infeasible,
    nan when no closed form), gap (the duality gap F + G: +inf when G is,
    nan when G is or the run records none), feasibility residual (nan for
    unconstrained runs), wall time.
    """

    def __init__(self):
        self.k: list[int] = []
        self.F: list[float] = []
        self.G: list[float] = []
        self.gap: list[float] = []
        self.feas: list[float] = []
        self.time_s: list[float] = []

    def append(self, k, F, G=float("nan"), gap=float("nan"),
               feas=float("nan"), time_s=0.0):
        if self.k and k <= self.k[-1]:
            raise ValueError("trace records must have strictly increasing k")
        self.k.append(int(k))
        self.F.append(float(F))
        self.G.append(float(G))
        self.gap.append(float(gap))
        self.feas.append(float(feas))
        self.time_s.append(float(time_s))

    def __len__(self):
        return len(self.k)

    def column(self, name):
        return np.asarray(getattr(self, name), dtype=float)

    def to_csv(self, path):
        """Write the header and one row per record, floats in ``repr``;
        the bytes are those of ``csv.writer`` (comma, CRLF), which no
        ``repr`` of a float needs to quote."""
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\r\n" + "".join(map(
                _CSV_ROW.format, self.k, self.F, self.G, self.gap, self.feas,
                self.time_s)))

    @classmethod
    def from_csv(cls, path):
        """Read a trace :meth:`to_csv` wrote; a file without the header, or
        with a row that is not six numbers with k increasing, is a
        ValueError naming its line."""
        tr = cls()
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            try:
                header = next(r, None)
                if header != CSV_HEADER:
                    raise ValueError(f"unexpected trace header {header}")
                for row in r:
                    if len(row) != len(CSV_HEADER):
                        raise ValueError(f"{len(row)} fields, expected "
                                         f"{len(CSV_HEADER)}")
                    tr.append(int(row[0]), *map(float, row[1:]))
            except (ValueError, csv.Error) as exc:
                raise ValueError(f"{path}, line {r.line_num}: {exc}") from None
        return tr


# -- evaluators ----------------------------------------------------------------

def dual_value(problem: CompositeProblem, y, Kty=None) -> float:
    """G(y) = f*(-K^T y) + g*(y); +inf when an indicator is violated.

    ``Kty``, when given, is K^T y: then f* is tested first, and a +inf
    spares g*; without it g* is tested first, and a +inf spares the product.
    """
    f, g, K = problem.f, problem.g, problem.K
    if f.conjugate_value is None or g.conjugate_value is None:
        raise UnsupportedMetricError(
            "dual value needs closed-form conjugates for f and g")
    if Kty is not None:
        fv = f.conjugate_value(-Kty)
        return (float(fv + g.conjugate_value(y)) if math.isfinite(fv)
                else math.inf)
    gv = g.conjugate_value(y)
    if not np.isfinite(gv):
        return float("inf")
    fv = f.conjugate_value(-K.adjoint_apply(np.asarray(y, dtype=float)))
    return float(fv + gv)


# -- recorders -----------------------------------------------------------------

def composite_recorder(problem: CompositeProblem, trace: Trace):
    """Record F, G and the duality gap F + G for a composite run.

    The gap is +inf when G is (y outside dom g*, or -K^T y outside dom f*),
    and nan when f or g has no closed-form conjugate.
    """
    f, g, K = problem.f, problem.g, problem.K
    have_conj = (f.conjugate_value is not None
                 and g.conjugate_value is not None)

    def record(k, x, y, t, Kx=None, Kty=None, **_):
        if Kx is None:
            Kx = K.apply(x)
        F = f.value(x) + g.value(Kx)
        G = gap = math.nan
        if have_conj:
            G = dual_value(problem, y, Kty)
            gap = F + G
        trace.append(k, F, G, gap, math.nan, t)

    return record


_composite_recorder = composite_recorder  # kept when the attribute is rebound


def constrained_recorder(problem, trace: Trace):
    """Record the objective f + psi and the feasibility residual ||Kx - b||."""

    def record(k, x, y, t, Kx=None, **_):
        Kx = problem.K.apply(x) if Kx is None else Kx
        trace.append(k, problem.objective(x), math.nan, math.nan,
                     float(np.linalg.norm(Kx - problem.b)), t)

    return record


def semistrong_recorder(problem, trace: Trace):
    """Record f(x) + psi(w) and ||Kx + Bw - b||."""

    def record(k, x, y, t, w=None, resid=None, **_):
        if resid is None:
            resid = problem.K.apply(x) + problem.B.apply(w) - problem.b
        trace.append(k, problem.objective(x, w), math.nan, math.nan,
                     float(np.linalg.norm(resid)), t)

    return record


def game_recorder(game: MatrixGame, trace: Trace):
    """Record F = max(Kx), G = -min(K^T y) and the gap F + G by the composite
    formulas on ``game.to_composite()``, fed fresh products: one K and one
    K^T product a record, as ``perfbench/tests/test_perfbench_trace.py``
    pins.  They are reached by the private name, which stays put when the
    traced benchmark wraps ``composite_recorder`` (nesting would count a
    record twice)."""
    record = _composite_recorder(game.to_composite(), trace)
    return lambda k, x, y, t, **_: record(k, x, y, t)


# -- bound certificates ----------------------------------------------------------

@dataclass
class Certificate:
    """An evaluated bound constant with its decay shape.

    ``bound_at(k)`` returns constant * shape(k); a trace check asserts
    metric(k) <= bound_at(k) + slack for every traced k >= 1.
    """

    name: str
    constant: float
    rate_exponent: int
    shape: Callable[[int], float]
    shape_label: str
    reference_source: str = "numerical"
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.constant < 0:
            raise CertificateUnavailableError(
                f"certificate {self.name} has negative constant {self.constant}")

    @property
    def slack(self) -> float:
        return CERT_SLACK * (1.0 + self.constant)

    def bound_at(self, k: int) -> float:
        return self.constant * self.shape(k)

    def check(self, ks, values):
        """Return (holds, worst_margin, worst_k); margin = value - bound -
        slack.  It does not hold when no record with k >= 1 and a finite
        value was checked."""
        worst = -np.inf
        worst_k = None
        for k, v in zip(ks, values):
            if k < 1 or not np.isfinite(v):
                continue
            m = v - self.bound_at(int(k)) - self.slack
            if m > worst:
                worst, worst_k = m, int(k)
        return bool(worst_k is not None and worst <= 0), float(worst), worst_k

    def to_dict(self):
        return {"name": self.name, "constant": self.constant,
                "rate_exponent": self.rate_exponent,
                "shape": self.shape_label,
                "reference_source": self.reference_source,
                "slack": self.slack, "inputs": self.inputs}


def _shape_half_k(k):
    return 1.0 / (2.0 * k)


def _sqdist(a, b) -> float:
    return float(np.sum((np.asarray(a, float) - np.asarray(b, float)) ** 2))


def _general_c1_constant(rho0, gamma, norm_K, dx2, dy2) -> float:
    """The general method's c = 1 constant from squared distances."""
    return rho0 * norm_K ** 2 * dx2 / gamma + dy2 / ((1.0 - gamma) * rho0)


def certificate_general_primal(x0, y0, x_star, M_g, rho0, gamma,
                               norm_K) -> Certificate:
    """Primal residual certificate for the general method with c = 1.

    F(x_k) - F* <= (1/(2k)) [rho0 ||K||^2 ||x0-x*||^2/gamma
    + D_g^2/((1-gamma) rho0)] with D_g = ||y0|| + M_g, the supremum of
    ||y0 - y|| over the M_g-ball.
    """
    if M_g is None:
        raise CertificateUnavailableError("needs the Lipschitz constant of g")
    dx2 = _sqdist(x0, x_star)
    Dg = float(np.linalg.norm(y0)) + M_g
    const = _general_c1_constant(rho0, gamma, norm_K, dx2, Dg ** 2)
    return Certificate("general_primal", const, 1, _shape_half_k, "1/(2k)",
                       inputs={"rho0": rho0, "gamma": gamma, "norm_K": norm_K,
                               "dx": math.sqrt(dx2), "D_g": Dg})


def certificate_game_gap(p, n, rho0, gamma, norm_K) -> Certificate:
    """Gap certificate for the general method with c = 1 on a game over the
    p- and n-simplexes from the uniform pair: the c = 1 constant at the
    suprema of ||x0 - x||^2 and ||y0 - y||^2, 1 - 1/p and 1 - 1/n."""
    const = _general_c1_constant(rho0, gamma, norm_K, 1.0 - 1.0 / p,
                                 1.0 - 1.0 / n)
    return Certificate("general_gap_simplex", const, 1, _shape_half_k,
                       "1/(2k)", "exact", {"rho0": rho0, "gamma": gamma})


def certificate_general_fast(c, F0_minus_Fstar, x0, y0, x_star, y_star, M_g,
                             rho0, gamma, norm_K) -> Certificate:
    """Primal residual certificate for the general method with c > 1.

    R0^2 = (c-1)[F(x0)-F*] + (c/2)[rho0||K||^2||x0-x*||^2/gamma
    + ||y0-y*||^2/((1-gamma) rho0)]; the primal constant is
    R1^2 = R0^2 + sqrt(2c/rho0)(||y*|| + M_g) R0 with shape 1/(k+c-1).
    """
    if c <= 1:
        raise CertificateUnavailableError("this certificate requires c > 1")
    if M_g is None:
        raise CertificateUnavailableError("needs the Lipschitz constant of g")
    dx2 = _sqdist(x0, x_star)
    dy2 = _sqdist(y0, y_star)
    R0sq = ((c - 1.0) * max(F0_minus_Fstar, 0.0)
            + 0.5 * c * _general_c1_constant(rho0, gamma, norm_K, dx2, dy2))
    R0 = math.sqrt(R0sq)
    R1sq = R0sq + math.sqrt(2.0 * c / rho0) * (float(np.linalg.norm(y_star)) + M_g) * R0
    return Certificate("general_fast", R1sq, 1,
                       lambda k: 1.0 / (k + c - 1.0), "1/(k+c-1)",
                       inputs={"c": c, "rho0": rho0, "gamma": gamma,
                               "norm_K": norm_K, "R0_sq": R0sq})


def certificate_strong_primal(x0, y0, x_star, M_g, rho0, gamma,
                              norm_K) -> Certificate:
    """Primal residual certificate for the strongly convex method, Case 1.

    F(x_k) - F* <= (2/(k+1)^2) [rho0 ||K||^2 ||x0-x*||^2 / Gamma
    + D_g^2 / ((1-gamma) rho0)], Gamma = 2 - 1/gamma.
    """
    if M_g is None:
        raise CertificateUnavailableError("needs the Lipschitz constant of g")
    Gamma = 2.0 - 1.0 / gamma
    dx2 = _sqdist(x0, x_star)
    Dg = float(np.linalg.norm(y0)) + M_g
    const = rho0 * norm_K ** 2 * dx2 / Gamma + Dg ** 2 / ((1.0 - gamma) * rho0)
    return Certificate("strong_primal", const, 2,
                       lambda k: 2.0 / (k + 1.0) ** 2, "2/(k+1)^2",
                       inputs={"rho0": rho0, "gamma": gamma, "Gamma": Gamma,
                               "norm_K": norm_K, "D_g": Dg})


def certificate_strong_fast(c, F0_minus_Fstar, x0, y0, x_star, y_star, M_g,
                            rho0, gamma, mu_f, norm_K) -> Certificate:
    """Primal residual certificate for the strongly convex method, Case 2.

    R0^2 = (c-1)[F(x0)-F*] + ((c-1)/2)[(c-1) rho0||K||^2/Gamma + c mu_f]
    ||x0-x*||^2 + c^2 ||y0-y*||^2/(2(1-gamma) rho0); primal constant
    R1^2 = R0^2 + sqrt(2c^2/rho0)(||y*|| + M_g) R0, shape 1/(k+c-1)^2.
    """
    if c <= 2:
        raise CertificateUnavailableError("this certificate requires c > 2")
    if M_g is None:
        raise CertificateUnavailableError("needs the Lipschitz constant of g")
    Gamma = 2.0 - 1.0 / gamma
    dx2 = _sqdist(x0, x_star)
    dy2 = _sqdist(y0, y_star)
    R0sq = ((c - 1.0) * max(F0_minus_Fstar, 0.0)
            + 0.5 * (c - 1.0) * ((c - 1.0) * rho0 * norm_K ** 2 / Gamma
                                 + c * mu_f) * dx2
            + c ** 2 * dy2 / (2.0 * (1.0 - gamma) * rho0))
    R0 = math.sqrt(R0sq)
    R1sq = R0sq + math.sqrt(2.0 * c ** 2 / rho0) * (float(np.linalg.norm(y_star)) + M_g) * R0
    return Certificate("strong_fast", R1sq, 2,
                       lambda k: 1.0 / (k + c - 1.0) ** 2, "1/(k+c-1)^2",
                       inputs={"c": c, "rho0": rho0, "gamma": gamma,
                               "mu_f": mu_f, "norm_K": norm_K, "R0_sq": R0sq})


def certificate_constrained(x0, y0, x_star, y_star, rho0, gamma, norm_K,
                            L_psi) -> Certificate:
    """Certificate for the equality-constrained specialization with c = 1:
    both |F(x_k) - F*| and ||K x_k - b|| are bounded by R0^2/(2k) with
    R0^2 = (rho0||K||^2 + gamma L_psi)/gamma ||x0-x*||^2
    + (2||y*|| + ||y0|| + 1)^2 / ((1-gamma) rho0)."""
    dx2 = _sqdist(x0, x_star)
    lam = 2.0 * float(np.linalg.norm(y_star)) + float(np.linalg.norm(y0)) + 1.0
    R0sq = ((rho0 * norm_K ** 2 + gamma * L_psi) / gamma * dx2
            + lam ** 2 / ((1.0 - gamma) * rho0))
    return Certificate("constrained", R0sq, 1, _shape_half_k, "1/(2k)",
                       inputs={"rho0": rho0, "gamma": gamma, "norm_K": norm_K,
                               "L_psi": L_psi})


def certificate_semistrong(x0, w0, y0, x_star, w_star, y_star, rho0, gamma,
                           norm_K, nu0) -> Certificate:
    """Certificate for the semi-strongly convex constrained scheme (Case 1):
    both |F - F*| and ||Kx + Bw - b|| are bounded by 2 R0^2/(k+1)^2 with
    R0^2 = rho0||K||^2||x0-x*||^2/Gamma + nu0||w0-w*||^2
    + (2||y*|| + ||y0|| + 1)^2 / ((1-gamma) rho0)."""
    Gamma = 2.0 - 1.0 / gamma
    dx2 = _sqdist(x0, x_star)
    dw2 = _sqdist(w0, w_star)
    lam = 2.0 * float(np.linalg.norm(y_star)) + float(np.linalg.norm(y0)) + 1.0
    R0sq = (rho0 * norm_K ** 2 * dx2 / Gamma + nu0 * dw2
            + lam ** 2 / ((1.0 - gamma) * rho0))
    return Certificate("semistrong", R0sq, 2,
                       lambda k: 2.0 / (k + 1.0) ** 2, "2/(k+1)^2",
                       inputs={"rho0": rho0, "gamma": gamma, "Gamma": Gamma,
                               "norm_K": norm_K, "nu0": nu0})


# -- empirical rate slope ---------------------------------------------------------

def rate_slope(ks, values, k_lo, k_hi) -> float:
    """Least-squares slope of log(value) against log(k) over [k_lo, k_hi].

    Non-positive values are dropped; fewer than 10 usable records is an
    error.
    """
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (ks >= k_lo) & (ks <= k_hi) & np.isfinite(values) & (values > 0)
    if int(mask.sum()) < 10:
        raise ValueError(
            f"need at least 10 positive records in [{k_lo}, {k_hi}], "
            f"found {int(mask.sum())}")
    lx = np.log(ks[mask])
    ly = np.log(values[mask])
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)


def trace_slope(trace: Trace, metric: str, k_lo, k_hi,
                offset: float = 0.0) -> float:
    """Slope of a trace column (minus an optional offset, e.g. F*)."""
    return rate_slope(trace.column("k"), trace.column(metric) - offset,
                      k_lo, k_hi)


# -- reference oracle --------------------------------------------------------------

@dataclass
class ReferenceSolution:
    """The oracle's optimum, its residual, and the exact arm and its time."""

    x: np.ndarray
    y: np.ndarray
    F: float
    residual: float
    exact_arm: str = ""
    exact_s: float = 0.0

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)[2:]}


def _highs(c, **constraints):
    from scipy.optimize import linprog

    res = linprog(c, method="highs", **constraints, options={
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise OracleFailureError(f"HiGHS failed: {res.message}")
    return res


def _lad_lp(K, f, g, gap):
    """l1 f with l1_shifted g: min lam ||x||_1 + ||Kx - b||_1 as an LP in
    [u v s t] >= 0 with x = u - v and Kx - b = s - t.  The equality
    marginals m satisfy F* = b^T m, so y* = -m has G(y*) = -F*."""
    import scipy.sparse as sp

    n, p = K.shape
    S, I = sp.csr_matrix(K), sp.identity(n, format="csr")
    res = _highs(np.r_[np.full(2 * p, f.params["lam"]), np.ones(2 * n)],
                 A_eq=sp.hstack([S, -S, -I, I], format="csr"),
                 b_eq=g.params["b"], bounds=(0, None))
    return res.x[:p] - res.x[p:2 * p], -res.eqlin.marginals


def _game_lp(K, f, g, gap):
    """The simplex pair: min v subject to Kx <= v 1 and x on the simplex;
    y* is minus the inequality marginals, renormalised onto the simplex."""
    n, p = K.shape
    res = _highs(np.r_[np.zeros(p), 1.0], A_ub=np.hstack([K, -np.ones((n, 1))]),
                 b_ub=np.zeros(n), A_eq=np.r_[np.ones(p), 0.0][None],
                 b_eq=[1.0], bounds=[(0, None)] * p + [(None, None)])
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    return res.x[:p], y / y.sum()


def _elastic_dual(K, b, lam, mu, y, bounds):
    """L-BFGS-B from y on the elastic-net dual min f*(-K^T y) + b^T y within
    ``bounds``; returns x = grad f*(-K^T y) and y."""
    from scipy.optimize import minimize

    def fun(y):
        s = -(K.T @ y)
        t = np.maximum(np.abs(s) - lam, 0.0)
        return t @ t / (2.0 * mu) + b @ y, b - K @ (np.sign(s) * t / mu)

    y = minimize(fun, y, jac=True, method="L-BFGS-B", bounds=bounds, options=dict(
        ftol=0.0, gtol=0.0, maxiter=5000, maxcor=20, maxls=50)).x
    s = -(K.T @ y)
    return np.sign(s) * np.maximum(np.abs(s) - lam, 0.0) / mu, y


def _elastic_box_dual(K, f, g, gap):
    """Elastic-net f with l1_shifted g: L-BFGS-B on the dual over the unit
    box.  It stalls at a gap of 1e-8..1e-5 (most rows fit exactly), so each
    of up to four passes ends with KKT polishes (:func:`_kkt_polish`)."""
    lam, mu, b = f.params["lam"], f.params["mu"], g.params["b"]
    y, best = np.zeros(b.size), (np.inf, None)
    for _ in range(4):
        x, y = _elastic_dual(K, b, lam, mu, y, [(-1.0, 1.0)] * b.size)
        for pair in [(x, y)] + [_kkt_polish(K, b, lam, mu, x, tau)
                                for tau in (1e-4, 1e-6, 1e-8)]:
            if pair is not None and gap(*pair) < best[0]:
                best = gap(*pair), pair
        if best[0] <= 1e-11:
            break
    return best[1]


def _kkt_polish(K, b, lam, mu, x, tau):
    """The exact KKT point on the support and sign pattern of x, or None.

    With A the support of x (signs sA), Z the rows whose residual is within
    ``tau`` of zero and N the rest (signs sN), optimality is linear in
    (x_A, y_Z): K_ZA x_A = b_Z, mu x_A + lam sA + K_A^T y = 0 with y_N = sN,
    |y_Z| <= 1, |K_j^T y| <= lam off the support, and the signs kept."""
    A, r = x != 0, K @ x - b
    Z, sA = np.abs(r) <= tau, np.sign(x[A])
    N, nA, nZ, nO = ~Z, int(A.sum()), int(Z.sum()), int((~A).sum())
    sN = np.sign(r[N])
    KZA, KNA, KZO = K[np.ix_(Z, A)], K[np.ix_(N, A)], K[np.ix_(Z, ~A)]
    cO, zO = K[np.ix_(N, ~A)].T @ sN, np.zeros((nO, nA))
    try:
        res = _highs(np.zeros(nA + nZ), A_ub=np.block([
            [zO, KZO.T], [zO, -KZO.T], [-np.diag(sA), np.zeros((nA, nZ))],
            [-sN[:, None] * KNA, np.zeros((N.sum(), nZ))]]),
            b_ub=np.r_[lam - cO, lam + cO, np.zeros(nA), -sN * b[N]],
            A_eq=np.block([[KZA, np.zeros((nZ, nZ))], [mu * np.eye(nA), KZA.T]]),
            b_eq=np.r_[b[Z], -lam * sA - KNA.T @ sN],
            bounds=[(None, None)] * nA + [(-1.0, 1.0)] * nZ)
    except OracleFailureError:
        return None
    xp, yp = np.zeros(x.size), np.empty(b.size)
    xp[A], yp[N], yp[Z] = res.x[:nA], sN, res.x[nA:]
    return xp, yp


def _elastic_eq_dual(K, f, g, gap):
    """Elastic-net f with point_indicator g (Kx = b): the unconstrained
    dual, then the KKT system on the support A of x (signs s),
    mu x_A + lam s + K_A^T y = 0 and K_A x_A = b, by one linear solve."""
    lam, mu, b = f.params["lam"], f.params["mu"], g.params["b"]
    x, y = _elastic_dual(K, b, lam, mu, np.zeros(b.size), None)
    A = x != 0
    KA, s = K[:, A], np.sign(x[A])
    y = np.linalg.lstsq(KA @ KA.T, -mu * b - lam * (KA @ s), rcond=None)[0]
    x[A] = -(lam * s + KA.T @ y) / mu
    return x, y


# (f.kind, g.kind) -> arm(K as an ndarray, f, g, gap = |F + G|) -> (x, y)
_EXACT_ARMS = {("l1", "l1_shifted"): _lad_lp,
               ("simplex_indicator", "simplex_support"): _game_lp,
               ("elastic", "l1_shifted"): _elastic_box_dual,
               ("elastic", "point_indicator"): _elastic_eq_dual}
_FOLDS = {("l1", "squared_l2"):  # (f.kind, psi.kind) -> f + psi, one prox
          lambda f, psi: prox.elastic_net(f.dim, f.params["lam"], psi.params["w"])}


def reference_solution(problem: CompositeProblem | EqConstrainedProblem
                       ) -> ReferenceSolution:
    """An optimum solved exactly and certified by weak duality.

    An :class:`EqConstrainedProblem` becomes (f + psi)(x) + 1_{b}(Kx) by
    ``_FOLDS``.  The exact arm for the kinds of f and g (``_EXACT_ARMS``)
    returns a pair whose duality gap F(x) + G(y), G from :func:`dual_value`,
    must be at most ``RESIDUAL_TOL``; for g a point indicator F is f alone
    and ||Kx - b|| joins the residual.  With exact conjugates every feasible
    x' has F(x') >= -G(y) >= F(x) - gap, so no method can improve on x by
    more than the gap.  The gap is the sum of two Fenchel-Young terms,
    FY_f = f(x) + f*(-K^T y) + <x, K^T y> and FY_g = g(Kx) + g*(y) - <Kx, y>
    (g(Kx) = 0 for a point indicator), each >= 0 when its conjugate is
    exact; a term below -``AGREE_TOL`` max(1, |F|) means a conjugate value
    under-reports.  A failed gate, or a pair with no fold or exact arm,
    raises :class:`OracleFailureError`.
    """
    if isinstance(problem, EqConstrainedProblem):
        kinds = problem.f.kind, problem.psi.kind
        if kinds not in _FOLDS:
            raise OracleFailureError("no oracle fold for f of kind %r with "
                                     "psi of kind %r" % kinds)
        problem = CompositeProblem(_FOLDS[kinds](problem.f, problem.psi),
                                   prox.point_indicator(problem.b), problem.K)
    f, g, K = problem.f, problem.g, problem.K
    arm = _EXACT_ARMS.get((f.kind, g.kind))
    if arm is None:
        raise OracleFailureError(f"no exact oracle arm for f of kind "
                                 f"{f.kind!r} with g of kind {g.kind!r}")
    exact = arm.__name__.lstrip("_")
    point = g.kind == "point_indicator"
    obj = f.value if point else problem.primal_value

    def gap(x, y):
        return abs(obj(x) + dual_value(problem, y))

    t0 = time.perf_counter()
    x, y = arm(K.matrix, f, g, gap)
    exact_s = time.perf_counter() - t0
    F = float(obj(x))
    Kx = K.apply(x)
    residual = max(gap(x, y), float(np.linalg.norm(Kx - g.params["b"]))
                   if point else 0.0)
    if not residual <= RESIDUAL_TOL:
        raise OracleFailureError(f"the {exact} pair has a residual of "
                                 f"{residual:.3e}, above {RESIDUAL_TOL:.1e}")
    Kty = K.adjoint_apply(y)
    terms = {"FY_f": f.value(x) + f.conjugate_value(-Kty) + x @ Kty,
             "FY_g": (0.0 if point else g.value(Kx)) + g.conjugate_value(y)
             - Kx @ y}
    for name, term in terms.items():
        if not term >= -AGREE_TOL * max(1.0, abs(F)):
            raise OracleFailureError(
                f"the {exact} pair has a Fenchel-Young term {name} = "
                f"{term:.3e}, below -{AGREE_TOL:.1e} max(1, |F|): a "
                f"conjugate value under-reports")
    return ReferenceSolution(x, y, F, float(residual), exact, exact_s)


def certificates_to_json(certs, path):
    with open(path, "w") as fh:
        json.dump([c.to_dict() for c in certs], fh, indent=2)
