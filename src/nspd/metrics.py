"""Objective/gap evaluators, worst-case bound certificates, the empirical
rate-slope estimator, and the two-solver reference oracle.

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
uses those it can, and computes a product it needs but was not given.  It
returns the gap (the driver's ``tol`` stop compares it) or None.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (CertificateUnavailableError, OracleFailureError,
                     UnsupportedMetricError)
from .problems import CompositeProblem, MatrixGame
from .prox import conjugate_prox

__all__ = [
    "Trace",
    "primal_value",
    "dual_value",
    "lagrangian",
    "duality_gap",
    "game_gap",
    "Certificate",
    "bound_general_gap",
    "certificate_general_primal",
    "certificate_general_fast",
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


# -- traces -------------------------------------------------------------------

CSV_HEADER = ["k", "F", "G", "gap", "feas", "time_s"]
_CSV_ROW = "{},{!r},{!r},{!r},{!r},{!r}\r\n"


class Trace:
    """Per-iteration metric records with CSV persistence.

    Columns: k, primal value F, dual value G (inf when dual infeasible,
    nan when no closed form), gap (duality gap when available, else a
    Lagrangian gap at reference points, else nan), feasibility residual
    (nan for unconstrained runs), wall time.
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
        tr = cls()
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r)
            if header != CSV_HEADER:
                raise ValueError(f"unexpected trace header {header}")
            for row in r:
                tr.append(int(row[0]), *(float(v) for v in row[1:]))
        return tr


# -- evaluators ----------------------------------------------------------------

def primal_value(problem: CompositeProblem, x) -> float:
    return problem.primal_value(x)


def dual_value(problem: CompositeProblem, y) -> float:
    """G(y) = f*(-K^T y) + g*(y); +inf when an indicator is violated."""
    f, g, K = problem.f, problem.g, problem.K
    if f.conjugate_value is None or g.conjugate_value is None:
        raise UnsupportedMetricError(
            "dual value needs closed-form conjugates for f and g")
    gv = g.conjugate_value(y)
    if not np.isfinite(gv):
        return float("inf")
    fv = f.conjugate_value(-K.adjoint_apply(np.asarray(y, dtype=float)))
    return float(fv + gv)


def lagrangian(problem: CompositeProblem, x, y, Kx=None) -> float:
    """f(x) + <Kx, y> - g*(y), with +/- inf respected for indicators;
    ``Kx``, when given, is used for K x."""
    g = problem.g
    if g.conjugate_value is None:
        raise UnsupportedMetricError("lagrangian needs a closed form for g*")
    gv = g.conjugate_value(y)
    if not np.isfinite(gv):
        return float("-inf")
    fv = problem.f.value(np.asarray(x, dtype=float))
    if not np.isfinite(fv):
        return float("inf")
    if Kx is None:
        Kx = problem.K.apply(x)
    return float(fv + Kx @ np.asarray(y, dtype=float) - gv)


def duality_gap(problem: CompositeProblem, x, y) -> float:
    """F(x) + G(y); nonnegative by weak duality, +inf when either side is."""
    return primal_value(problem, x) + dual_value(problem, y)


def game_gap(game: MatrixGame, x, y, tol: float = 1e-9) -> float:
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


# -- recorders -----------------------------------------------------------------

def composite_recorder(problem: CompositeProblem, trace: Trace,
                       x_ref=None, y_ref=None):
    """Record F, G and a gap for a composite run.

    The gap column holds the duality gap when it is finite, else the
    Lagrangian gap L(x, y_ref) - L(x_ref, y) when reference points are
    given, else nan.
    """
    f, g, K = problem.f, problem.g, problem.K
    f_conj, g_conj = f.conjugate_value, g.conjugate_value
    have_conj = f_conj is not None and g_conj is not None
    have_ref = x_ref is not None and y_ref is not None
    if have_ref:
        Kx_ref = K.apply(x_ref)

    def record(k, x, y, t, Kx=None, Kty=None, **_):
        if Kx is None:
            Kx = K.apply(x)
        F = f.value(x) + g.value(Kx)
        G = gap = math.nan
        if have_conj and y is not None:
            gv = g_conj(y)
            if not math.isfinite(gv):
                G = math.inf
            else:
                if Kty is None:
                    Kty = K.adjoint_apply(y)
                G = float(f_conj(-Kty) + gv)
            gap = F + G
        if not math.isfinite(gap) and have_ref:
            try:
                gap = (lagrangian(problem, x, y_ref, Kx)
                       - lagrangian(problem, x_ref, y, Kx_ref))
            except UnsupportedMetricError:
                gap = math.nan
        trace.append(k, F, G, gap, math.nan, t)
        return gap

    return record


def constrained_recorder(problem, trace: Trace):
    """Record the objective f + psi and the feasibility residual ||Kx - b||."""

    def record(k, x, y, t, Kx=None, **_):
        feas = (problem.feasibility(x) if Kx is None
                else float(np.linalg.norm(Kx - problem.b)))
        trace.append(k, problem.objective(x), math.nan, math.nan, feas, t)
        return None

    return record


def semistrong_recorder(problem, trace: Trace):
    """Record f(x) + psi(w) and ||Kx + Bw - b||."""

    def record(k, x, y, t, w=None, resid=None, **_):
        feas = (problem.feasibility(x, w) if resid is None
                else float(np.linalg.norm(resid)))
        trace.append(k, problem.objective(x, w), math.nan, math.nan, feas, t)
        return None

    return record


def game_recorder(game: MatrixGame, trace: Trace):
    """Record max(Kx), -min(K^T y) and their sum (the game gap)."""

    # The products handed over are ignored: the benchmark's traced game test
    # pins record_matvecs == 2 * record_calls
    # (perfbench/tests/test_perfbench_trace.py).
    def record(k, x, y, t, **_):
        F = game.primal_value(x)
        G = game.dual_value(y)
        trace.append(k, F, G, F + G, float("nan"), t)
        return F + G

    return record


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
        """Return (holds, worst_margin, worst_k); margin = value - bound - slack."""
        worst = -np.inf
        worst_k = None
        for k, v in zip(ks, values):
            if k < 1 or not np.isfinite(v):
                continue
            m = v - self.bound_at(int(k)) - self.slack
            if m > worst:
                worst, worst_k = m, int(k)
        return bool(worst <= 0.0), float(worst), worst_k

    def to_dict(self):
        return {"name": self.name, "constant": self.constant,
                "rate_exponent": self.rate_exponent,
                "shape": self.shape_label,
                "reference_source": self.reference_source,
                "slack": self.slack, "inputs": self.inputs}


def _shape_half_k(k):
    return 1.0 / (2.0 * k)


def bound_general_gap(x0, y0, x_ref, y_ref, rho0, gamma, norm_K, k) -> float:
    """Worst-case Lagrangian-gap bound of the general method with c = 1:
    (1/(2k)) [rho0 ||K||^2 ||x0-x||^2 / gamma + ||y0-y||^2 / ((1-gamma) rho0)]."""
    if k < 1:
        raise ValueError("k must be at least 1")
    dx2 = float(np.sum((np.asarray(x0, float) - np.asarray(x_ref, float)) ** 2))
    dy2 = float(np.sum((np.asarray(y0, float) - np.asarray(y_ref, float)) ** 2))
    c = rho0 * norm_K ** 2 * dx2 / gamma + dy2 / ((1.0 - gamma) * rho0)
    return c / (2.0 * k)


def certificate_general_primal(x0, y0, x_star, M_g, rho0, gamma, norm_K,
                               reference_source="numerical") -> Certificate:
    """Primal residual certificate for the general method with c = 1.

    F(x_k) - F* <= (1/(2k)) [rho0 ||K||^2 ||x0-x*||^2/gamma
    + D_g^2/((1-gamma) rho0)] with D_g = ||y0|| + M_g, the supremum of
    ||y0 - y|| over the M_g-ball.
    """
    if M_g is None:
        raise CertificateUnavailableError("needs the Lipschitz constant of g")
    dx2 = float(np.sum((np.asarray(x0, float) - np.asarray(x_star, float)) ** 2))
    Dg = float(np.linalg.norm(y0)) + M_g
    const = rho0 * norm_K ** 2 * dx2 / gamma + Dg ** 2 / ((1.0 - gamma) * rho0)
    return Certificate("general_primal", const, 1, _shape_half_k, "1/(2k)",
                       reference_source,
                       {"rho0": rho0, "gamma": gamma, "norm_K": norm_K,
                        "dx": math.sqrt(dx2), "D_g": Dg})


def certificate_general_fast(c, F0_minus_Fstar, x0, y0, x_star, y_star, M_g,
                             rho0, gamma, norm_K,
                             reference_source="numerical") -> Certificate:
    """Primal residual certificate for the general method with c > 1.

    R0^2 = (c-1)[F(x0)-F*] + (c/2)[rho0||K||^2||x0-x*||^2/gamma
    + ||y0-y*||^2/((1-gamma) rho0)]; the primal constant is
    R1^2 = R0^2 + sqrt(2c/rho0)(||y*|| + M_g) R0 with shape 1/(k+c-1).
    """
    if c <= 1:
        raise CertificateUnavailableError("this certificate requires c > 1")
    if M_g is None:
        raise CertificateUnavailableError("needs the Lipschitz constant of g")
    dx2 = float(np.sum((np.asarray(x0, float) - np.asarray(x_star, float)) ** 2))
    dy2 = float(np.sum((np.asarray(y0, float) - np.asarray(y_star, float)) ** 2))
    R0sq = ((c - 1.0) * max(F0_minus_Fstar, 0.0)
            + 0.5 * c * (rho0 * norm_K ** 2 * dx2 / gamma
                         + dy2 / ((1.0 - gamma) * rho0)))
    R0 = math.sqrt(R0sq)
    R1sq = R0sq + math.sqrt(2.0 * c / rho0) * (float(np.linalg.norm(y_star)) + M_g) * R0
    return Certificate("general_fast", R1sq, 1,
                       lambda k: 1.0 / (k + c - 1.0), "1/(k+c-1)",
                       reference_source,
                       {"c": c, "rho0": rho0, "gamma": gamma,
                        "norm_K": norm_K, "R0_sq": R0sq})


def certificate_strong_primal(x0, y0, x_star, M_g, rho0, gamma, norm_K,
                              reference_source="numerical") -> Certificate:
    """Primal residual certificate for the strongly convex method, Case 1.

    F(x_k) - F* <= (2/(k+1)^2) [rho0 ||K||^2 ||x0-x*||^2 / Gamma
    + D_g^2 / ((1-gamma) rho0)], Gamma = 2 - 1/gamma.
    """
    if M_g is None:
        raise CertificateUnavailableError("needs the Lipschitz constant of g")
    Gamma = 2.0 - 1.0 / gamma
    dx2 = float(np.sum((np.asarray(x0, float) - np.asarray(x_star, float)) ** 2))
    Dg = float(np.linalg.norm(y0)) + M_g
    const = rho0 * norm_K ** 2 * dx2 / Gamma + Dg ** 2 / ((1.0 - gamma) * rho0)
    return Certificate("strong_primal", const, 2,
                       lambda k: 2.0 / (k + 1.0) ** 2, "2/(k+1)^2",
                       reference_source,
                       {"rho0": rho0, "gamma": gamma, "Gamma": Gamma,
                        "norm_K": norm_K, "D_g": Dg})


def certificate_strong_fast(c, F0_minus_Fstar, x0, y0, x_star, y_star, M_g,
                            rho0, gamma, mu_f, norm_K,
                            reference_source="numerical") -> Certificate:
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
    dx2 = float(np.sum((np.asarray(x0, float) - np.asarray(x_star, float)) ** 2))
    dy2 = float(np.sum((np.asarray(y0, float) - np.asarray(y_star, float)) ** 2))
    R0sq = ((c - 1.0) * max(F0_minus_Fstar, 0.0)
            + 0.5 * (c - 1.0) * ((c - 1.0) * rho0 * norm_K ** 2 / Gamma
                                 + c * mu_f) * dx2
            + c ** 2 * dy2 / (2.0 * (1.0 - gamma) * rho0))
    R0 = math.sqrt(R0sq)
    R1sq = R0sq + math.sqrt(2.0 * c ** 2 / rho0) * (float(np.linalg.norm(y_star)) + M_g) * R0
    return Certificate("strong_fast", R1sq, 2,
                       lambda k: 1.0 / (k + c - 1.0) ** 2, "1/(k+c-1)^2",
                       reference_source,
                       {"c": c, "rho0": rho0, "gamma": gamma, "mu_f": mu_f,
                        "norm_K": norm_K, "R0_sq": R0sq})


def certificate_constrained(x0, y0, x_star, y_star, rho0, gamma, norm_K,
                            L_psi, reference_source="numerical") -> Certificate:
    """Certificate for the equality-constrained specialization with c = 1:
    both |F(x_k) - F*| and ||K x_k - b|| are bounded by R0^2/(2k) with
    R0^2 = (rho0||K||^2 + gamma L_psi)/gamma ||x0-x*||^2
    + (2||y*|| + ||y0|| + 1)^2 / ((1-gamma) rho0)."""
    dx2 = float(np.sum((np.asarray(x0, float) - np.asarray(x_star, float)) ** 2))
    lam = 2.0 * float(np.linalg.norm(y_star)) + float(np.linalg.norm(y0)) + 1.0
    R0sq = ((rho0 * norm_K ** 2 + gamma * L_psi) / gamma * dx2
            + lam ** 2 / ((1.0 - gamma) * rho0))
    return Certificate("constrained", R0sq, 1, _shape_half_k, "1/(2k)",
                       reference_source,
                       {"rho0": rho0, "gamma": gamma, "norm_K": norm_K,
                        "L_psi": L_psi})


def certificate_semistrong(x0, w0, y0, x_star, w_star, y_star, rho0, gamma,
                           norm_K, nu0,
                           reference_source="numerical") -> Certificate:
    """Certificate for the semi-strongly convex constrained scheme (Case 1):
    both |F - F*| and ||Kx + Bw - b|| are bounded by 2 R0^2/(k+1)^2 with
    R0^2 = rho0||K||^2||x0-x*||^2/Gamma + nu0||w0-w*||^2
    + (2||y*|| + ||y0|| + 1)^2 / ((1-gamma) rho0)."""
    Gamma = 2.0 - 1.0 / gamma
    dx2 = float(np.sum((np.asarray(x0, float) - np.asarray(x_star, float)) ** 2))
    dw2 = float(np.sum((np.asarray(w0, float) - np.asarray(w_star, float)) ** 2))
    lam = 2.0 * float(np.linalg.norm(y_star)) + float(np.linalg.norm(y0)) + 1.0
    R0sq = (rho0 * norm_K ** 2 * dx2 / Gamma + nu0 * dw2
            + lam ** 2 / ((1.0 - gamma) * rho0))
    return Certificate("semistrong", R0sq, 2,
                       lambda k: 2.0 / (k + 1.0) ** 2, "2/(k+1)^2",
                       reference_source,
                       {"rho0": rho0, "gamma": gamma, "Gamma": Gamma,
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
    x: np.ndarray
    y: np.ndarray
    F: float
    residual: float
    residual_kind: str
    agreement: float
    budget: int
    method_values: dict
    stage: str = "cold"
    source: str = "numerical"

    def to_dict(self):
        return {"F": self.F, "residual": self.residual,
                "residual_kind": self.residual_kind,
                "agreement": self.agreement, "budget": self.budget,
                "method_values": self.method_values, "stage": self.stage,
                "source": self.source}


def _fixed_point_residual(problem: CompositeProblem, x, y) -> float:
    """Prox-gradient residual of the saddle system at unit-scaled steps."""
    s = 1.0 / problem.K.norm
    rx = x - problem.f.prox(x - s * problem.K.adjoint_apply(y), s)
    ry = y - conjugate_prox(problem.g, y + s * problem.K.apply(x), s)
    return float(np.linalg.norm(rx) + np.linalg.norm(ry))


def _best_dual_gap(problem, x_best, F_best, candidates):
    """Smallest finite duality gap over the candidate dual points."""
    best = float("inf")
    best_y = None
    for y in candidates:
        if y is None:
            continue
        try:
            G = dual_value(problem, y)
        except UnsupportedMetricError:
            return None, None
        if np.isfinite(G):
            gap = F_best + G
            if gap < best:
                best, best_y = gap, y
    if best_y is None:
        return None, None
    return best, best_y


@dataclass
class _ArmResult:
    name: str
    best_F: float
    best_x: np.ndarray
    best_G: float
    best_y: Optional[np.ndarray]
    final_duals: list


def _run_arm(problem, kind, budget, x_start, y_start, obj, merit, dual_val):
    """Run one oracle arm, tracking the best-merit iterate and the best
    finite dual value seen along the run."""
    from . import baselines, pd_general, pd_strong

    norm_K = problem.K.norm
    strongly_convex = problem.f.mu > 0
    if kind == "nonstationary":
        if strongly_convex:
            sched = pd_strong.StrongSchedule(2, 0.75, problem.f.mu, norm_K,
                                             c=4.0)
            state = pd_strong.init_state(problem, x_start, y_start)
            advance = lambda: pd_strong.step(state, problem, sched)
            name = "pd_strong_case2"
        else:
            sched = pd_general.GeneralSchedule(c=2.0, gamma=0.999,
                                               rho0=1.0 / norm_K,
                                               norm_K=norm_K)
            state = pd_general.init_state(problem, x_start, y_start)
            advance = lambda: pd_general.step(state, problem, sched)
            name = "pd_general_c2"
        dual_points = lambda: (state.y_bar, state.y)
    else:
        cfg = baselines.BaselineConfig(rho=1.0 / norm_K, mu_f=problem.f.mu)
        state = baselines.init_cp_state(problem, x_start, y_start, cfg.rho,
                                        cfg.resolved_beta(norm_K))
        if strongly_convex:
            advance = lambda: baselines.cp_scvx_step(state, problem, cfg.mu_f)
            name = "cp_scvx"
        else:
            advance = lambda: baselines.cp_step(state, problem)
            name = "cp"
        dual_points = lambda: (state.y_erg, state.y)

    check = max(budget // 20_000, 1)
    best_m, best_x = np.inf, np.asarray(x_start, dtype=float).copy()
    best_G, best_y = np.inf, None
    for i in range(budget):
        advance()
        if i % check == 0 or i == budget - 1:
            x = state.x
            mx = merit(x)
            if mx < best_m:
                best_m, best_x = mx, x.copy()
            for y in dual_points():
                Gy = dual_val(y)
                if Gy is not None and Gy < best_G:
                    best_G, best_y = Gy, y.copy()
    return _ArmResult(name, float(obj(best_x)), best_x, float(best_G), best_y,
                      [y.copy() for y in dual_points()])


def reference_solution(problem: CompositeProblem, budget: int,
                       x0=None, y0=None, objective=None, merit=None,
                       extra_residual=None, agree_tol: float = 1e-8,
                       residual_tol: float = 1e-8) -> ReferenceSolution:
    """High-accuracy optimum cross-checked by two structurally different
    solvers.

    The non-stationary method (c = 2) and the fixed-step baseline run for
    ``budget`` iterations each (the strongly convex method Case 2 and the
    accelerated baseline when f is strongly convex), each contributing its
    best objective value.  If their best values already agree to
    ``agree_tol`` relative, that settles the agreement gate; otherwise the
    weaker solver is re-run warm-started at the stronger one's best iterate,
    and must fail to improve it by more than ``agree_tol`` relative (a
    descent falsification of the candidate optimum).  Independently, the
    optimality residual (smallest finite duality gap over all dual
    candidates, else the prox-gradient fixed-point norm) must be below
    ``residual_tol``.  Either gate failing raises
    :class:`OracleFailureError` carrying both objective values.

    ``objective`` overrides the compared value (needed for constrained
    problems whose composite primal value is an indicator); ``merit``, when
    given, is used instead of the objective to select each arm's best
    iterate (e.g. objective plus a feasibility penalty, so that a
    near-feasible point wins over an infeasible one with a smaller raw
    objective); ``extra_residual`` adds a term, e.g. a feasibility norm, to
    the optimality residual.
    """
    if budget < 10 ** 5:
        raise ValueError("reference budget must be at least 1e5 iterations")
    p, n = problem.p, problem.n
    x0 = np.zeros(p) if x0 is None else np.asarray(x0, dtype=float)
    y0 = np.zeros(n) if y0 is None else np.asarray(y0, dtype=float)
    obj = objective if objective is not None else (
        lambda x: primal_value(problem, x))
    sel = merit if merit is not None else obj
    have_conj = (problem.f.conjugate_value is not None
                 and problem.g.conjugate_value is not None)

    def dual_val(y):
        if not have_conj or y is None:
            return None
        G = dual_value(problem, y)
        return float(G) if np.isfinite(G) else None

    arm_a = _run_arm(problem, "nonstationary", budget, x0, y0, obj, sel,
                     dual_val)
    arm_b = _run_arm(problem, "fixed", budget, x0, y0, obj, sel, dual_val)
    champ, other = ((arm_a, arm_b) if arm_a.best_F <= arm_b.best_F
                    else (arm_b, arm_a))
    method_values = {arm_a.name: arm_a.best_F, arm_b.name: arm_b.best_F}

    agreement = abs(arm_a.best_F - arm_b.best_F) / max(1.0, abs(champ.best_F))
    stage = "cold"
    arms = [arm_a, arm_b]
    if not np.isfinite(agreement) or agreement > agree_tol:
        # corroboration pass: the weaker solver restarts at the champion's
        # best iterate and must not find a meaningfully lower objective
        y_start = champ.best_y if champ.best_y is not None else champ.final_duals[-1]
        other_kind = ("fixed" if other.name.startswith("cp")
                      else "nonstationary")
        corr = _run_arm(problem, other_kind, budget, champ.best_x, y_start,
                        obj, sel, dual_val)
        arms.append(corr)
        method_values[other.name + "_warm"] = corr.best_F
        agreement = abs(corr.best_F - champ.best_F) / max(1.0, abs(champ.best_F))
        stage = "corroborated"
        if not np.isfinite(agreement) or agreement > agree_tol:
            raise OracleFailureError(
                f"reference solvers disagree after corroboration: "
                f"{champ.name}={champ.best_F!r}, "
                f"{other.name}(warm)={corr.best_F!r} "
                f"(relative difference {agreement:.3e})", method_values)
        if corr.best_F < champ.best_F:
            champ = _ArmResult(champ.name, corr.best_F, corr.best_x,
                               champ.best_G, champ.best_y, champ.final_duals)

    duals = [y for a in arms for y in ([a.best_y] if a.best_y is not None
                                       else []) + a.final_duals]
    gap, y_best = _best_dual_gap(problem, champ.best_x, champ.best_F, duals)
    if gap is not None:
        residual, kind = abs(gap), "duality_gap"
    else:
        y_best = duals[0]
        residual = min(_fixed_point_residual(problem, champ.best_x, y)
                       for y in duals)
        kind = "prox_gradient_residual"
    if extra_residual is not None:
        residual = max(residual, float(extra_residual(champ.best_x)))
    if residual > residual_tol:
        raise OracleFailureError(
            f"reference optimality residual {residual:.3e} ({kind}) exceeds "
            f"{residual_tol:.1e}; best values {method_values}",
            method_values | {"residual": residual})

    return ReferenceSolution(x=champ.best_x, y=y_best, F=float(champ.best_F),
                             residual=float(residual), residual_kind=kind,
                             agreement=float(agreement), budget=budget,
                             method_values={k: float(v) for k, v in
                                            method_values.items()},
                             stage=stage)


def certificates_to_json(certs, path):
    with open(path, "w") as fh:
        json.dump([c.to_dict() for c in certs], fh, indent=2)
