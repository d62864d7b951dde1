"""Non-stationary primal-dual method for strongly convex composite problems.

With f mu_f-strongly convex the penalty grows quadratically, rho_k =
rho0/tau_k^2, and the primal update keeps two prox evaluations of f per
iteration: one driving the extrapolation sequence x_tilde and one producing
the output iterate x, which is what makes the guarantee hold on the last
iterate.  Two step-size regimes are supported:

* Case 1: tau given by the recursion tau_{k+1} = tau_k (sqrt(tau_k^2+4) -
  tau_k)/2 from tau_0 = 1, with rho0 <= Gamma mu_f / (2 ||K||^2).
* Case 2: tau_k = c/(k+c) with c > 2, with rho0 <= c(c-1) Gamma mu_f /
  ((2c-1) ||K||^2).

Here gamma in (1/2, 1) and Gamma = 2 - 1/gamma in (0, 1).

The split form (:func:`split_step`) keeps the residual r explicit; the
merged form eliminates it through the Moreau decomposition.  The dual
correction coefficients eta_k/rho_k and eta_k (1-tau_k)/rho_{k-1} are the
ones produced by that elimination, so both forms generate identical iterates
(the tests assert this).

:func:`semistrong_step` extends the method to min f(x) + psi(w) subject to
Kx + Bw = b where only f is strongly convex; the w-subproblem is solved
rather than linearized: exactly when B is the tagged
:func:`nspd.problems.neg_identity`, else by the accelerated
proximal-gradient loop :func:`nspd.prox.apg` to ``nspd.prox.APG_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import pd_general
from .driver import run
from .errors import ConfigurationError, check_finite, check_option
from .pd_general import (PDState, RawState, _merged_finish, _split_step,
                         init_split_state)
from .problems import CompositeProblem, SemiStrongProblem
from .prox import apg, conjugate_prox

__all__ = [
    "StrongSchedule",
    "StrongOptions",
    "PDStrongState",
    "SemiStrongState",
    "init_state",
    "step",
    "init_split_state",
    "split_step",
    "init_semistrong_state",
    "semistrong_step",
    "solve",
    "solve_semistrong",
]


class StrongSchedule:
    """Parameter sequences for the strongly convex method.

    Case 1 maintains tau by its recursion (the closed form does not exist)
    and refuses a ``c``, which it would not read; Case 2 uses tau_k =
    c/(k+c), with c = 4 when ``c`` is None.  Either way rho_k beta_k ||K||^2
    = Gamma and eta_k = (1-gamma) rho_k < rho_k.  ``enforce_rho0_bound``,
    True or False, says whether a ``rho0`` above :meth:`rho0_bound` is
    refused.
    """

    def __init__(self, case: int, gamma: float, mu_f: float, norm_K: float,
                 rho0: Optional[float] = None, c: Optional[float] = None,
                 enforce_rho0_bound: bool = True):
        check_option("case", case, "be 1 or 2", lambda v: v in (1, 2))
        check_option("gamma", gamma, "lie in (1/2, 1)", lambda g: 0.5 < g < 1)
        check_option("mu_f", mu_f, "be positive")
        check_option("norm_K", norm_K)
        if case == 2:
            c = float(check_option("c", 4.0 if c is None else c,
                                   "be a number above 2 in Case 2",
                                   lambda c: c > 2))
        elif c is not None:
            raise ConfigurationError(
                f"c must be unset in Case 1, whose tau has no c, got {c!r}")
        check_option("enforce_rho0_bound", enforce_rho0_bound,
                     "be true or false", lambda v: True, bool)
        self.case = case
        self.gamma = float(gamma)
        self.Gamma = 2.0 - 1.0 / self.gamma
        self.mu_f = float(mu_f)
        self.norm_K = float(norm_K)
        self.c = c
        bound = self.rho0_bound()
        self.rho0 = (bound if rho0 is None
                     else float(check_option("rho0", rho0)))
        if enforce_rho0_bound and self.rho0 > bound * (1 + 1e-12):
            ineq = ("rho0 <= Gamma*mu_f/(2*norm_K^2)" if case == 1 else
                    "rho0 <= c*(c-1)*Gamma*mu_f/((2*c-1)*norm_K^2)")
            raise ConfigurationError(
                f"rho0 = {self.rho0:.6g} violates {ineq} = {bound:.6g}")
        self._taus = [1.0]  # Case 1 recursion cache

    def rho0_bound(self) -> float:
        if self.case == 1:
            return self.Gamma * self.mu_f / (2.0 * self.norm_K ** 2)
        return (self.c * (self.c - 1.0) * self.Gamma * self.mu_f
                / ((2.0 * self.c - 1.0) * self.norm_K ** 2))

    def tau(self, k: int) -> float:
        if self.case == 2:
            return self.c / (k + self.c)
        while len(self._taus) <= k:
            t = self._taus[-1]
            self._taus.append(0.5 * t * (np.sqrt(t * t + 4.0) - t))
        return self._taus[k]

    def at(self, k: int):
        """Return (tau_k, rho_k, beta_k, eta_k)."""
        tau = self.tau(k)
        rho = self.rho0 / tau ** 2
        beta = self.Gamma / (rho * self.norm_K ** 2)
        eta = (1.0 - self.gamma) * rho
        return tau, rho, beta, eta


@dataclass
class StrongOptions:
    """What :func:`solve` and :func:`solve_semistrong` run; the schedule's
    fields are checked by :class:`StrongSchedule` as the solve starts."""

    case: int = 1
    gamma: float = 0.75
    rho0: Optional[float] = None  # None picks the largest admissible value
    c: Optional[float] = None  # Case 2 only; None reads 4
    max_iters: int = 1000
    trace_every: Union[int, str] = 1
    enforce_rho0_bound: bool = True


# -- merged form -------------------------------------------------------------

@dataclass
class PDStrongState(PDState):
    """The iterates of :class:`nspd.pd_general.PDState` plus the
    extrapolation sequence ``x_tilde`` that the second prox of f drives.

    x^ is a convex combination of x and x~, not an extrapolation of x, so
    each step makes two forward products, K x and K x^, and one adjoint.
    """

    x_tilde: np.ndarray = field(kw_only=True)


def init_state(problem: CompositeProblem, x0, y0) -> PDStrongState:
    state = pd_general.init_state(problem, x0, y0)
    return PDStrongState(**vars(state), x_tilde=state.x.copy())


def _prox_pair(f, x_hat, x_tilde, grad, tau, rho, beta, norm_K):
    """The two prox steps of f along one dual gradient: x~ steps by
    beta/tau from x~, and x by 1/(rho ||K||^2) from x^.  Returns (x, x~)."""
    s_tilde = beta / tau
    x_tilde_new = f.prox(x_tilde - s_tilde * grad, s_tilde)
    s_x = 1.0 / (rho * norm_K ** 2)
    return f.prox(x_hat - s_x * grad, s_x), x_tilde_new


def step(state: PDStrongState, problem: CompositeProblem,
         sched: StrongSchedule) -> PDStrongState:
    """One iteration of the merged strongly convex update."""
    k = state.k
    tau, rho, beta, eta = sched.at(k)
    tau_next = sched.tau(k + 1)
    K = problem.K

    y_new = conjugate_prox(problem.g, state.y_tilde + rho * state.K_xhat, rho)
    Kt_y = K.adjoint_apply(y_new)
    x_new, x_tilde_new = _prox_pair(problem.f, state.x_hat, state.x_tilde,
                                    Kt_y, tau, rho, beta, sched.norm_K)
    x_hat_new = (1.0 - tau_next) * x_new + tau_next * x_tilde_new

    _merged_finish(state, tau, rho, eta, y_new, Kt_y, x_new, x_hat_new,
                   K.apply(x_new), K.apply(x_hat_new))
    state.x_tilde = x_tilde_new  # only once the finish has checked the step
    return state


# -- split form --------------------------------------------------------------

def split_step(state: RawState, problem: CompositeProblem,
               sched: StrongSchedule) -> RawState:
    """One iteration of the split scheme with explicit residual."""
    def primal(x_hat, grad, tau, rho, beta):
        return _prox_pair(problem.f, x_hat, state.x_tilde, grad, tau, rho,
                          beta, sched.norm_K)

    return _split_step(state, problem, sched, primal)


# -- semi-strongly convex constrained scheme ---------------------------------

@dataclass
class SemiStrongState:
    """Iterates of the semi-strongly convex scheme; ``resid`` is the
    constraint residual K x_k + B w_k - b."""

    k: int
    x: np.ndarray
    x_tilde: np.ndarray
    x_hat: np.ndarray
    w: np.ndarray
    w_hat: np.ndarray
    y_tilde: np.ndarray
    y_bar: np.ndarray
    resid: np.ndarray


def init_semistrong_state(problem: SemiStrongProblem, x0, w0, y0) -> SemiStrongState:
    x0 = np.asarray(x0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    resid0 = problem.K.apply(x0) + problem.B.apply(w0) - problem.b
    return SemiStrongState(k=0, x=x0.copy(), x_tilde=x0.copy(),
                           x_hat=x0.copy(), w=w0.copy(), w_hat=w0.copy(),
                           y_tilde=y0.copy(), y_bar=y0.copy(), resid=resid0)


def _solve_w_subproblem(problem: SemiStrongProblem, rho, nu0, K_xhat, w_hat,
                        y_tilde, w_start):
    """Minimize psi(w) + <B^T y~, w> + (rho/2)||K x^ + Bw - b||^2
    + (nu0/2)||w - w^||^2, exactly for B = -I, else by inner APG."""
    psi, B, b = problem.psi, problem.B, problem.b
    if B.kind == "neg_identity":
        # B = -I: the quadratic collapses to (rho+nu0)/2 ||w - m||^2 - <y~, w>
        m = (rho * (K_xhat - b) + nu0 * w_hat) / (rho + nu0)
        return psi.prox(m + y_tilde / (rho + nu0), 1.0 / (rho + nu0))

    Bt_y = B.adjoint_apply(y_tilde)

    def grad(w):
        return (Bt_y + rho * B.adjoint_apply(K_xhat + B.apply(w) - b)
                + nu0 * (w - w_hat))

    return apg(psi.prox, grad, rho * B.norm ** 2 + nu0, w_start,
               "w-subproblem")


def semistrong_step(state: SemiStrongState, problem: SemiStrongProblem,
                    sched: StrongSchedule) -> SemiStrongState:
    """One iteration of the semi-strongly convex constrained scheme."""
    k = state.k
    tau, rho, beta, eta = sched.at(k)
    tau_next = sched.tau(k + 1)
    f, psi, K, B, b = problem.f, problem.psi, problem.K, problem.B, problem.b
    nu0 = problem.resolved_nu0()

    K_xhat = K.apply(state.x_hat)
    w_new = _solve_w_subproblem(problem, rho, nu0, K_xhat, state.w_hat,
                                state.y_tilde, state.w)
    y_new = state.y_tilde + rho * (K_xhat + B.apply(w_new) - b)
    Kt_y = K.adjoint_apply(y_new)

    x_new, x_tilde_new = _prox_pair(f, state.x_hat, state.x_tilde, Kt_y, tau,
                                    rho, beta, sched.norm_K)
    x_hat_new = (1.0 - tau_next) * x_new + tau_next * x_tilde_new

    momentum = tau_next * (1.0 - tau) / tau
    w_hat_new = w_new + momentum * (w_new - state.w)

    resid_new = K.apply(x_new) + B.apply(w_new) - b
    y_tilde_new = state.y_tilde + eta * (resid_new - (1.0 - tau) * state.resid)
    y_bar_new = (1.0 - tau) * state.y_bar + tau * y_new

    check_finite(k, x=x_new, w=w_new, y=y_new, y_tilde=y_tilde_new)

    state.x = x_new
    state.x_tilde = x_tilde_new
    state.x_hat = x_hat_new
    state.w = w_new
    state.w_hat = w_hat_new
    state.y_tilde = y_tilde_new
    state.y_bar = y_bar_new
    state.resid = resid_new
    state.k = k + 1
    return state


# -- drivers -----------------------------------------------------------------

def _make_schedule(problem_mu, norm_K, opts: StrongOptions) -> StrongSchedule:
    return StrongSchedule(case=opts.case, gamma=opts.gamma, mu_f=problem_mu,
                          norm_K=norm_K, rho0=opts.rho0, c=opts.c,
                          enforce_rho0_bound=opts.enforce_rho0_bound)


def solve(problem: CompositeProblem, x0, y0, opts: StrongOptions, recorder=None):
    """Run the merged strongly convex update for opts.max_iters iterations;
    the recorder gets ``Kx=K x`` and ``Kty=K^T y`` with x and y_bar."""
    sched = _make_schedule(problem.f.mu, problem.K.norm, opts)
    state = init_state(problem, x0, y0)
    if recorder is not None:
        state.Kt_ybar = np.zeros(problem.p)  # see pd_general.PDState
    state = run(lambda s: step(s, problem, sched), state, opts.max_iters,
                opts.trace_every, recorder,
                lambda s: (s.x, s.y_bar, {"Kx": s.K_x, "Kty": s.Kt_ybar}))
    return state, sched


def solve_semistrong(problem: SemiStrongProblem, x0, w0, y0,
                     opts: StrongOptions, recorder=None):
    """Run the semi-strongly convex constrained scheme; the recorder gets
    ``w`` and the constraint residual ``resid = K x + B w - b``."""
    sched = _make_schedule(problem.f.mu, problem.K.norm, opts)
    state = init_semistrong_state(problem, x0, w0, y0)
    state = run(lambda s: semistrong_step(s, problem, sched), state,
                opts.max_iters, opts.trace_every, recorder,
                lambda s: (s.x, s.y_bar, {"w": s.w, "resid": s.resid}))
    return state, sched
