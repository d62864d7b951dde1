"""Non-stationary primal-dual method for general convex composite problems.

The merged update (:func:`step`) is a primal-dual iteration with a
three-point dual correction and dynamic parameters tau_k = c/(k+c),
rho_k = rho0/tau_k, beta_k = gamma/(||K||^2 rho_k), eta_k = (1-gamma) rho_k.
The split form (:func:`split_step`) keeps the auxiliary residual variable r
explicit and alternately minimizes the penalized Lagrangian; eliminating r
through the Moreau decomposition reproduces the merged update exactly, which
the test suite uses as a mutual cross-check.

Equality-constrained problems min f + psi s.t. Kx = b with smooth psi
(:func:`solve_constrained`) run the same :func:`step` on g the indicator of
{b}, whose conjugate prox is a multiplier ascent step; the step adds
grad psi(x^_k) to the x-gradient and beta_k absorbs the curvature of psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .driver import run
from .errors import check_finite, check_option
from .problems import CompositeProblem, EqConstrainedProblem
from .prox import ProxFunction, conjugate_prox, point_indicator

__all__ = [
    "GeneralSchedule",
    "GeneralOptions",
    "PDState",
    "RawState",
    "init_state",
    "step",
    "init_split_state",
    "split_step",
    "solve",
    "solve_constrained",
]


# -- parameter schedule ----------------------------------------------------

@dataclass(frozen=True)
class GeneralSchedule:
    """Dynamic parameter sequences for the general convex method.

    tau_k = c/(k+c) so tau_0 = 1; rho_k = rho0/tau_k grows linearly;
    beta_k = gamma/(||K||^2 rho_k) shrinks accordingly, keeping
    rho_k beta_k ||K||^2 = gamma < 1; eta_k = (1-gamma) rho_k < rho_k.
    """

    c: float = 1.0
    gamma: float = 0.5
    rho0: float = 1.0
    norm_K: float = 1.0

    def __post_init__(self):
        check_option("c", self.c, "satisfy c >= 1", lambda c: c >= 1)
        check_option("gamma", self.gamma, "lie in (0, 1)", lambda g: 0 < g < 1)
        check_option("rho0", self.rho0)
        check_option("norm_K", self.norm_K)

    def tau(self, k: int) -> float:
        return self.c / (k + self.c)

    def at(self, k: int):
        """Return (tau_k, rho_k, beta_k, eta_k)."""
        tau = self.tau(k)
        rho = self.rho0 / tau
        beta = self.gamma / (self.norm_K ** 2 * rho)
        eta = (1.0 - self.gamma) * rho
        return tau, rho, beta, eta


@dataclass
class GeneralOptions:
    """Options for :func:`solve` and :func:`solve_constrained`, which run
    exactly ``max_iters`` steps.

    rho0 may be the string "auto", which means 1/||K||; the rule balanced
    by a reference pair is :func:`resolve_rho0` with that pair.
    """

    c: float = 1.0
    gamma: float = 0.5
    rho0: Union[float, str] = "auto"
    max_iters: int = 1000
    trace_every: Union[int, str] = 1


def resolve_rho0(rho0, gamma, norm_K, x0=None, y0=None, x_ref=None, y_ref=None):
    """Resolve the "auto" initial penalty from a reference pair if given;
    any other rho0 must be a positive number."""
    if rho0 != "auto":
        return float(check_option("rho0", rho0,
                                  "be 'auto' or a positive number"))
    if x_ref is not None and y_ref is not None:
        dx = float(np.linalg.norm(np.asarray(x0) - x_ref))
        dy = float(np.linalg.norm(np.asarray(y0) - y_ref))
        if dx > 0 and dy > 0:
            return 5.0 * np.sqrt(gamma / (1.0 - gamma)) * dy / (norm_K * dx)
    return 1.0 / norm_K


# -- merged primal-dual form ------------------------------------------------

@dataclass
class PDState:
    """Iterates of the merged form, with cached K-products so each step of
    :func:`step` performs exactly one forward and one adjoint application
    (K x^ extrapolates K x as x^ extrapolates x).

    ``u`` carries the previous step's term of the three-point dual
    correction (see :func:`_merged_finish`); it is zero at k = 0.
    ``Kt_ybar``, when not None, is K^T y_bar kept for the recorder as a
    running average of the steps' K^T y products, summed in a different
    order than K^T y_bar, so equal to it up to rounding.  tau_0 = 1 in
    every schedule, so y_bar_1 = y_1 whatever y_bar_0 is, and the running
    product may start from zeros.
    """

    k: int
    x: np.ndarray
    x_hat: np.ndarray
    y: np.ndarray
    y_tilde: np.ndarray
    y_bar: np.ndarray
    K_x: np.ndarray
    K_xhat: np.ndarray
    u: np.ndarray
    Kt_ybar: Optional[np.ndarray] = None


def init_state(problem: CompositeProblem, x0, y0) -> PDState:
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    Kx0 = problem.K.apply(x0)
    return PDState(k=0, x=x0.copy(), x_hat=x0.copy(), y=y0.copy(),
                   y_tilde=y0.copy(), y_bar=y0.copy(), K_x=Kx0,
                   K_xhat=Kx0.copy(), u=np.zeros_like(Kx0))


def constrained_beta(sched: GeneralSchedule, rho: float, L_psi: float) -> float:
    """Primal step absorbing the curvature of the smooth term."""
    return sched.gamma / (sched.norm_K ** 2 * rho + sched.gamma * L_psi)


def step(state: PDState, problem: CompositeProblem, sched: GeneralSchedule,
         psi: Optional[ProxFunction] = None) -> PDState:
    """One iteration of the merged primal-dual update.

    A smooth term ``psi`` of the primal objective, when given, is
    linearized at x^_k: its gradient joins K^T y_{k+1} and beta_k comes
    from :func:`constrained_beta`.
    """
    k = state.k
    tau, rho, beta, eta = sched.at(k)
    tau_next = sched.tau(k + 1)

    f, g, K = problem.f, problem.g, problem.K

    y_new = conjugate_prox(g, state.y_tilde + rho * state.K_xhat, rho)
    Kt_y = K.adjoint_apply(y_new)
    if psi is None:
        x_new = f.prox(state.x_hat - beta * Kt_y, beta)
    else:
        beta = constrained_beta(sched, rho, psi.smooth_lipschitz)
        x_new = f.prox(state.x_hat - beta * (Kt_y + psi.gradient(state.x_hat)),
                       beta)

    momentum = tau_next * (1.0 - tau) / tau
    x_hat_new = x_new + momentum * (x_new - state.x)
    K_x_new = K.apply(x_new)
    return _merged_finish(state, tau, rho, eta, y_new, Kt_y, x_new, x_hat_new,
                          K_x_new, K_x_new + momentum * (K_x_new - state.K_x))


def _merged_finish(state, tau, rho, eta, y_new, Kt_y, x_new, x_hat_new,
                   K_x_new, K_xhat_new):
    """Finish a merged step of either method from its new y, K^T y, x, x^
    and their K products: the three-point dual correction, the dual
    average, the finiteness check, and only then the state update.

    Eliminating the split residual gives

        y~_{k+1} = y~_k + eta (K x_{k+1} - K x^_k)
                   + (eta/rho_k) (y_{k+1} - y~_k)
                   - eta (1 - tau_k) [(K x_k - K x^_{k-1})
                                      + (y_k - y~_{k-1})/rho_{k-1}],

    that is y~_{k+1} = y~_k + eta (u_{k+1} - (1 - tau_k) u_k) with
    u_{k+1} = K x_{k+1} - K x^_k + (y_{k+1} - y~_k)/rho_k, which the next
    step reads back from ``state.u``.
    """
    k = state.k
    u_new = (K_x_new - state.K_xhat) + (y_new - state.y_tilde) / rho
    y_tilde_new = state.y_tilde + eta * (u_new - (1.0 - tau) * state.u)
    y_bar_new = (1.0 - tau) * state.y_bar + tau * y_new

    check_finite(k, x=x_new, y=y_new, y_tilde=y_tilde_new)

    if state.Kt_ybar is not None:
        state.Kt_ybar = (1.0 - tau) * state.Kt_ybar + tau * Kt_y

    state.x = x_new
    state.x_hat = x_hat_new
    state.y_tilde = y_tilde_new
    state.y = y_new
    state.y_bar = y_bar_new
    state.K_x = K_x_new
    state.K_xhat = K_xhat_new
    state.u = u_new
    state.k = k + 1
    return state


# -- split form (explicit residual), used as a cross-check oracle -----------

@dataclass
class RawState:
    """Iterates of the split form: the residual r and the extrapolation
    sequence x_tilde are kept explicitly."""

    k: int
    x: np.ndarray
    x_tilde: np.ndarray
    r: np.ndarray
    y_tilde: np.ndarray
    y_bar: np.ndarray
    y: np.ndarray  # dual point recovered from the residual update


def init_split_state(problem: CompositeProblem, x0, y0) -> RawState:
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    # r0 = K x0 so the initial split residual K x0 - r0 vanishes
    return RawState(k=0, x=x0.copy(), x_tilde=x0.copy(),
                    r=problem.K.apply(x0), y_tilde=y0.copy(),
                    y_bar=y0.copy(), y=y0.copy())


def split_step(state: RawState, problem: CompositeProblem,
               sched: GeneralSchedule) -> RawState:
    """One iteration of the split alternating scheme."""
    def primal(x_hat, grad, tau, rho, beta):
        x_new = problem.f.prox(x_hat - beta * grad, beta)
        return x_new, state.x_tilde + (x_new - x_hat) / tau

    return _split_step(state, problem, sched, primal)


def _split_step(state: RawState, problem, sched, primal) -> RawState:
    """One split iteration of either method; ``primal(x^, grad, tau, rho,
    beta)`` returns the method's new (x, x~) from the gradient K^T y."""
    k = state.k
    tau, rho, beta, eta = sched.at(k)
    g, K = problem.g, problem.K

    x_hat = (1.0 - tau) * state.x + tau * state.x_tilde
    K_xhat = K.apply(x_hat)
    r_new = g.prox(state.y_tilde / rho + K_xhat, 1.0 / rho)
    y_new = state.y_tilde + rho * (K_xhat - r_new)
    x_new, x_tilde_new = primal(x_hat, K.adjoint_apply(y_new), tau, rho, beta)
    y_tilde_new = state.y_tilde + eta * (K.apply(x_new) - r_new
                                         - (1.0 - tau) * (K.apply(state.x) - state.r))
    y_bar_new = (1.0 - tau) * state.y_bar + tau * y_new

    check_finite(k, x=x_new, y=y_new, y_tilde=y_tilde_new)

    state.x = x_new
    state.x_tilde = x_tilde_new
    state.r = r_new
    state.y_tilde = y_tilde_new
    state.y_bar = y_bar_new
    state.y = y_new
    state.k = k + 1
    return state


# -- drivers -----------------------------------------------------------------

def _schedule(problem, opts: GeneralOptions):
    rho0 = resolve_rho0(opts.rho0, opts.gamma, problem.K.norm)
    return GeneralSchedule(c=opts.c, gamma=opts.gamma, rho0=rho0,
                           norm_K=problem.K.norm)


def solve(problem: CompositeProblem, x0, y0, opts: GeneralOptions, recorder=None):
    """Run the merged update for opts.max_iters iterations.

    Returns the final :class:`PDState` and the schedule.  ``recorder`` (if
    given) is called as ``recorder(k, x, y, t, Kx=K x, Kty=K^T y)`` with the
    non-ergodic primal iterate and the averaged dual iterate at the trace
    cadence.
    """
    sched = _schedule(problem, opts)
    state = init_state(problem, x0, y0)
    if recorder is not None:
        state.Kt_ybar = np.zeros(problem.p)  # see PDState
    state = run(lambda s: step(s, problem, sched), state, opts.max_iters,
                opts.trace_every, recorder,
                lambda s: (s.x, s.y_bar, {"Kx": s.K_x, "Kty": s.Kt_ybar}))
    return state, sched


def solve_constrained(problem: EqConstrainedProblem, x0, y0, opts: GeneralOptions,
                      recorder=None):
    """Run :func:`step` on f + indicator_{b}(Kx) with ``problem.psi`` as
    the smooth term; the recorder gets ``Kx=K x``."""
    composite = CompositeProblem(problem.f, point_indicator(problem.b),
                                 problem.K)
    sched = _schedule(problem, opts)
    state = init_state(composite, x0, y0)
    state = run(lambda s: step(s, composite, sched, psi=problem.psi), state,
                opts.max_iters, opts.trace_every, recorder,
                lambda s: (s.x, s.y_bar, {"Kx": s.K_x}))
    return state, sched
