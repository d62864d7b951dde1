"""Problem generators and the benchmark harness.

Instances are generated with numpy's PCG64 generator, which is seedable and
produces identical streams across platforms, so every run is reproducible
bit-for-bit from (seed, config); the report embeds both.

An experiment is data: an instance config, whether it needs the reference
solution, the trace column its variants are measured on (F - F* on LAD, the
gap on the game) and a table of rows, each a label, a solver call and an
optional certificate factory.  One loop in :func:`run_experiment` runs the
rows; ``nspd solve`` shares :func:`make_instance` and :func:`solver`.
"""

from __future__ import annotations

import json
import numbers
import os
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import baselines, metrics, pd_general, pd_strong
from .driver import check_trace_every
from .errors import OracleFailureError, check_option
from .linop import LinearMap, save_triplets
from .problems import CompositeProblem, MatrixGame
from .prox import elastic_net, l1_norm, l1_shifted

__all__ = [
    "LadConfig",
    "GameConfig",
    "gen_lad",
    "gen_game",
    "ExperimentSpec",
    "EXPERIMENTS",
    "run_experiment",
    "Instance",
    "make_instance",
    "solver",
    "DESK_LAD",
    "DESK_GAME",
    "PAPER_LAD",
    "PAPER_GAME",
]


# -- configs -------------------------------------------------------------------

@dataclass(frozen=True)
class LadConfig:
    """Sparse-regression instance with an l1 data-fit term.

    b = K x_true + e where x_true is s-sparse and e is sparse Gaussian noise
    with standard deviation ``NOISE_SIGMA`` and density ``NOISE_DENSITY``.
    ``mu_f`` > 0 switches the regularizer from lam ||x||_1 to the elastic
    net lam ||x||_1 + (mu_f/2) ||x||^2.  ``correlated_fraction`` > 0 mixes
    that fraction of columns of K with their left neighbor (mixed column is
    rescaled to keep its original norm).
    """

    n: int = 200
    p: int = 64
    s: int = 8
    lam: float = 0.05
    mu_f: float = 0.0
    correlated_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_positive_int("n", self.n)
        _check_positive_int("p", self.p)
        check_option("s", self.s, f"be an integer in [1, p = {self.p}]",
                     lambda s: 1 <= s <= self.p, numbers.Integral)
        check_option("lam", self.lam)
        check_option("mu_f", self.mu_f, "be a non-negative number",
                     lambda m: m >= 0)
        check_option("correlated_fraction", self.correlated_fraction,
                     "lie in [0, 1]", lambda f: 0 <= f <= 1)
        _check_seed(self.seed)


@dataclass(frozen=True)
class GameConfig:
    """Sparse matrix game on a pair of simplexes, normalized to ||K|| = 1."""

    n: int = 100
    p: int = 200
    density: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _check_positive_int("n", self.n)
        _check_positive_int("p", self.p)
        check_option("density", self.density, "lie in (0, 1]",
                     lambda d: 0 < d <= 1)
        _check_seed(self.seed)


def _check_positive_int(name, value):
    check_option(name, value, "be a positive integer", kind=numbers.Integral)


def _check_seed(seed):
    check_option("seed", seed, "be a non-negative integer", lambda s: s >= 0,
                 numbers.Integral)


DESK_LAD = LadConfig()
PAPER_LAD = LadConfig(n=2000, p=640, s=80)
DESK_GAME = GameConfig()
PAPER_GAME = GameConfig(n=1000, p=2000)


# -- generators ------------------------------------------------------------------

NOISE_SIGMA = 0.1  # standard deviation of a LAD instance's noise entries
NOISE_DENSITY = 0.1  # chance that an entry of a LAD instance's b carries noise
GAME_MAX_DRAWS = 100  # gen_game's mask draws, past which it raises


def gen_lad(cfg: LadConfig):
    """Generate (CompositeProblem, x_true) for the l1 data-fit instance."""
    rng = np.random.default_rng(cfg.seed)
    K = rng.standard_normal((cfg.n, cfg.p))
    if cfg.correlated_fraction > 0:
        n_corr = int(np.ceil(cfg.correlated_fraction * cfg.p))
        for j in range(cfg.p - n_corr, cfg.p):
            if j == 0:
                continue
            mixed = 0.5 * K[:, j] + 0.5 * K[:, j - 1]
            K[:, j] = mixed * (np.linalg.norm(K[:, j]) / np.linalg.norm(mixed))
    x_true = np.zeros(cfg.p)
    support = rng.choice(cfg.p, size=cfg.s, replace=False)
    x_true[support] = rng.standard_normal(cfg.s)
    e = np.zeros(cfg.n)
    noisy = rng.random(cfg.n) < NOISE_DENSITY
    e[noisy] = NOISE_SIGMA * rng.standard_normal(int(noisy.sum()))
    b = K @ x_true + e
    op = LinearMap.from_dense(K)
    f = (l1_norm(cfg.p, cfg.lam) if cfg.mu_f == 0
         else elastic_net(cfg.p, cfg.lam, cfg.mu_f))
    return CompositeProblem(f, l1_shifted(b), op), x_true


def gen_game(cfg: GameConfig) -> MatrixGame:
    """Generate a sparse uniform game matrix rescaled to unit spectral norm.

    At paper scale only 10% of K's entries are nonzero, so
    ``LinearMap.from_dense_unit_norm`` keeps only CSR copies of K and of
    its transpose, built from K's buffer, which is then dropped.  The draws
    that pick the nonzeros go into that same buffer, for the game's peak
    memory: drawn into an array of their own, they make a
    matrix-sized array (16 MB at paper scale) that is freed before K
    exists, glibc then raises its mmap threshold, and the heap that serves
    the later matrix-sized arrays fragments (game-paper peaks at ~120
    against ~95 MB).  Dropping K once its CSR copies exist does not raise
    the peak.  The stream is that of drawing the mask into an array of its
    own.

    A mask with no nonzero is drawn again from the next seed, up to
    ``GAME_MAX_DRAWS`` draws in all; past them it raises ValueError.
    """
    K = np.empty((cfg.n, cfg.p))
    for seed in range(cfg.seed, cfg.seed + GAME_MAX_DRAWS):
        rng = np.random.default_rng(seed)
        rng.random(out=K)
        mask = K < cfg.density
        if mask.any():
            break
    else:
        raise ValueError(
            f"a {cfg.n}x{cfg.p} game at density {cfg.density!r} drew no "
            f"nonzero from seeds {cfg.seed} to {cfg.seed + GAME_MAX_DRAWS - 1}")
    K.fill(0.0)
    K[mask] = rng.uniform(-1.0, 1.0, size=int(mask.sum()))
    # from_dense_unit_norm converges sigma to 1e-14, so K / sigma has unit
    # norm to that accuracy: no second estimate is needed
    return MatrixGame(LinearMap.from_dense_unit_norm(K))


# -- experiment harness -------------------------------------------------------------

@dataclass
class ExperimentSpec:
    """One ``nspd run``.  ``epsilon``, the accuracy of the game's smoothed
    baseline, is read by the game alone: it takes 1e-3 when None, and the
    LAD experiments refuse it when set."""

    name: str  # lad-case1 | lad-case2 | game
    scale: str = "desk"  # desk | paper
    seed: int = 0
    max_iters: int = 10_000
    trace_every: int | str = 1
    out_dir: str = "runs"
    check: bool = False
    epsilon: Optional[float] = None

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.name!r}")
        check_option("scale", self.scale, "be 'desk' or 'paper'",
                     lambda s: s in ("desk", "paper"), str)
        _check_seed(self.seed)
        _check_positive_int("max_iters", self.max_iters)
        check_trace_every(self.trace_every)
        if self.name == "game" and self.epsilon is None:
            self.epsilon = 1e-3
        elif self.epsilon is not None:
            check_option("epsilon", self.epsilon, "be unset outside the game "
                         "and a positive number in it",
                         lambda e: self.name == "game" and e > 0)


@dataclass
class VariantResult:
    label: str
    final_metric: float
    slope: Optional[float]
    certificate: Optional[dict]
    certificate_ok: Optional[bool]
    error: Optional[str]
    wall_s: float  # solve plus trace CSV write


@dataclass(frozen=True)
class Instance:
    """A generated problem, its start point, ``recorder(trace)`` to measure
    runs on it, and the matrix game it came from, if any."""

    problem: CompositeProblem
    x0: np.ndarray
    y0: np.ndarray
    recorder: Callable
    game: Optional[MatrixGame] = None


def make_instance(cfg) -> Instance:
    """The instance of a LadConfig (start at zero, record F, G and the gap)
    or a GameConfig (start at the simplex centers, record the game gap)."""
    if isinstance(cfg, GameConfig):
        game = gen_game(cfg)
        return Instance(game.to_composite(), np.full(game.p, 1.0 / game.p),
                        np.full(game.n, 1.0 / game.n),
                        lambda trace: metrics.game_recorder(game, trace), game)
    problem, _ = gen_lad(cfg)
    return Instance(problem, np.zeros(problem.p), np.zeros(problem.n),
                    lambda trace: metrics.composite_recorder(problem, trace))


# method name -> (options class, solver), looked up when a run is built, so
# that wrappers installed on the module attributes take effect
_METHODS = {
    "pd_general": lambda: (pd_general.GeneralOptions, pd_general.solve),
    "pd_strong": lambda: (pd_strong.StrongOptions, pd_strong.solve),
    "cp": lambda: (baselines.BaselineConfig, baselines.solve_cp),
    "cp_scvx": lambda: (baselines.BaselineConfig, baselines.solve_cp_scvx),
    "admm": lambda: (baselines.BaselineConfig, baselines.solve_admm),
}


def solver(method: str, options: dict, inst: Instance):
    """``solve(recorder)``: the named composite method, with ``options`` for
    its options class, run on ``inst`` from its start point."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    options_cls, solve = _METHODS[method]()
    opts = options_cls(**options)
    return lambda recorder: solve(inst.problem, inst.x0, inst.y0, opts,
                                  recorder=recorder)


@dataclass(frozen=True)
class _Row:
    """One variant: ``solve(recorder)`` runs it; ``certificate(sched)``,
    when given, evaluates the bound its trace is checked against from the
    schedule the solve returned."""

    label: str
    solve: Callable
    certificate: Optional[Callable] = None


@dataclass(frozen=True)
class _Experiment:
    """A row's metric is the trace ``column``, less F* when ``reference``
    asks for the oracle; ``rows(inst, norm_K, ref)`` returns the rows in run
    order and the entries they add to the report."""

    config: object
    column: str
    reference: bool
    rows: Callable


def _budget(spec):
    return {"max_iters": spec.max_iters, "trace_every": spec.trace_every}


def _lad_config(spec, **case):
    base = DESK_LAD if spec.scale == "desk" else PAPER_LAD
    return replace(base, seed=spec.seed, **case)


def _lad_case1(spec) -> _Experiment:
    """pd_general (gamma 0.999, rho0 balanced by the reference), c in {1, 2},
    both certified; fixed-step and ADMM baselines over multiples of rho0."""

    def rows(inst, norm_K, ref):
        x0, y0, it = inst.x0, inst.y0, _budget(spec)
        M_g = inst.problem.g.lipschitz
        gamma = 0.999
        rho0 = pd_general.resolve_rho0("auto", gamma, norm_K, x0=x0, y0=y0,
                                       x_ref=ref.x, y_ref=ref.y)
        general = dict(it, gamma=gamma, rho0=rho0)
        return [
            _Row("pd_general_c1",
                 solver("pd_general", dict(general, c=1.0), inst),
                 lambda sched: metrics.certificate_general_primal(
                     x0, y0, ref.x, M_g, sched.rho0, sched.gamma, norm_K)),
            _Row("pd_general_c2",
                 solver("pd_general", dict(general, c=2.0), inst),
                 lambda sched: metrics.certificate_general_fast(
                     sched.c, inst.problem.primal_value(x0) - ref.F, x0, y0,
                     ref.x, ref.y, M_g, sched.rho0, sched.gamma, norm_K)),
            *(_Row(f"cp_rho{s:g}", solver("cp", dict(
                it, rho=s * rho0, beta=gamma / (norm_K ** 2 * s * rho0)),
                inst)) for s in (0.1, 1.0, 10.0)),
            *(_Row(f"admm_rho{s:g}", solver("admm", dict(it, rho=s * rho0),
                                            inst))
              for s in (0.5, 10.0, 30.0)),
        ], {"reference": ref.to_dict() | {"rho0_auto": float(rho0)}}

    return _Experiment(_lad_config(spec), "F", True, rows)


def _lad_case2(spec) -> _Experiment:
    """pd_strong on the elastic net: Case 1 at its certified rho0 and at 5x
    it (uncertified), Case 2 with c = 4; the accelerated baseline."""
    cfg = _lad_config(spec, mu_f=0.1, correlated_fraction=0.5)

    def rows(inst, norm_K, ref):
        x0, y0, it = inst.x0, inst.y0, _budget(spec)
        M_g, mu_f = inst.problem.g.lipschitz, cfg.mu_f
        gamma1 = 0.999
        rho0_1 = pd_strong.StrongSchedule(1, gamma1, mu_f,
                                          norm_K).rho0_bound()
        case1 = dict(it, case=1, gamma=gamma1)
        rho_cp = 1.0 / norm_K
        return [
            _Row("pd_strong_case1",
                 solver("pd_strong", dict(case1, rho0=rho0_1), inst),
                 lambda sched: metrics.certificate_strong_primal(
                     x0, y0, ref.x, M_g, sched.rho0, sched.gamma, norm_K)),
            _Row("pd_strong_case1_rho5x",
                 solver("pd_strong", dict(case1, rho0=5.0 * rho0_1,
                                          enforce_rho0_bound=False), inst)),
            _Row("pd_strong_case2_c4",
                 solver("pd_strong", dict(it, case=2, gamma=0.75, c=4.0),
                        inst),
                 lambda sched: metrics.certificate_strong_fast(
                     sched.c, inst.problem.primal_value(x0) - ref.F, x0, y0,
                     ref.x, ref.y, M_g, sched.rho0, sched.gamma, mu_f, norm_K)),
            *(_Row(f"cp_scvx_rho{s:g}", solver("cp_scvx", dict(
                it, rho=s * rho_cp), inst))
              for s in (0.01, 0.75, 1.0, 5.0)),
        ], {"reference": ref.to_dict()}

    return _Experiment(cfg, "F", True, rows)


def _game(spec) -> _Experiment:
    """pd_general with c in {1, 2}, c = 1 certified on the game gap; the
    smoothed accelerated gradient with mu scaled by {0.2, 1, 5}."""

    def rows(inst, norm_K, ref):
        game, it = inst.game, _budget(spec)
        p, n = game.p, game.n
        gamma, rho0 = 0.5, 1.0 / norm_K

        def smoothing(mu_scale):
            return lambda recorder: baselines.smoothing_solve(
                game, spec.epsilon, mu_scale=mu_scale, recorder=recorder)

        general = dict(it, gamma=gamma, rho0=rho0)
        return [
            _Row("pd_general_c1",
                 solver("pd_general", dict(general, c=1.0), inst),
                 lambda sched: metrics.certificate_game_gap(
                     p, n, sched.rho0, sched.gamma, norm_K)),
            _Row("pd_general_c2",
                 solver("pd_general", dict(general, c=2.0), inst)),
            *(_Row(f"smoothing_mu{m:g}", smoothing(m))
              for m in (0.2, 1.0, 5.0)),
        ], {"smoothing_iterations": baselines.smoothing_iterations(
            spec.epsilon, n, p, norm_K)}

    base = DESK_GAME if spec.scale == "desk" else PAPER_GAME
    return _Experiment(replace(base, seed=spec.seed), "gap", False, rows)


# experiment name -> its declaration; a declaration looks up the generators,
# solvers and recorders when it runs
EXPERIMENTS = {"lad-case1": _lad_case1, "lad-case2": _lad_case2, "game": _game}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Generate and write the instance, take ||K||, compute the reference if
    needed, run the rows in order (a row that raises does not stop the
    rest), and write a trace CSV per row, certificates and a report.

    Returns the report dict; the CLI maps report["exit_code"] to the process
    exit status (0 ok; with ``check``, 2 when a certificate is violated or a
    certified row failed to run; 3 oracle failure).
    """
    os.makedirs(spec.out_dir, exist_ok=True)
    report = _run_rows(spec, EXPERIMENTS[spec.name](spec))
    report["spec"] = asdict(spec)
    with open(os.path.join(spec.out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, default=str)
    return report


def _run_rows(spec: ExperimentSpec, exp: _Experiment) -> dict:
    def out(name):
        return os.path.join(spec.out_dir, name)

    inst = make_instance(exp.config)
    save_triplets(out("instance_K.txt"), inst.problem.K)
    if inst.problem.g.shift is not None:
        np.savetxt(out("instance_b.csv"), inst.problem.g.shift, delimiter=",")
    norm_K = inst.problem.K.norm
    ref = None
    if exp.reference:
        try:
            ref = metrics.reference_solution(inst.problem)
        except OracleFailureError as exc:
            return _report(inst, [], [], 3) | {"oracle_error": str(exc)}

    rows, extras = exp.rows(inst, norm_K, ref)
    offset = ref.F if ref is not None else 0.0
    k_lo = max(spec.max_iters // 100, 10)
    variants, certs, failed = [], [], False
    for row in rows:
        trace = metrics.Trace()
        recorder = inst.recorder(trace)
        t0 = time.perf_counter()
        err = solved = None
        try:
            solved = row.solve(recorder)
        except Exception as exc:  # a failing row must not abort the rest
            err = f"{type(exc).__name__}: {exc}"
        trace.to_csv(out(f"trace_{row.label}.csv"))
        wall = time.perf_counter() - t0
        values = trace.column(exp.column) - offset
        cert = ok = None
        if row.certificate is not None and err is None:
            cert = row.certificate(solved[1])
            ok = cert.check(trace.k, values)[0]
            certs.append(cert)
        failed |= row.certificate is not None and ok is not True
        variants.append(VariantResult(
            row.label, float(values[-1]) if trace.k else float("nan"),
            _slope_or_none(trace, exp.column, offset, k_lo),
            cert.to_dict() if cert else None, ok, err, wall))

    metrics.certificates_to_json(certs, out("certificates.json"))
    return _report(inst, variants, certs,
                   2 if spec.check and failed else 0) | extras


def _report(inst, variants, certs, exit_code):
    return {
        "variants": [asdict(v) for v in variants],
        "certificates": [c.to_dict() for c in certs],
        "terms": {t: {"kind": h.kind, "params": h.scalar_params}
                  for t, h in (("f", inst.problem.f), ("g", inst.problem.g))},
        "oracle_ok": exit_code != 3,
        "exit_code": exit_code,
    }


def _slope_or_none(trace, column, offset, k_lo):
    """The rate slope over [k_lo, last recorded k] (for a solver stopped at
    max_iters, the records of [k_lo, max_iters]), or None."""
    try:
        return metrics.trace_slope(trace, column, k_lo,
                                   trace.k[-1] if trace.k else k_lo,
                                   offset=offset)
    except ValueError:
        return None
