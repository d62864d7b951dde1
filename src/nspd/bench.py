"""Problem generators and the benchmark harness.

Instances are generated with numpy's PCG64 generator, which is seedable and
produces identical streams across platforms, so every run is reproducible
bit-for-bit from (seed, config); the report embeds both.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import baselines, metrics, pd_general, pd_strong
from .errors import OracleFailureError
from .linop import LinearMap, save_triplets
from .problems import CompositeProblem, MatrixGame
from .prox import elastic_net, l1_norm, l1_shifted

__all__ = [
    "LadConfig",
    "GameConfig",
    "gen_lad",
    "gen_game",
    "ExperimentSpec",
    "run_experiment",
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
    with standard deviation ``noise_sigma`` and density ``noise_density``.
    ``mu_f`` > 0 switches the regularizer from lam ||x||_1 to the elastic
    net lam ||x||_1 + (mu_f/2) ||x||^2.  ``correlated_fraction`` > 0 mixes
    that fraction of columns of K with their left neighbor (mixed column is
    rescaled to keep its original norm).
    """

    n: int = 200
    p: int = 64
    s: int = 8
    lam: float = 0.05
    noise_sigma: float = 0.1
    noise_density: float = 0.1
    mu_f: float = 0.0
    correlated_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.s <= self.p):
            raise ValueError("s must lie in (0, p]")
        if not (0 <= self.noise_density <= 1):
            raise ValueError("noise_density must lie in [0, 1]")
        if not (0 <= self.correlated_fraction <= 1):
            raise ValueError("correlated_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class GameConfig:
    """Sparse matrix game on a pair of simplexes, normalized to ||K|| = 1."""

    n: int = 100
    p: int = 200
    density: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.density <= 1):
            raise ValueError("density must lie in (0, 1]")


DESK_LAD = LadConfig()
PAPER_LAD = LadConfig(n=2000, p=640, s=80)
DESK_GAME = GameConfig()
PAPER_GAME = GameConfig(n=1000, p=2000)


# -- generators ------------------------------------------------------------------

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
    noisy = rng.random(cfg.n) < cfg.noise_density
    e[noisy] = cfg.noise_sigma * rng.standard_normal(int(noisy.sum()))
    b = K @ x_true + e
    op = LinearMap.from_dense(K)
    f = (l1_norm(cfg.p, cfg.lam) if cfg.mu_f == 0
         else elastic_net(cfg.p, cfg.lam, cfg.mu_f))
    return CompositeProblem(f, l1_shifted(b), op), x_true


def gen_game(cfg: GameConfig) -> MatrixGame:
    """Generate a sparse uniform game matrix rescaled to unit spectral norm.

    The matrix is stored dense (``K.matrix``); at paper scale
    ``LinearMap.from_dense`` multiplies it through CSR, because only 10% of
    its entries are nonzero.  The draws that pick the nonzeros go into K's
    own buffer, which the map then takes without a copy, for the game's peak
    memory: freeing a matrix-sized array (16 MB at paper scale) makes glibc
    raise its mmap threshold, and the heap that then serves such arrays
    fragments, ~10% more peak memory.  The stream is that of drawing the
    mask into an array of its own.
    """
    K = np.empty((cfg.n, cfg.p))
    seed = cfg.seed
    while True:
        rng = np.random.default_rng(seed)
        rng.random(out=K)
        mask = K < cfg.density
        if mask.any():
            break
        seed += 1  # all-zero draw: retry with the next seed
    K.fill(0.0)
    K[mask] = rng.uniform(-1.0, 1.0, size=int(mask.sum()))
    # sigma is converged to 1e-14, so K / sigma has unit norm to that
    # accuracy: no second estimate is needed
    return MatrixGame(LinearMap._unit_norm_in_place(
        K, tol=1e-14, max_iters=50_000, seed=0))


# -- experiment harness -------------------------------------------------------------

@dataclass
class ExperimentSpec:
    name: str  # lad-case1 | lad-case2 | game
    scale: str = "desk"
    seed: int = 0
    max_iters: int = 10_000
    reference_budget: int = 1_000_000
    trace_every: int | str = 1
    out_dir: str = "runs"
    check: bool = False
    epsilon: float = 1e-3  # smoothing accuracy for the game experiment


@dataclass
class VariantResult:
    label: str
    final_metric: float
    slope: Optional[float]
    certificate: Optional[dict]
    certificate_ok: Optional[bool]
    error: Optional[str]
    wall_s: float  # solve plus trace CSV write, as timed by _run_variant


def _slope_or_none(trace, column, offset, k_lo, k_hi):
    try:
        return metrics.trace_slope(trace, column, k_lo, k_hi, offset=offset)
    except ValueError:
        return None


def _run_variant(label, solve_fn, trace, out_dir):
    t0 = time.perf_counter()
    err = None
    try:
        solve_fn()
    except Exception as exc:  # per-variant divergence must not abort the rest
        err = f"{type(exc).__name__}: {exc}"
    trace.to_csv(os.path.join(out_dir, f"trace_{label}.csv"))
    return err, time.perf_counter() - t0


def run_experiment(spec: ExperimentSpec) -> dict:
    """Generate the instance, compute a reference, run every solver variant,
    write one trace CSV per variant plus certificates and a summary report.

    Returns the report dict; the CLI maps report["exit_code"] to the process
    exit status (0 ok, 2 certificate violation with --check, 3 oracle
    failure).
    """
    os.makedirs(spec.out_dir, exist_ok=True)
    if spec.name == "lad-case1":
        report = _run_lad_case1(spec)
    elif spec.name == "lad-case2":
        report = _run_lad_case2(spec)
    elif spec.name == "game":
        report = _run_game(spec)
    else:
        raise ValueError(f"unknown experiment {spec.name!r}")
    report["spec"] = asdict(spec)
    with open(os.path.join(spec.out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, default=str)
    return report


def _summary(variants, certs, oracle_ok, check):
    exit_code = 0
    if not oracle_ok:
        exit_code = 3
    elif check and any(v.certificate_ok is False for v in variants):
        exit_code = 2
    return {
        "variants": [asdict(v) for v in variants],
        "certificates": [c.to_dict() for c in certs],
        "oracle_ok": oracle_ok,
        "exit_code": exit_code,
    }


def _lad_configs(spec, case):
    cfg = DESK_LAD if spec.scale == "desk" else PAPER_LAD
    overrides = {"seed": spec.seed}
    if case == 2:
        overrides.update(mu_f=0.1, correlated_fraction=0.5)
    return LadConfig(**{**asdict(cfg), **overrides})


def _run_lad_case1(spec: ExperimentSpec) -> dict:
    cfg = _lad_configs(spec, 1)
    problem, x_true = gen_lad(cfg)
    save_triplets(os.path.join(spec.out_dir, "instance_K.txt"), problem.K)
    np.savetxt(os.path.join(spec.out_dir, "instance_b.csv"),
               problem.g.shift, delimiter=",")
    norm_K = problem.K.norm
    x0, y0 = np.zeros(cfg.p), np.zeros(cfg.n)

    try:
        ref = metrics.reference_solution(problem, spec.reference_budget)
    except OracleFailureError as exc:
        return _summary([], [], False, spec.check) | {"oracle_error": str(exc)}

    gamma = 0.999
    rho0 = pd_general.resolve_rho0("auto", gamma, norm_K, x0=x0, y0=y0,
                                   x_ref=ref.x, y_ref=ref.y)
    k_lo, k_hi = max(spec.max_iters // 100, 10), spec.max_iters
    variants, certs = [], []

    for c in (1.0, 2.0):
        label = f"pd_general_c{int(c)}"
        trace = metrics.Trace()
        rec = metrics.composite_recorder(problem, trace)
        opts = pd_general.GeneralOptions(c=c, gamma=gamma, rho0=rho0,
                                      max_iters=spec.max_iters,
                                      trace_every=spec.trace_every)
        err, wall = _run_variant(label, lambda: pd_general.solve(
            problem, x0, y0, opts, recorder=rec), trace, spec.out_dir)
        cert = None
        ok = None
        if err is None:
            if c == 1.0:
                cert = metrics.certificate_general_primal(
                    x0, y0, ref.x, problem.g.lipschitz, rho0, gamma, norm_K)
            else:
                cert = metrics.certificate_general_fast(
                    c, problem.primal_value(x0) - ref.F, x0, y0, ref.x, ref.y,
                    problem.g.lipschitz, rho0, gamma, norm_K)
            ok = cert.check(trace.k, trace.column("F") - ref.F)[0]
            certs.append(cert)
        variants.append(VariantResult(
            label,
            trace.F[-1] - ref.F if trace.F else float("nan"),
            _slope_or_none(trace, "F", ref.F, k_lo, k_hi),
            cert.to_dict() if cert else None, ok, err, wall))

    for scale in (0.1, 1.0, 10.0):
        label = f"cp_rho{scale:g}"
        trace = metrics.Trace()
        rec = metrics.composite_recorder(problem, trace)
        cfg_b = baselines.BaselineConfig(
            rho=scale * rho0, beta=gamma / (norm_K ** 2 * scale * rho0),
            max_iters=spec.max_iters, trace_every=spec.trace_every)
        err, wall = _run_variant(label, lambda: baselines.solve_cp(
            problem, x0, y0, cfg_b, recorder=rec), trace, spec.out_dir)
        variants.append(VariantResult(
            label,
            trace.F[-1] - ref.F if trace.F else float("nan"),
            _slope_or_none(trace, "F", ref.F, k_lo, k_hi), None, None, err,
            wall))

    for scale in (0.5, 10.0, 30.0):
        label = f"admm_rho{scale:g}"
        trace = metrics.Trace()
        rec = metrics.composite_recorder(problem, trace)
        cfg_b = baselines.BaselineConfig(rho=scale * rho0,
                                         max_iters=spec.max_iters,
                                         trace_every=spec.trace_every)
        err, wall = _run_variant(label, lambda: baselines.solve_admm(
            problem, x0, y0, cfg_b, recorder=rec), trace, spec.out_dir)
        variants.append(VariantResult(
            label,
            trace.F[-1] - ref.F if trace.F else float("nan"),
            _slope_or_none(trace, "F", ref.F, k_lo, k_hi), None, None, err,
            wall))

    report = _summary(variants, certs, True, spec.check)
    report["reference"] = ref.to_dict() | {"rho0_auto": float(rho0)}
    metrics.certificates_to_json(certs, os.path.join(spec.out_dir,
                                                     "certificates.json"))
    return report


def _run_lad_case2(spec: ExperimentSpec) -> dict:
    cfg = _lad_configs(spec, 2)
    problem, x_true = gen_lad(cfg)
    save_triplets(os.path.join(spec.out_dir, "instance_K.txt"), problem.K)
    norm_K = problem.K.norm
    mu_f = cfg.mu_f
    x0, y0 = np.zeros(cfg.p), np.zeros(cfg.n)

    try:
        ref = metrics.reference_solution(problem, spec.reference_budget)
    except OracleFailureError as exc:
        return _summary([], [], False, spec.check) | {"oracle_error": str(exc)}

    k_lo, k_hi = max(spec.max_iters // 100, 10), spec.max_iters
    variants, certs = [], []
    gamma1 = 0.999
    Gamma1 = 2.0 - 1.0 / gamma1
    rho0_1 = Gamma1 * mu_f / (2.0 * norm_K ** 2)

    strong_variants = [
        ("pd_strong_case1", pd_strong.StrongOptions(
            case=1, gamma=gamma1, rho0=rho0_1, max_iters=spec.max_iters,
            trace_every=spec.trace_every), True),
        ("pd_strong_case1_rho5x", pd_strong.StrongOptions(
            case=1, gamma=gamma1, rho0=5.0 * rho0_1, max_iters=spec.max_iters,
            trace_every=spec.trace_every, enforce_rho0_bound=False), False),
        ("pd_strong_case2_c4", pd_strong.StrongOptions(
            case=2, gamma=0.75, c=4.0, max_iters=spec.max_iters,
            trace_every=spec.trace_every), True),
    ]
    for label, opts, certify in strong_variants:
        trace = metrics.Trace()
        rec = metrics.composite_recorder(problem, trace)
        err, wall = _run_variant(label, lambda: pd_strong.solve(
            problem, x0, y0, opts, recorder=rec), trace, spec.out_dir)
        cert, ok = None, None
        if err is None and certify:
            if opts.case == 1:
                cert = metrics.certificate_strong_primal(
                    x0, y0, ref.x, problem.g.lipschitz, opts.rho0,
                    opts.gamma, norm_K)
            else:
                sched = pd_strong.StrongSchedule(2, opts.gamma, mu_f, norm_K,
                                                 c=opts.c)
                cert = metrics.certificate_strong_fast(
                    opts.c, problem.primal_value(x0) - ref.F, x0, y0, ref.x,
                    ref.y, problem.g.lipschitz, sched.rho0, opts.gamma, mu_f,
                    norm_K)
            ok = cert.check(trace.k, trace.column("F") - ref.F)[0]
            certs.append(cert)
        variants.append(VariantResult(
            label,
            trace.F[-1] - ref.F if trace.F else float("nan"),
            _slope_or_none(trace, "F", ref.F, k_lo, k_hi),
            cert.to_dict() if cert else None, ok, err, wall))

    rho_cp = 1.0 / norm_K
    for scale in (0.01, 0.75, 1.0, 5.0):
        label = f"cp_scvx_rho{scale:g}"
        trace = metrics.Trace()
        rec = metrics.composite_recorder(problem, trace)
        cfg_b = baselines.BaselineConfig(rho=scale * rho_cp, mu_f=mu_f,
                                         max_iters=spec.max_iters,
                                         trace_every=spec.trace_every)
        err, wall = _run_variant(label, lambda: baselines.solve_cp_scvx(
            problem, x0, y0, cfg_b, recorder=rec), trace, spec.out_dir)
        variants.append(VariantResult(
            label,
            trace.F[-1] - ref.F if trace.F else float("nan"),
            _slope_or_none(trace, "F", ref.F, k_lo, k_hi), None, None, err,
            wall))

    report = _summary(variants, certs, True, spec.check)
    report["reference"] = ref.to_dict()
    metrics.certificates_to_json(certs, os.path.join(spec.out_dir,
                                                     "certificates.json"))
    return report


def _run_game(spec: ExperimentSpec) -> dict:
    cfg = DESK_GAME if spec.scale == "desk" else PAPER_GAME
    cfg = GameConfig(**{**asdict(cfg), "seed": spec.seed})
    game = gen_game(cfg)
    problem = game.to_composite()
    save_triplets(os.path.join(spec.out_dir, "instance_K.txt"), game.K)
    norm_K = game.K.norm
    p, n = game.p, game.n
    x0 = np.full(p, 1.0 / p)
    y0 = np.full(n, 1.0 / n)

    k_lo, k_hi = max(spec.max_iters // 100, 10), spec.max_iters
    variants, certs = [], []

    for c in (1.0, 2.0):
        label = f"pd_general_c{int(c)}"
        trace = metrics.Trace()
        rec = metrics.game_recorder(game, trace)
        opts = pd_general.GeneralOptions(c=c, gamma=0.5, rho0=1.0 / norm_K,
                                      max_iters=spec.max_iters,
                                      trace_every=spec.trace_every)
        err, wall = _run_variant(label, lambda: pd_general.solve(
            problem, x0, y0, opts, recorder=rec), trace, spec.out_dir)
        cert, ok = None, None
        if err is None and c == 1.0:
            # sup of ||x0 - x||^2 over the simplex from the uniform start
            # is attained at a vertex: 1 - 1/p
            dx_sup2 = 1.0 - 1.0 / p
            dy_sup2 = 1.0 - 1.0 / n
            const = (opts.rho0 * norm_K ** 2 * dx_sup2 / opts.gamma
                     + dy_sup2 / ((1.0 - opts.gamma) * opts.rho0))
            cert = metrics.Certificate("general_gap_simplex", const, 1,
                                       lambda k: 1.0 / (2.0 * k), "1/(2k)",
                                       "exact",
                                       {"rho0": opts.rho0, "gamma": opts.gamma})
            ok = cert.check(trace.k, trace.column("gap"))[0]
            certs.append(cert)
        variants.append(VariantResult(
            label,
            trace.gap[-1] if trace.gap else float("nan"),
            _slope_or_none(trace, "gap", 0.0, k_lo, k_hi),
            cert.to_dict() if cert else None, ok, err, wall))

    for mu_scale in (0.2, 1.0, 5.0):
        label = f"smoothing_mu{mu_scale:g}"
        trace = metrics.Trace()
        rec = metrics.game_recorder(game, trace)
        err, wall = _run_variant(label, lambda: baselines.smoothing_solve(
            game, spec.epsilon, mu_scale=mu_scale, recorder=rec),
            trace, spec.out_dir)
        variants.append(VariantResult(
            label,
            trace.gap[-1] if trace.gap else float("nan"),
            _slope_or_none(trace, "gap", 0.0, k_lo,
                           trace.k[-1] if trace.k else k_hi),
            None, None, err, wall))

    report = _summary(variants, certs, True, spec.check)
    report["smoothing_iterations"] = baselines.smoothing_iterations(
        spec.epsilon, n, p, norm_K)
    metrics.certificates_to_json(certs, os.path.join(spec.out_dir,
                                                     "certificates.json"))
    return report
