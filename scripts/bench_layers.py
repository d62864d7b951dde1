"""Time one layer of nspd in two checkouts, before and after a change.

    python scripts/bench_layers.py <layer> --before <other checkout>/src [--tier1]

Each repeat runs the layer once per side, ``--before`` and ``--after``
(default: this checkout's ``src``), each in a child process of its own with
``PYTHONPATH`` set to that ``src`` and the layer's BLAS thread count.  The
child runs the layer's function from this script, which returns
``{figure: number}``, so one function times both checkouts.  Repeats
alternate which side goes first, so both sides share the machine's drift.
The results go to ``BENCH_<layer>.json`` in the repository root (or to
``--out``): ``{median, runs}`` per side and figure, the environment and the
command.  With ``--tier1`` each side's checkout also runs the Tier-1
command once, ``PYTHONPATH=<src> python -m pytest -q
--continue-on-collection-errors``, for its wall time, status and summary.

The layers (``LAYERS``; a timed call is the mean over as many calls as fill
``--batch-s`` seconds, after a quarter of that as warm-up):

``step``      us per ``pd_general.step`` on lad1-desk (c = 2, gamma = 0.999,
              rho0 = 1/||K||, the benchmark's throughput solve),
              ``pd_strong.step`` on lad2-desk (Case 2, c = 4, gamma = 0.75),
              ``baselines.cp_step`` on lad1-desk (rho = 1) and
              ``baselines.cp_scvx_step`` on lad2-desk (rho = 1/||K||,
              mu_f = 0.1), each along one continuing run; per
              ``conjugate_prox`` of each closed form at the size the
              experiments use it; per soft-thresholding
              prox of ``l1_norm``; per ``check_finite`` of the three
              vectors ``pd_general.step`` checks.
``record``    us per recorder call as the driver makes it after 100 steps:
              ``composite_recorder`` on lad1-desk and lad2-desk (the solves
              above) and ``game_recorder`` on the paper game (c = 1,
              gamma = 0.5); per ``Trace.to_csv`` of a 100-row trace; per
              throughput solve (100, 100 and 10 iterations), bare and
              recorded at every iteration with its trace CSV written.
``setup``     seconds and MiB of a run's set-up, each part in a fresh
              interpreter: ``-X importtime`` of ``import nspd``; a first
              and a second ``gen_lad`` plus ``.norm`` of lad1/lad2-desk,
              and ``gen_game`` at paper scale; the time from starting the
              interpreter to the first instance being ready; the peak and
              held memory after the first (``VmHWM``/``VmRSS``).
``oracle``    seconds of ``metrics.reference_solution`` and of its exact arm
              on each instance ``tests/test_acceptance.py`` hands it, with
              the suite's seeds, and the F and residual it returns.
``norm``      seconds per ``estimate_norm`` at its defaults (what
              ``LinearMap.norm`` runs) on lad1/lad2-desk, lad1-paper and
              the paper game's matrix before its scaling, its step count
              and its relative error against ``np.linalg.svd``; seconds per
              ``gen_game`` at paper scale, norm estimates included.
``products``  us per K and K^T product, dense BLAS against CSR (``S @ x``,
              ``St @ y`` with ``St = S.T.tocsr()``, and ``S.T @ y``, a CSC
              view), per benchmark size and density of a matrix with
              nonzeros uniform in [-1, 1], with its nonzero share and
              whether ``from_dense`` picks CSR (1) or dense (0): the
              evidence for ``linop._CSR_MIN_ENTRIES``/``_CSR_MAX_DENSITY``.
              Made under one BLAS thread and under the library default.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_CHILD = ("import json, sys; sys.path.insert(0, {!r}); import bench_layers; "
          "print(json.dumps(bench_layers.LAYERS[sys.argv[1]].figures("
          "json.loads(sys.argv[2]))))")


def _per_call(fn, batch_s):
    """Seconds per call of ``fn``, the mean over a batch of ``batch_s``."""
    t0, calls = time.perf_counter(), 0
    while time.perf_counter() - t0 < batch_s / 4:  # warm up, size the batch
        fn()
        calls += 1
    per_batch = max(1, int(batch_s * calls / (time.perf_counter() - t0)))
    t0 = time.perf_counter()
    for _ in range(per_batch):
        fn()
    return (time.perf_counter() - t0) / per_batch


def _us(kernels, batch_s):
    return {name: _per_call(fn, batch_s) * 1e6 for name, fn in kernels.items()}


def _lad2(bench):
    return bench.LadConfig(mu_f=0.1, correlated_fraction=0.5)


# -- the layers' functions, run in the child ----------------------------------

def _step(batch_s):
    from nspd import baselines, bench, pd_general, pd_strong, prox
    from nspd.errors import check_finite

    lad1, _ = bench.gen_lad(bench.DESK_LAD)
    lad2, _ = bench.gen_lad(_lad2(bench))
    n, p = lad1.n, lad1.p
    gen_sched = pd_general.GeneralSchedule(c=2.0, gamma=0.999,
                                           rho0=1.0 / lad1.K.norm,
                                           norm_K=lad1.K.norm)
    gen_state = pd_general.init_state(lad1, np.zeros(p), np.zeros(n))
    strong_sched = pd_strong.StrongSchedule(case=2, gamma=0.75, mu_f=lad2.f.mu,
                                            norm_K=lad2.K.norm, c=4.0)
    strong_state = pd_strong.init_state(lad2, np.zeros(p), np.zeros(n))
    cp_state = baselines.init_cp_state(lad1, np.zeros(p), np.zeros(n), 1.0,
                                       1.0 / lad1.K.norm ** 2)
    scvx_state = baselines.init_cp_state(lad2, np.zeros(p), np.zeros(n),
                                         1.0 / lad2.K.norm, 1.0 / lad2.K.norm)

    rng = np.random.default_rng(0)
    b = rng.standard_normal(200)
    conj = {
        "l1_shifted_200": (prox.l1_shifted(b), 2.0 * rng.standard_normal(200)),
        "simplex_support_100": (prox.simplex_support(100),
                                rng.standard_normal(100)),
        "simplex_support_1000": (prox.simplex_support(1000),
                                 rng.standard_normal(1000)),
        "l1_norm_64": (prox.l1_norm(64, 0.05), 0.1 * rng.standard_normal(64)),
        "point_indicator_200": (prox.point_indicator(b),
                                rng.standard_normal(200)),
    }
    vecs = {"x": rng.standard_normal(p), "y": rng.standard_normal(n),
            "y_tilde": rng.standard_normal(n)}
    soft_v = rng.standard_normal(64)
    l1 = prox.l1_norm(64, 0.05)

    kernels = {
        "pd_general.step": lambda: pd_general.step(gen_state, lad1, gen_sched),
        "pd_strong.step": lambda: pd_strong.step(strong_state, lad2,
                                                 strong_sched),
        "baselines.cp_step": lambda: baselines.cp_step(cp_state, lad1),
        "baselines.cp_scvx_step": lambda: baselines.cp_scvx_step(
            scvx_state, lad2, lad2.f.mu),
        "check_finite": lambda: check_finite(0, **vecs),
        "prox.l1_norm_64": lambda: l1.prox(soft_v, 0.5),
    }
    for name, (h, v) in conj.items():
        kernels[f"conjugate_prox.{name}"] = (
            lambda h=h, v=v: prox.conjugate_prox(h, v, 1.5))
    return _us(kernels, batch_s)


def _solve_kernels(name, problem, solve, opts, make_recorder, csv):
    """A recorder call on what the driver hands it at the last step, and
    the solve bare and recorded, its trace written to ``csv``."""
    from nspd import metrics

    uniform = name == "game_paper"
    x0 = np.full(problem.p, 1.0 / problem.p if uniform else 0.0)
    y0 = np.full(problem.n, 1.0 / problem.n if uniform else 0.0)
    seen = {}
    solve(problem, x0, y0, opts, recorder=lambda k, x, y, t, **products:
          seen.update(x=x.copy(), y=y.copy(), products={
              key: v.copy() for key, v in products.items()}))
    rec, ks = make_recorder(metrics.Trace()), itertools.count(1)

    def recorded():
        trace = metrics.Trace()
        solve(problem, x0, y0, opts, recorder=make_recorder(trace))
        trace.to_csv(csv)

    return {f"record.{name}_us": lambda: rec(next(ks), seen["x"], seen["y"],
                                             0.0, **seen["products"]),
            f"solve.{name}.bare_us": lambda: solve(problem, x0, y0, opts),
            f"solve.{name}.recorded_us": recorded}


def _record(batch_s):
    from nspd import bench, metrics, pd_general, pd_strong

    lad1, _ = bench.gen_lad(bench.DESK_LAD)
    lad2, _ = bench.gen_lad(_lad2(bench))
    game = bench.gen_game(bench.PAPER_GAME)
    lad1_opts = pd_general.GeneralOptions(c=2.0, gamma=0.999,
                                          rho0=1.0 / lad1.K.norm, max_iters=100)
    solves = {
        "lad1": (lad1, pd_general.solve, lad1_opts,
                 lambda trace: metrics.composite_recorder(lad1, trace)),
        "lad2": (lad2, pd_strong.solve, pd_strong.StrongOptions(
            case=2, gamma=0.75, c=4.0, max_iters=100),
            lambda trace: metrics.composite_recorder(lad2, trace)),
        "game_paper": (game.to_composite(), pd_general.solve,
                       pd_general.GeneralOptions(c=1.0, gamma=0.5,
                                                 rho0=1.0 / game.K.norm,
                                                 max_iters=10),
                       lambda trace: metrics.game_recorder(game, trace)),
    }
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "trace.csv")
        kernels = {}
        for name, solve in solves.items():
            kernels.update(_solve_kernels(name, *solve, csv))
        rows = metrics.Trace()
        pd_general.solve(lad1, np.zeros(lad1.p), np.zeros(lad1.n), lad1_opts,
                         recorder=metrics.composite_recorder(lad1, rows))
        kernels["trace.to_csv_100_us"] = lambda: rows.to_csv(csv)
        return _us(kernels, batch_s)


# A fresh interpreter timing a first and a second call of each instance of
# its tag; "ready" is the clock reading when the first is ready.
_SETUP_CHILD = """
import json, sys, time
from nspd import bench
def status_mb(key):
    with open("/proc/self/status") as fh:
        return next(int(l.split()[1]) / 1024.0 for l in fh if l.startswith(key))
tag, out = sys.argv[1], {}
made = {"lad": {"lad1_gen_norm": lambda: bench.gen_lad(bench.DESK_LAD)[0].K.norm,
                "lad2_gen_norm": lambda: bench.gen_lad(bench.LadConfig(
                    mu_f=0.1, correlated_fraction=0.5))[0].K.norm},
        "game_paper": {"game_paper_gen": lambda: bench.gen_game(
            bench.PAPER_GAME)}}[tag]
for when in ("first", "warm"):
    for figure, make in made.items():
        t0 = time.perf_counter()
        kept = make()
        t1 = time.perf_counter()
        out[f"{figure}_{when}_s"] = t1 - t0
        out.setdefault("ready", t1)
    out.setdefault(tag + "_vmhwm_mb", status_mb("VmHWM:"))
    out.setdefault(tag + "_rss_mb", status_mb("VmRSS:"))
print(json.dumps(out))
"""


def _setup(batch_s):
    err = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import nspd"], check=True, stderr=subprocess.PIPE,
                         text=True).stderr
    out = {"import_nspd_s": next(
        int(fields[1]) / 1e6 for fields in (line.split("|")
                                            for line in err.splitlines())
        if len(fields) == 3 and fields[2].strip() == "nspd")}
    for tag, ready in (("lad", "lad1_ready_s"),
                       ("game_paper", "game_paper_ready_s")):
        t0 = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
        figures = json.loads(subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, tag], check=True,
            stdout=subprocess.PIPE, text=True).stdout)
        figures[ready] = figures.pop("ready") - t0
        out.update(figures)
    return out


def _oracle(batch_s):
    import scipy.optimize  # noqa: F401  (so that no figure carries an import)
    import scipy.sparse  # noqa: F401
    from nspd import bench, metrics, prox
    from nspd.linop import LinearMap
    from nspd.problems import CompositeProblem, EqConstrainedProblem

    def lad(**case):
        return bench.gen_lad(bench.LadConfig(**case))[0]

    rng = np.random.default_rng(500)
    K = LinearMap.from_dense(rng.standard_normal((40, 80)))
    constrained = EqConstrainedProblem(prox.l1_norm(80, 0.1),
                                       prox.squared_l2(80, 1.0), K,
                                       K.apply(rng.standard_normal(80)))
    rng = np.random.default_rng(800)
    K = LinearMap.from_dense(rng.standard_normal((40, 60)))
    b = K.apply(rng.standard_normal(60)) - rng.standard_normal(40)
    semistrong = CompositeProblem(prox.elastic_net(60, 0.05, 0.5),
                                  prox.l1_shifted(b), K)
    instances = {
        "crit4_lad1_seed7": lad(seed=7),
        "crit6_lad2_seed7": lad(seed=7, mu_f=0.1, correlated_fraction=0.5),
        "crit5b_constrained": constrained,
        "crit8_semistrong": semistrong,
        "crit10_lad_6x3": lad(n=6, p=3, s=2, seed=11),
        "crit10_game_30x40": bench.gen_game(bench.GameConfig(
            n=30, p=40, seed=11)).to_composite(),
    }
    out = {}
    for name, problem in instances.items():
        problem.K.norm
        t0 = time.perf_counter()
        ref = metrics.reference_solution(problem)
        out.update({name + "_exact_arm_s": ref.exact_s,
                    name + "_oracle_s": time.perf_counter() - t0,
                    name + "_F": ref.F, name + "_residual": ref.residual})
    return out


def _norm(batch_s):
    from nspd import bench, linop

    cfg = bench.PAPER_GAME
    rng = np.random.default_rng(cfg.seed)  # gen_game's draws, unscaled
    mask = rng.random((cfg.n, cfg.p)) < cfg.density
    game = np.zeros((cfg.n, cfg.p))
    game[mask] = rng.uniform(-1.0, 1.0, size=int(mask.sum()))
    matrices = {"lad1-desk": bench.gen_lad(bench.DESK_LAD)[0].K.matrix,
                "lad2-desk": bench.gen_lad(_lad2(bench))[0].K.matrix,
                "lad1-paper": bench.gen_lad(bench.PAPER_LAD)[0].K.matrix,
                "game-paper": game}
    out = {}
    for name, K in matrices.items():
        op = linop.LinearMap.from_dense(K)
        est = linop.estimate_norm(op)
        sigma = float(np.linalg.svd(K, compute_uv=False)[0])
        out.update({f"{name}_s": _per_call(lambda: linop.estimate_norm(op),
                                           batch_s),
                    f"{name}_iterations": est.iterations,
                    f"{name}_rel_err_vs_svd": (est.value - sigma) / sigma})
    out["gen_game-paper_s"] = _per_call(lambda: bench.gen_game(cfg), batch_s)
    return out


_SIZES = {"lad-desk": (200, 64), "game-desk": (100, 200),
          "lad-paper": (2000, 640), "game-paper": (1000, 2000)}


def _products(batch_s):
    import scipy.sparse as sp
    from nspd import linop

    out = {}
    rng = np.random.default_rng(0)
    for (size, (n, p)), density in itertools.product(
            _SIZES.items(), (0.05, 0.1, 0.2, 0.3, 0.5)):
        A = np.where(rng.random((n, p)) < density,
                     rng.uniform(-1.0, 1.0, (n, p)), 0.0)
        S = sp.csr_matrix(A)
        St = S.T.tocsr()
        x, y = rng.standard_normal(p), rng.standard_normal(n)
        row = f"{size}_{density}."
        out[row + "nnz_share"] = float(np.count_nonzero(A) / A.size)
        out[row + "from_dense_csr"] = float(linop._prefers_csr(A))
        out.update(_us({row + "dense_Kx": lambda: A @ x,
                        row + "dense_KTy": lambda: A.T @ y,
                        row + "csr_Kx": lambda: S @ x,
                        row + "csr_KTy": lambda: St @ y,
                        row + "csc_view_KTy": lambda: S.T @ y}, batch_s))
    return out


@dataclass(frozen=True)
class Layer:
    figures: Callable  # run in the child: batch_s -> {figure: number}
    units: str
    repeats: int = 7
    batch_s: Optional[float] = None  # None: the layer times no batches
    blas: tuple = (1,)  # its children's BLAS threads; None: library default


LAYERS = {
    "step": Layer(_step, "microseconds per call", batch_s=0.2),
    "record": Layer(_record, "microseconds per call", batch_s=0.3),
    "setup": Layer(_setup, "_s in seconds, _mb in MiB"),
    "oracle": Layer(_oracle, "_s in seconds; _F and _residual as returned",
                    repeats=3),
    "norm": Layer(_norm, "_s in seconds per call; _iterations in matvec "
                  "pairs; _rel_err_vs_svd relative", repeats=5, batch_s=0.5),
    "products": Layer(_products, "microseconds per product; nnz_share; "
                      "from_dense_csr 1 for CSR, 0 for dense", batch_s=0.05,
                      blas=(1, None)),
}


# -- the parent -----------------------------------------------------------------

def _env(src, threads):
    """The environment with ``src`` first on PYTHONPATH and ``threads``
    BLAS threads (``None``: no thread variable set)."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    if threads is not None:
        env.update(dict.fromkeys(_THREAD_VARS, str(threads)))
    path = os.environ.get("PYTHONPATH")
    env["PYTHONPATH"] = os.path.abspath(src) + (os.pathsep + path if path
                                                else "")
    return env


def _repeat(layer_name, src, batch_s):
    """One run of the layer in the checkout at ``src``, one child process
    per BLAS setting, whose label prefixes the figures when there are two."""
    layer, figures = LAYERS[layer_name], {}
    code = _CHILD.format(os.path.dirname(os.path.abspath(__file__)))
    for threads in layer.blas:
        out = json.loads(subprocess.run(
            [sys.executable, "-c", code, layer_name, json.dumps(batch_s)],
            env=_env(src, threads), check=True, stdout=subprocess.PIPE,
            text=True).stdout)
        prefix = (f"blas_threads_{threads or 'default'}/"
                  if len(layer.blas) > 1 else "")
        figures.update({prefix + k: v for k, v in out.items()})
    return figures


def _tier1(src):
    """Wall time, status and summary line of the Tier-1 command in the
    checkout that holds ``src``."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q",
                          "--continue-on-collection-errors"],
                         cwd=os.path.dirname(os.path.abspath(src)),
                         env=_env(src, 1), stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
    lines = out.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - t0, "returncode": out.returncode,
            "summary": lines[-1] if lines else ""}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("layer", choices=list(LAYERS))
    ap.add_argument("--before", required=True, help="src of the baseline")
    ap.add_argument("--after", default=os.path.join(ROOT, "src"))
    ap.add_argument("--repeats", type=int, help="default: the layer's")
    ap.add_argument("--batch-s", type=float, help="default: the layer's")
    ap.add_argument("--tier1", action="store_true",
                    help="also run each checkout's Tier-1 command once")
    ap.add_argument("--out", help="default: BENCH_<layer>.json in the root")
    args = ap.parse_args(argv)
    layer = LAYERS[args.layer]
    repeats = args.repeats or layer.repeats
    batch_s = layer.batch_s and (args.batch_s or layer.batch_s)

    sides = {"before": args.before, "after": args.after}
    runs = {side: [] for side in sides}
    for r in range(repeats):
        for side in ("before", "after") if r % 2 == 0 else ("after", "before"):
            runs[side].append(_repeat(args.layer, sides[side], batch_s))
            print(f"repeat {r} {side} done", file=sys.stderr)

    results = {side: {name: {"median": statistics.median(
        rep[name] for rep in reps), "runs": [rep[name] for rep in reps]}
        for name in reps[0]} for side, reps in runs.items()}
    for name, after in results["after"].items():
        b, a = results["before"][name]["median"], after["median"]
        ratio = f"({a / b:.2f}x)" if b else ""
        print(f"{name:<48} {b:12.6g} -> {a:12.6g}  {ratio}", file=sys.stderr)

    how = (f"python scripts/bench_layers.py {args.layer} --before <checkout>"
           f"/src{' --tier1' if args.tier1 else ''}; --repeats {repeats}"
           + (f", --batch-s {batch_s}" if batch_s else ""))
    doc = {
        "results": results,
        "units": layer.units + "; median of repeats, all runs",
        "environment": {
            "cpu_count": os.cpu_count(),
            "blas_threads": [t or "library default" for t in layer.blas],
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
        },
        "how": how,
    }
    if args.tier1:
        doc["tier1"] = {side: _tier1(src) for side, src in sides.items()}
        print("tier1 " + " -> ".join(f"{t['wall_s']:.1f} s" for t in
                                     doc["tier1"].values()), file=sys.stderr)
    with open(args.out or os.path.join(ROOT, f"BENCH_{args.layer}.json"),
              "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
