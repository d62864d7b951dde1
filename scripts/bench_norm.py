"""Time the spectral-norm estimate on the benchmark instances.

    python scripts/bench_norm.py --label after
    python scripts/bench_norm.py --label before --src <other checkout>/src

Imports ``nspd`` from ``--src`` (default: this checkout's ``src``), so the
same script times any checkout that has ``linop.estimate_norm`` and
``bench.gen_game``.  For each instance it reports the median wall time of
``estimate_norm`` at its default ``tol``/``max_iters`` (what
``LinearMap.norm`` runs) over ``--repeats`` calls, the step count (matvec
pairs), and the estimate's relative error against ``np.linalg.svd``.  It
also times the whole ``gen_game`` at paper scale, which includes the
game's norm estimates.  One BLAS thread, as in ``perfbench``.  Results are
merged into ``--out`` under ``--label``, next to the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _instances(bench):
    lad2_desk = bench.LadConfig(mu_f=0.1, correlated_fraction=0.5)
    cfg = bench.PAPER_GAME
    # gen_game's raw matrix, before it is scaled to unit norm
    rng = np.random.default_rng(cfg.seed)
    mask = rng.random((cfg.n, cfg.p)) < cfg.density
    game = np.zeros((cfg.n, cfg.p))
    game[mask] = rng.uniform(-1.0, 1.0, size=int(mask.sum()))
    return {
        "lad1-desk": bench.gen_lad(bench.DESK_LAD)[0].K.matrix,
        "lad2-desk": bench.gen_lad(lad2_desk)[0].K.matrix,
        "lad1-paper": bench.gen_lad(bench.PAPER_LAD)[0].K.matrix,
        "game-paper": game,
    }


def _timed(fn, repeats):
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_norm.json"))
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import scipy
    from nspd import bench, linop

    result = {}
    for name, K in _instances(bench).items():
        op = linop.LinearMap.from_dense(K)
        est, times = _timed(lambda: linop.estimate_norm(op), args.repeats)
        sigma = float(np.linalg.svd(K, compute_uv=False)[0])
        result[name] = {
            "shape": list(K.shape), "median_s": statistics.median(times),
            "times_s": times, "iterations": est.iterations,
            "converged": est.converged, "norm": est.value, "svd_norm": sigma,
            "rel_err_vs_svd": (est.value - sigma) / sigma,
        }
    game, times = _timed(lambda: bench.gen_game(bench.PAPER_GAME),
                         args.repeats)
    result["gen_game-paper"] = {"median_s": statistics.median(times),
                                "times_s": times, "norm": game.K.norm}

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("results", {})[args.label] = result
    doc["environment"] = {
        "cpu_count": os.cpu_count(), "blas_threads": 1,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }
    doc["how"] = ("python scripts/bench_norm.py --label <label> [--src "
                  "<checkout>/src]; medians of --repeats calls")
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for name, r in result.items():
        print(f"{args.label:>8} {name:<15} {r['median_s']:8.4f} s "
              f"{r.get('iterations', '')}")


if __name__ == "__main__":
    main()
