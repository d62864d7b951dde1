"""Time one step of each primal-dual method and the calls inside it.

    python scripts/bench_step.py --before <other checkout>/src [--tier1]

Times two checkouts: ``--before`` and ``--after`` (default: this
checkout's ``src``), each imported in its own child process, so the script
times any checkout that has the public step, prox and
``errors.check_finite`` functions.  It reports microseconds per call of:

* ``pd_general.step`` on the lad1-desk instance (c = 2, gamma = 0.999,
  rho0 = 1/||K||, as in the benchmark's throughput solve);
* ``pd_strong.step`` on the lad2-desk instance (Case 2, c = 4,
  gamma = 0.75);
* ``baselines.cp_step`` on lad1-desk (rho = 1);
* ``conjugate_prox`` of each function that has a closed form, at the size
  the experiments use it (``l1_shifted`` n = 200, ``simplex_support``
  n = 100 and 1000, ``l1_norm`` n = 64, ``point_indicator`` n = 200), and
  the soft-thresholding prox of ``l1_norm``;
* ``check_finite`` on the three vectors ``pd_general.step`` checks
  (64 + 200 + 200 entries).

A step is timed along one continuing run of the method.  Each repeat is one
child process per checkout, alternating which goes first, and times every
kernel over as many calls as fill ``--batch-s`` seconds; each figure is the
median over ``--repeats`` repeats.  The machine's speed drifts, so the
alternation keeps both sides under the same drift.  With ``--tier1`` it
also runs each checkout's test suite once and records its wall time.  One
BLAS thread, as in ``perfbench``.  Results go to ``--out`` with the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _us_per_call(fn, batch_s):
    t0, calls = time.perf_counter(), 0
    while time.perf_counter() - t0 < batch_s / 4:  # warm up, size the batch
        fn()
        calls += 1
    per_batch = max(1, int(batch_s * calls / (time.perf_counter() - t0)))
    t0 = time.perf_counter()
    for _ in range(per_batch):
        fn()
    return (time.perf_counter() - t0) / per_batch * 1e6


def _kernels():
    """name -> zero-argument callable, built from the imported ``nspd``."""
    from nspd import baselines, bench, pd_general, pd_strong, prox
    from nspd.errors import check_finite

    lad1, _ = bench.gen_lad(bench.DESK_LAD)
    lad2, _ = bench.gen_lad(bench.LadConfig(mu_f=0.1, correlated_fraction=0.5))
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
        "check_finite": lambda: check_finite(0, **vecs),
        "prox.l1_norm_64": lambda: l1.prox(soft_v, 0.5),
    }
    for name, (h, v) in conj.items():
        kernels[f"conjugate_prox.{name}"] = (
            lambda h=h, v=v: prox.conjugate_prox(h, v, 1.5))
    return kernels


def _child(src, batch_s):
    """One repeat in this process: every kernel of the checkout at ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    return {name: _us_per_call(fn, batch_s)
            for name, fn in _kernels().items()}


def _tier1(src):
    """Wall time of the test suite of the checkout that holds ``src``."""
    root = os.path.dirname(os.path.abspath(src))
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                          "no:cacheprovider"], cwd=root, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True)
    wall = time.perf_counter() - t0
    lines = out.stdout.strip().splitlines()
    return {"wall_s": wall, "summary": lines[-1] if lines else "",
            "returncode": out.returncode}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", help="src of the baseline (required)")
    ap.add_argument("--after", default=os.path.join(ROOT, "src"))
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--batch-s", type=float, default=0.2)
    ap.add_argument("--tier1", action="store_true",
                    help="also time each checkout's test suite once")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_step.json"))
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        json.dump(_child(args.child, args.batch_s), sys.stdout)
        return
    if args.before is None:
        ap.error("--before is required")

    sides = {"before": args.before, "after": args.after}
    runs = {label: [] for label in sides}
    for r in range(args.repeats):
        for label in (("before", "after") if r % 2 == 0 else
                      ("after", "before")):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--child", sides[label], "--batch-s", str(args.batch_s)],
                check=True, stdout=subprocess.PIPE, text=True).stdout
            runs[label].append(json.loads(out))

    results = {}
    for label, reps in runs.items():
        results[label] = {name: {"median_us": statistics.median(
            rep[name] for rep in reps), "us": [rep[name] for rep in reps]}
            for name in reps[0]}
        if args.tier1:
            results[label]["tier1"] = _tier1(sides[label])
    for name in results["after"]:
        if name == "tier1":
            continue
        b, a = (results[s][name]["median_us"] for s in ("before", "after"))
        print(f"{name:<36} {b:8.2f} -> {a:8.2f} us  ({a / b:.2f}x)",
              file=sys.stderr)
    if args.tier1:
        print("tier1 " + " -> ".join(f"{results[s]['tier1']['wall_s']:.1f} s"
                                     for s in sides), file=sys.stderr)

    import scipy
    doc = {
        "results": results,
        "units": "microseconds per call, median of repeats; tier1 in seconds",
        "environment": {
            "cpu_count": os.cpu_count(), "blas_threads": 1,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
        },
        "how": ("python scripts/bench_step.py --before <checkout>/src "
                f"[--tier1]; --repeats {args.repeats}, --batch-s "
                f"{args.batch_s}"),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
