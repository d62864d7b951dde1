"""Time the recording side of a solve: recorder calls, trace CSV, solves.

    python scripts/bench_record.py --before <other checkout>/src [--tier1]

Times two checkouts: ``--before`` and ``--after`` (default: this
checkout's ``src``), each imported in its own child process.  It reports:

* microseconds per recorder call, as the driver makes it, on a state
  reached after 100 steps: ``composite_recorder`` on lad1-desk
  (``pd_general``, c = 2, gamma = 0.999, rho0 = 1/||K||, the benchmark's
  throughput solve) and on lad2-desk (``pd_strong`` Case 2, c = 4,
  gamma = 0.75), and ``game_recorder`` on the paper game (1000 x 2000,
  ``pd_general`` c = 1, gamma = 0.5);
* microseconds per ``Trace.to_csv`` of a 100-row lad1-desk trace;
* milliseconds per solve of those three throughput solves (100, 100 and 10
  iterations), bare and recorded at every iteration; a recorded solve
  includes the trace CSV, as in the benchmark's ``solve_ms``.

The recorder is called with whatever the checkout's driver hands it, so the
same script times a checkout whose recorders take products and one whose
recorders do not.  Each repeat is one child process per checkout,
alternating which goes first, and times every kernel over as many calls as
fill ``--batch-s`` seconds; each figure is the median over ``--repeats``
repeats.  With ``--tier1`` it also runs each checkout's test suite once and
records its wall time.  One BLAS thread, as in ``perfbench``.  Results go
to ``--out`` with the environment.
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

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
from bench_step import _tier1, _us_per_call  # noqa: E402


def _kernels(tmp):
    """name -> zero-argument callable, built from the imported ``nspd``."""
    from nspd import bench, metrics, pd_general, pd_strong

    lad1, _ = bench.gen_lad(bench.DESK_LAD)
    lad2, _ = bench.gen_lad(bench.LadConfig(mu_f=0.1, correlated_fraction=0.5))
    game = bench.gen_game(bench.PAPER_GAME)
    solves = {
        "lad1": (lad1, pd_general.solve, lambda: pd_general.GeneralOptions(
            c=2.0, gamma=0.999, rho0=1.0 / lad1.K.norm, max_iters=100),
            lambda trace: metrics.composite_recorder(lad1, trace)),
        "lad2": (lad2, pd_strong.solve, lambda: pd_strong.StrongOptions(
            case=2, gamma=0.75, c=4.0, max_iters=100),
            lambda trace: metrics.composite_recorder(lad2, trace)),
        "game_paper": (game.to_composite(), pd_general.solve,
                       lambda: pd_general.GeneralOptions(
                           c=1.0, gamma=0.5, rho0=1.0 / game.K.norm,
                           max_iters=10),
                       lambda trace: metrics.game_recorder(game, trace)),
    }
    csv_path = os.path.join(tmp, "trace.csv")
    kernels = {}
    for name, (problem, solve, opts, make_recorder) in solves.items():
        if name == "game_paper":
            x0 = np.full(problem.p, 1.0 / problem.p)
            y0 = np.full(problem.n, 1.0 / problem.n)
        else:
            x0, y0 = np.zeros(problem.p), np.zeros(problem.n)

        # what the driver hands the recorder at the last step
        seen = {}

        def capture(k, x, y, t, **products):
            seen.update(x=x.copy(), y=y.copy(), products={
                key: v.copy() for key, v in products.items()
                if v is not None})
        solve(problem, x0, y0, opts(), recorder=capture)

        trace = metrics.Trace()
        rec = make_recorder(trace)
        ks = itertools.count(1)

        def record(rec=rec, ks=ks, seen=seen):
            rec(next(ks), seen["x"], seen["y"], 0.0, **seen["products"])

        def bare(problem=problem, solve=solve, opts=opts, x0=x0, y0=y0):
            solve(problem, x0, y0, opts())

        def recorded(problem=problem, solve=solve, opts=opts, x0=x0, y0=y0,
                     make_recorder=make_recorder):
            trace = metrics.Trace()
            solve(problem, x0, y0, opts(), recorder=make_recorder(trace))
            trace.to_csv(csv_path)

        kernels[f"record.{name}_us"] = record
        kernels[f"solve.{name}.bare_us"] = bare
        kernels[f"solve.{name}.recorded_us"] = recorded

    rows = metrics.Trace()
    solves["lad1"][1](lad1, np.zeros(lad1.p), np.zeros(lad1.n),
                      solves["lad1"][2](), recorder=metrics.composite_recorder(
                          lad1, rows))
    kernels["trace.to_csv_100_us"] = lambda: rows.to_csv(csv_path)
    return kernels


def _child(src, batch_s):
    """One repeat in this process: every kernel of the checkout at ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    with tempfile.TemporaryDirectory() as tmp:
        return {name: _us_per_call(fn, batch_s)
                for name, fn in _kernels(tmp).items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", help="src of the baseline (required)")
    ap.add_argument("--after", default=os.path.join(ROOT, "src"))
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--batch-s", type=float, default=0.3)
    ap.add_argument("--tier1", action="store_true",
                    help="also time each checkout's test suite once")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_record.json"))
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
        print(f"{name:<36} {b:10.2f} -> {a:10.2f} us  ({a / b:.2f}x)",
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
        "how": ("python scripts/bench_record.py --before <checkout>/src "
                f"[--tier1]; --repeats {args.repeats}, --batch-s "
                f"{args.batch_s}"),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
