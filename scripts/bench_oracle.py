"""Time the reference oracle on every instance the acceptance suite hands it.

    python scripts/bench_oracle.py --before <other checkout>/src

Times two checkouts: ``--before`` and ``--after`` (default: this
checkout's ``src``).  Each repeat starts, per checkout, one fresh
interpreter that imports ``nspd`` from that ``src``, builds the oracle
instances of ``tests/test_acceptance.py`` (criteria 4/5a/7 lad1,
criterion 6 lad2, the criterion-5b problem, the criterion-8 composite, and
criterion 10's 6x3 LAD and 30x40 game, all with the suite's seeds and
budgets) and times ``metrics.reference_solution`` on each, called as the
suite calls it: ``(problem, budget)``, the criterion-5b instance as its one
``EqConstrainedProblem``.  A checkout whose oracle still takes
``objective``/``merit``/``extra_residual`` gets the point-indicator composite
with the lambdas the suite passed it, and one that still takes ``x0``/``y0``
the uniform start points on the game.  When the checkout has exact arms
(``metrics._EXACT_ARMS``), the child also times the exact arm alone on the
point-indicator composite, with the oracle's own gap function.
``scipy.optimize`` and ``scipy.sparse`` are imported before the clocks
start, so no figure carries an import.

Repeats alternate which checkout goes first; each figure is the median over
``--repeats`` repeats.  One BLAS thread.  Results go to ``--out`` with the
environment, and each instance's F, residual and stage from the last
repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import inspect, json, time
import numpy as np
import scipy.optimize, scipy.sparse
from nspd import bench, metrics, prox
from nspd.linop import LinearMap
from nspd.problems import CompositeProblem, EqConstrainedProblem

PARAMS = inspect.signature(metrics.reference_solution).parameters

def lad(seed, **case):
    return bench.gen_lad(bench.LadConfig(seed=seed, **case))[0]

def constrained():
    rng = np.random.default_rng(500)
    K = LinearMap.from_dense(rng.standard_normal((40, 80)))
    b = K.apply(rng.standard_normal(80))
    return EqConstrainedProblem(prox.l1_norm(80, 0.1), prox.squared_l2(80, 1.0),
                                K, b), 150_000, {}

def semistrong():
    rng = np.random.default_rng(800)
    K = LinearMap.from_dense(rng.standard_normal((40, 60)))
    b = K.apply(rng.standard_normal(60)) - rng.standard_normal(40)
    return CompositeProblem(prox.elastic_net(60, 0.05, 0.5),
                            prox.l1_shifted(b), K), 150_000, {}

def game():
    composite = bench.gen_game(bench.GameConfig(n=30, p=40, seed=11)).to_composite()
    kw = {}
    if "x0" in PARAMS:
        kw = dict(x0=np.full(40, 1 / 40.0), y0=np.full(30, 1 / 30.0))
    return composite, 150_000, kw

INSTANCES = {
    "crit4_lad1_seed7": lambda: (lad(7), 150_000, {}),
    "crit6_lad2_seed7": lambda: (lad(7, mu_f=0.1, correlated_fraction=0.5),
                                 150_000, {}),
    "crit5b_constrained": constrained,
    "crit8_semistrong": semistrong,
    "crit10_lad_6x3": lambda: (bench.gen_lad(bench.LadConfig(
        n=6, p=3, s=2, seed=11))[0], 100_000, {}),
    "crit10_game_30x40": game,
}

def twin(eq):  # lam||x||_1 + (w/2)||x||^2 s.t. Kx = b as a composite
    return CompositeProblem(prox.elastic_net(eq.K.cols, eq.f.params["lam"],
                                             eq.psi.params["w"]),
                            prox.point_indicator(eq.b), eq.K)

out, refs = {}, {}
for name, make in INSTANCES.items():
    problem, budget, kw = make()
    problem.K.norm
    if isinstance(problem, EqConstrainedProblem):
        composite = twin(problem)
        obj = composite.f.value
        if "objective" in PARAMS:  # an oracle that takes no constrained problem
            feas = lambda x: float(np.linalg.norm(
                composite.K.apply(x) - composite.g.params["b"]))
            problem, kw = composite, dict(
                objective=obj, merit=lambda x: obj(x) + 100.0 * feas(x),
                extra_residual=feas)
    else:
        composite, obj = problem, problem.primal_value
    arms = getattr(metrics, "_EXACT_ARMS", None)
    if arms is not None:
        gap = lambda x, y: abs(obj(x) + metrics.dual_value(composite, y))
        t0 = time.perf_counter()
        arms[composite.f.kind, composite.g.kind](
            composite.K.to_dense(), composite.f, composite.g, gap)
        out[name + "_exact_arm_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = metrics.reference_solution(problem, budget, **kw)
    out[name + "_oracle_s"] = time.perf_counter() - t0
    refs[name] = {"F": ref.F, "residual": ref.residual, "stage": ref.stage}
print(json.dumps({"times": out, "refs": refs}))
"""


def _env(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _repeat(src):
    return json.loads(subprocess.run(
        [sys.executable, "-c", CHILD], env=_env(src), check=True,
        stdout=subprocess.PIPE, text=True).stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src of the baseline")
    ap.add_argument("--after", default=os.path.join(ROOT, "src"))
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_oracle.json"))
    args = ap.parse_args(argv)

    sides = {"before": args.before, "after": args.after}
    runs = {label: [] for label in sides}
    for r in range(args.repeats):
        for label in (("before", "after") if r % 2 == 0 else
                      ("after", "before")):
            runs[label].append(_repeat(sides[label]))
            print(f"repeat {r} {label} done", file=sys.stderr)

    results = {label: {name: {"median": statistics.median(
        rep["times"][name] for rep in reps),
        "runs": [rep["times"][name] for rep in reps]}
        for name in reps[0]["times"]} for label, reps in runs.items()}
    for name in results["after"]:
        a = results["after"][name]["median"]
        b = results["before"].get(name, {}).get("median")
        was = f"{b:10.3f}" if b is not None else f"{'-':>10}"
        print(f"{name:<34} {was} -> {a:10.3f}", file=sys.stderr)

    import numpy as np
    import scipy
    doc = {
        "results": results,
        "references": {label: reps[-1]["refs"] for label, reps in runs.items()},
        "units": "seconds; median of repeats, all runs",
        "environment": {
            "cpu_count": os.cpu_count(), "blas_threads": 1,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
        },
        "how": ("python scripts/bench_oracle.py --before <checkout>/src; "
                f"--repeats {args.repeats}"),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
