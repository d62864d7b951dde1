"""nspd benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload lad1-desk --seed 1 --seconds 24 --trace 0

Run from the root of an nspd checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics: set-up processes, one after another, each followed by its share of
an untraced throughput phase of ``--seconds`` seconds in all.  With
``--trace 1`` one ``nspd run`` experiment runs with every layer boundary
wrapped and the per-layer metrics are reported instead.  Either way every
output is checked (``checks.py``).  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
Outputs go to ``.perfbench_runs/<workload>-trace<0|1>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import numpy as np  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT_ROOT = ".perfbench_runs"
BUDGET_S = 170.0  # every process of the run ends within this

END_TO_END = [("setup_s", "s"), ("pd_iters_per_s", "iter/s"),
              ("solve_ms", "ms"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("linop.apply_calls", "count"), ("linop.adjoint_calls", "count"),
    ("linop.matvec_s", "s"), ("linop.norm_s", "s"),
    ("linop.save_triplets_s", "s"),
    ("prox.calls", "count"), ("prox.s", "s"),
    ("pd_general.steps", "count"), ("pd_general.step_self_us", "us"),
    ("pd_strong.steps", "count"), ("pd_strong.step_self_us", "us"),
    ("baselines.cp_steps", "count"), ("baselines.cp_step_self_us", "us"),
    ("baselines.admm_steps", "count"), ("baselines.admm_s", "s"),
    ("baselines.admm_matvecs_per_step", "matvec/step"),
    ("baselines.smoothing_s", "s"),
    ("metrics.oracle_s", "s"), ("metrics.oracle_steps", "count"),
    ("metrics.oracle_arms", "count"),
    ("metrics.record_calls", "count"), ("metrics.record_self_us", "us"),
    ("metrics.record_matvecs", "count"), ("metrics.trace_csv_s", "s"),
    ("bench.gen_s", "s"), ("bench.solve_s", "s"), ("bench.run_s", "s"),
]

STEPS = ("pd_general.step", "pd_strong.step", "baselines.cp_step",
         "baselines.cp_scvx_step", "baselines.admm_step")


class BenchError(RuntimeError):
    pass


def spawn(req, deadline):
    """Run one worker process; returns (spawn clock, its JSON result)."""
    env = dict(os.environ)
    # one BLAS thread: steadier timings on a shared machine (see README)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(req)],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{req['mode']} worker exceeded the time budget")
    if proc.returncode != 0:
        raise BenchError(f"{req['mode']} worker exited with {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups, tp):
    def fastest(times):
        return min(times) if times else float("nan")

    return {
        "setup_s": statistics.median(res["ready"] - t0 for t0, res in setups),
        # the fastest repeat: other tenants only ever slow a repeat down
        "pd_iters_per_s": tp["iters"] / fastest(tp["times"]),
        "solve_ms": 1e3 * fastest(tp["recorded_times"]),
        "peak_rss_mb": max(res["peak_rss_mb"] for _, res in setups),
    }


def merge_throughput(setups):
    """One throughput record from the windows of every set-up process."""
    parts = [res["throughput"] for _, res in setups]
    done = [p for p in parts if p["times"] or p["recorded_times"]]
    tp = dict(parts[-1])
    for key in ("times", "recorded_times", "errors"):
        tp[key] = [v for p in parts for v in p[key]]
    tp["rounds"] = sum(p["rounds"] for p in parts)
    tp["identical"] = all(p["identical"] for p in parts) and all(
        (p["x"], p["y"]) == (done[0]["x"], done[0]["y"]) for p in done)
    if done:
        tp.update(rho0=done[0]["rho0"], x=done[0]["x"], y=done[0]["y"])
    return tp


def per_layer(worker):
    def agg(name):  # [calls, total s, self s]
        return worker["agg"].get(name, [0, 0.0, 0.0])

    pairs = {}
    for name, parent, count in worker["pairs"]:
        pairs[(name, parent)] = pairs.get((name, parent), 0) + count

    def called_from(parent, names=("linop.apply", "linop.adjoint")):
        return sum(pairs.get((n, parent), 0) for n in names)

    def self_us(*names):
        calls = sum(agg(n)[0] for n in names)
        return 1e6 * sum(agg(n)[2] for n in names) / calls if calls else 0.0

    admm_steps = agg("baselines.admm_step")[0]
    return {
        "linop.apply_calls": agg("linop.apply")[0],
        "linop.adjoint_calls": agg("linop.adjoint")[0],
        "linop.matvec_s": agg("linop.apply")[1] + agg("linop.adjoint")[1],
        "linop.norm_s": agg("linop.estimate_norm")[1],
        "linop.save_triplets_s": agg("io:save_triplets")[1],
        "prox.calls": agg("prox")[0],
        "prox.s": agg("prox")[1],
        "pd_general.steps": agg("pd_general.step")[0],
        "pd_general.step_self_us": self_us("pd_general.step"),
        "pd_strong.steps": agg("pd_strong.step")[0],
        "pd_strong.step_self_us": self_us("pd_strong.step"),
        "baselines.cp_steps": agg("baselines.cp_step")[0]
        + agg("baselines.cp_scvx_step")[0],
        "baselines.cp_step_self_us": self_us("baselines.cp_step",
                                             "baselines.cp_scvx_step"),
        "baselines.admm_steps": admm_steps,
        "baselines.admm_s": agg("baselines.admm_step")[1],
        "baselines.admm_matvecs_per_step":
            called_from("baselines.admm_step") / admm_steps if admm_steps else 0.0,
        "baselines.smoothing_s": agg("solve:baselines.smoothing_solve")[1],
        "metrics.oracle_s": agg("metrics.reference_solution")[1],
        "metrics.oracle_steps": sum(called_from(parent, STEPS) for parent in
                                    ("metrics.oracle_arm",
                                     "metrics.reference_solution")),
        "metrics.oracle_arms": agg("metrics.oracle_arm")[0],
        "metrics.record_calls": agg("metrics.record")[0],
        "metrics.record_self_us": self_us("metrics.record"),
        "metrics.record_matvecs": called_from("metrics.record"),
        "metrics.trace_csv_s": agg("io:trace_csv")[1],
        "bench.gen_s": agg("bench.gen")[1],
        "bench.solve_s": sum(v[1] for k, v in worker["agg"].items()
                             if k.startswith("solve:")),
    }


def run(args):
    w = WORKLOADS[args.workload]
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    deadline = time.perf_counter() + BUDGET_S
    base = {"workload": args.workload, "seed": args.seed}

    if args.trace:
        t_spawn, _ = spawn(base | {"mode": "experiment", "out_dir": out_dir},
                           deadline)
        with open(os.path.join(out_dir, "worker.json")) as fh:
            info = json.load(fh)
        cap_dir = out_dir
    else:
        n_setup = w["setup_repeats"]
        setup_dir = os.path.join(out_dir, "setup")
        os.makedirs(setup_dir)
        setup_req = base | {"mode": "setup", "out_dir": setup_dir,
                            "throughput_s": args.seconds / n_setup}
        setups = [spawn(setup_req, deadline) for _ in range(n_setup)]
        info = setups[-1][1]
        cap_dir = setup_dir
    with np.load(os.path.join(cap_dir, "capture.npz")) as npz:
        cap = dict(npz)

    ref = None
    if w["experiment"] != "game":
        ref = checks.reference_for(w, cap["K"], cap["b"], info["lam"],
                                   info["mu"])
    if args.trace:
        ops, problems, report = checks.check_experiment(w, out_dir, info,
                                                        cap, ref)
        for v in report.get("variants", []):
            slope = v["slope"]
            print(f"variant {v['label']:<24} final={v['final_metric']:.3e} "
                  f"slope={'n/a' if slope is None else f'{slope:+.3f}'}")
        oracle_F = report.get("reference", {}).get("F")
    else:
        tp = merge_throughput(setups)
        ops, problems = checks.check_throughput(
            w, tp, cap, ref, info["lam"], info["mu"],
            os.path.join(setup_dir, "trace_throughput.csv")), []
        print(f"throughput: {tp['rounds']} rounds of a bare and a recorded "
              f"{tp['method']} solve, {tp['iters']} iterations each")
    for op in ops:
        if op.error:
            print(f"FAILED {op.name}: {op.error}")
        for msg in op.wrong:
            print(f"WRONG {op.name}: {msg}")
    for msg in problems:
        print(f"WRONG: {msg}")
    if ref is not None:
        print(f"independent F* = {ref.F!r} (gap {ref.gap:.1e})"
              + (f"; oracle F = {oracle_F!r}" if args.trace else ""))

    if args.trace:
        values, units = per_layer(info), dict(PER_LAYER)
        values["bench.run_s"] = info["main_end"] - t_spawn
    else:
        values, units = end_to_end(setups, tp), dict(END_TO_END)
    for name, value in values.items():
        print(f"{name:<36} {value:.6g} {units[name]}")
    correct = not problems and not any(op.wrong for op in ops)
    return {"correct": correct, "attempted": len(ops),
            "failed": sum(op.failed for op in ops),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "nspd", "__init__.py")):
        print("perfbench: run from the root of an nspd checkout "
              "(src/nspd not found)", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (BenchError, RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
