"""Command-line entry point.

    nspd run <experiment> [--desk|--paper] [--seed N] [--max-iters N]
             [--out DIR] [--check] [--epsilon E]
    nspd solve --config FILE
    nspd plotdata TRACE.csv

Exit codes: 0 success, 2 certificate violation (``run --check``), 3 oracle
failure (``run``), 4 divergence: a non-finite iterate (``solve``), 5 an
inner subproblem solver that missed its tolerance (``solve``).  ``solve``
writes the trace recorded so far before it exits with 4 or 5.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import baselines, bench, metrics, pd_general, pd_strong
from .errors import DivergenceError, InnerSolverError


def _cmd_run(args) -> int:
    spec = bench.ExperimentSpec(
        name=args.experiment,
        scale="paper" if args.paper else "desk",
        seed=args.seed,
        max_iters=args.max_iters,
        reference_budget=args.reference_budget,
        trace_every=args.trace_every,
        out_dir=args.out,
        check=args.check,
        epsilon=args.epsilon,
    )
    report = bench.run_experiment(spec)
    for v in report["variants"]:
        slope = v["slope"]
        slope_s = f"{slope:+.3f}" if slope is not None else "  n/a"
        status = "FAILED: " + v["error"] if v["error"] else (
            "cert ok" if v["certificate_ok"] else
            ("cert VIOLATED" if v["certificate_ok"] is False else ""))
        print(f"{v['label']:<24} final={v['final_metric']:.3e} "
              f"slope={slope_s}  {status}")
    print(f"report written to {spec.out_dir}/report.json")
    return report["exit_code"]


def _build_solver(solver_cfg, problem, x0, y0, recorder):
    method = solver_cfg.pop("method")
    if method == "pd_general":
        opts = pd_general.GeneralOptions(**solver_cfg)
        return lambda: pd_general.solve(problem, x0, y0, opts, recorder=recorder)
    if method == "pd_strong":
        opts = pd_strong.StrongOptions(**solver_cfg)
        return lambda: pd_strong.solve(problem, x0, y0, opts, recorder=recorder)
    if method in ("cp", "cp_scvx", "admm"):
        cfg = baselines.BaselineConfig(**solver_cfg)
        fn = {"cp": baselines.solve_cp, "cp_scvx": baselines.solve_cp_scvx,
              "admm": baselines.solve_admm}[method]
        return lambda: fn(problem, x0, y0, cfg, recorder=recorder)
    raise ValueError(f"unknown method {method!r}")


def _cmd_solve(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    prob_cfg = dict(cfg["problem"])
    kind = prob_cfg.pop("kind")
    if kind == "lad":
        problem, _ = bench.gen_lad(bench.LadConfig(**prob_cfg))
        trace = metrics.Trace()
        recorder = metrics.composite_recorder(problem, trace)
        x0 = np.zeros(problem.p)
        y0 = np.zeros(problem.n)
    elif kind == "game":
        game = bench.gen_game(bench.GameConfig(**prob_cfg))
        problem = game.to_composite()
        trace = metrics.Trace()
        recorder = metrics.game_recorder(game, trace)
        x0 = np.full(problem.p, 1.0 / problem.p)
        y0 = np.full(problem.n, 1.0 / problem.n)
    else:
        raise ValueError(f"unknown problem kind {kind!r}")

    solver = _build_solver(dict(cfg["solver"]), problem, x0, y0, recorder)
    out = cfg.get("out", "trace.csv")
    try:
        solver()
    except (DivergenceError, InnerSolverError) as exc:
        code, what = ((4, "divergence") if isinstance(exc, DivergenceError)
                      else (5, "inner solver failure"))
        trace.to_csv(out)
        print(f"{what}: {exc}; partial trace ({len(trace)} records) "
              f"written to {out}", file=sys.stderr)
        return code
    trace.to_csv(out)
    final = f"final F = {trace.F[-1]!r}; " if trace.F else ""
    print(f"{final}trace written to {out}")
    return 0


def _cmd_plotdata(args) -> int:
    trace = metrics.Trace.from_csv(args.trace)
    ks = trace.column("k")
    print("log10_k," + ",".join(f"log10_{c}" for c in ("F", "G", "gap", "feas")))
    for i in range(len(trace)):
        row = [np.log10(ks[i])]
        for c in ("F", "G", "gap", "feas"):
            v = trace.column(c)[i]
            row.append(np.log10(v) if np.isfinite(v) and v > 0 else float("nan"))
        print(",".join(f"{v:.10g}" for v in row))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nspd")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a named benchmark experiment")
    p_run.add_argument("experiment", choices=["lad-case1", "lad-case2", "game"])
    scale = p_run.add_mutually_exclusive_group()
    scale.add_argument("--desk", action="store_true", default=True)
    scale.add_argument("--paper", action="store_true")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-iters", type=int, default=10_000)
    p_run.add_argument("--reference-budget", type=int, default=1_000_000)
    p_run.add_argument("--trace-every", default=1,
                       type=lambda s: s if s == "log" else int(s))
    p_run.add_argument("--out", default="runs")
    p_run.add_argument("--check", action="store_true",
                       help="exit 2 when a certificate is violated")
    p_run.add_argument("--epsilon", type=float, default=1e-3)
    p_run.set_defaults(fn=_cmd_run)

    p_solve = sub.add_parser("solve", help="solve an ad-hoc problem from a config")
    p_solve.add_argument("--config", required=True)
    p_solve.set_defaults(fn=_cmd_solve)

    p_plot = sub.add_parser("plotdata", help="emit log-log-ready columns")
    p_plot.add_argument("trace")
    p_plot.set_defaults(fn=_cmd_plotdata)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
