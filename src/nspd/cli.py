"""Command-line entry point.

    nspd run <experiment> [--desk|--paper] [--seed N] [--max-iters N]
             [--trace-every N|log] [--out DIR] [--check] [--epsilon E]
    nspd solve --config FILE
    nspd plotdata TRACE.csv

Exit codes: 0 success, 2 a usage error (an option ``run`` refuses, a config
``solve`` refuses, at build time or as its solve starts, a config file
``solve`` cannot read or an output path ``run`` or ``solve`` cannot write
to, both found before any instance is drawn, or a file ``plotdata`` cannot
read as a trace) and with ``run --check`` a violated certificate or a
certified variant that failed to run, 3 oracle failure (``run``), 4
divergence: a non-finite iterate (``solve``), 5 an inner subproblem solver
that missed its tolerance (``solve``).  ``solve`` writes the trace
recorded so far before it exits with 4 or 5, and no trace when it exits
with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench, metrics
from .errors import (ConfigurationError, DivergenceError, InnerSolverError,
                     check_option)


def _cmd_run(args) -> int:
    try:
        spec = bench.ExperimentSpec(
            name=args.experiment,
            scale="paper" if args.paper else "desk",
            seed=args.seed,
            max_iters=args.max_iters,
            trace_every=args.trace_every,
            out_dir=args.out,
            check=args.check,
            epsilon=args.epsilon,
        )
    except ValueError as exc:  # a refused option: a usage error, status 2
        args.parser.error(str(exc))
    try:  # before any instance is drawn
        os.makedirs(spec.out_dir, exist_ok=True)
    except OSError as exc:
        args.parser.error(f"cannot write to --out {spec.out_dir!r}: {exc}")
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


def _writable_file(path) -> bool:
    """Whether ``path`` names a file, new or not, in an existing directory."""
    return (path != "" and not os.path.isdir(path)
            and os.path.isdir(os.path.dirname(path) or "."))


def _cmd_solve(args) -> int:
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable or not JSON: status 2
        args.parser.error(f"cannot read the config {args.config!r}: {exc}")
    if not isinstance(cfg, dict):
        args.parser.error(f"the config must be a JSON object, got "
                          f"{type(cfg).__name__}")
    configs = {"lad": bench.LadConfig, "game": bench.GameConfig}
    try:
        out = check_option("out", cfg.get("out", "trace.csv"),
                           "be a file path in an existing directory",
                           _writable_file, str)
        prob_cfg, options = dict(cfg["problem"]), dict(cfg["solver"])
        kind, method = prob_cfg.pop("kind"), options.pop("method")
        if kind not in configs:
            raise ValueError(f"unknown problem kind {kind!r}")
        inst = bench.make_instance(configs[kind](**prob_cfg))
        solve = bench.solver(method, options, inst)
    except KeyError as exc:  # a missing required key: status 2
        args.parser.error(f"the config lacks the key {exc.args[0]!r}")
    except (TypeError, ValueError) as exc:  # a refused config: status 2
        args.parser.error(str(exc))
    trace = metrics.Trace()
    try:
        solve(inst.recorder(trace))
    except ConfigurationError as exc:  # refused before the first step
        args.parser.error(str(exc))
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
    try:
        trace = metrics.Trace.from_csv(args.trace)
    except (OSError, ValueError) as exc:  # not a readable trace: status 2
        args.parser.error(str(exc))
    names = ("F", "G", "gap", "feas")
    print("log10_k," + ",".join(f"log10_{c}" for c in names))
    for k, *values in zip(*(trace.column(c) for c in ("k",) + names)):
        row = [np.log10(k)] + [np.log10(v) if np.isfinite(v) and v > 0
                               else float("nan") for v in values]
        print(",".join(f"{v:.10g}" for v in row))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nspd")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a named benchmark experiment")
    p_run.add_argument("experiment", choices=list(bench.EXPERIMENTS))
    scale = p_run.add_mutually_exclusive_group()
    scale.add_argument("--desk", action="store_true", default=True)
    scale.add_argument("--paper", action="store_true")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-iters", type=int, default=10_000)
    # unused, as the oracle takes no budget; perfbench/workloads.py passes it
    p_run.add_argument("--reference-budget", type=int, help=argparse.SUPPRESS)
    # a non-integer goes on to ExperimentSpec, whose check names the rule
    p_run.add_argument("--trace-every", default=1, type=lambda s: int(s)
                       if s.removeprefix("-").isdecimal() else s)
    p_run.add_argument("--out", default="runs")
    p_run.add_argument("--check", action="store_true",
                       help="exit 2 when a certificate is violated or a "
                       "certified variant fails to run")
    p_run.add_argument("--epsilon", type=float,
                       help="the game's smoothing accuracy (default 1e-3)")
    p_run.set_defaults(fn=_cmd_run, parser=p_run)

    p_solve = sub.add_parser("solve", help="solve an ad-hoc problem from a config")
    p_solve.add_argument("--config", required=True)
    p_solve.set_defaults(fn=_cmd_solve, parser=p_solve)

    p_plot = sub.add_parser("plotdata", help="emit log-log-ready columns")
    p_plot.add_argument("trace")
    p_plot.set_defaults(fn=_cmd_plotdata, parser=p_plot)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
