"""One benchmark process: runs ``nspd run`` through ``cli.main`` with the
benchmark's wrappers installed, then writes what it saw for ``run.py``.

    python3 perfbench/worker.py '<json request>'

Modes:

* ``setup``: stops ``nspd run`` as soon as the instance and its norm
  estimate exist and reports the clock reading at that moment.  Then it
  runs an untraced throughput window of ``throughput_s`` seconds (see
  :func:`throughput`) and saves the instance for the checks.
* ``experiment``: runs the whole experiment with every layer boundary
  wrapped (see :class:`Tracer`): the stages (generation, oracle, solver
  variants, file writes) and the hot calls inside them.

The last stdout line is one JSON object.  Needs ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time
from collections import Counter

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.workloads import WORKLOADS, nspd_argv, permutations  # noqa: E402

# names whose calls are aggregated only; every other wrapped call is also
# kept as a span (name, start, end, parent)
HOT = {"linop.apply", "linop.adjoint", "prox", "pd_general.step",
       "pd_strong.step", "baselines.cp_step", "baselines.cp_scvx_step",
       "baselines.admm_step", "metrics.record"}
SOLVERS = [("pd_general", "solve"), ("pd_strong", "solve"),
           ("baselines", "solve_cp"), ("baselines", "solve_cp_scvx"),
           ("baselines", "solve_admm"), ("baselines", "smoothing_solve")]


class Tracer:
    """In-memory spans and counts at the wrapped boundaries.

    A span is (id, name, start, end, parent id).
    ``agg[name] = [calls, total_s, self_s]``; self time is the duration
    minus the time of wrapped calls made inside.  ``pairs[(name, parent)]``
    counts calls by their innermost wrapped caller, which attributes
    matvecs and steps to the layer that asked for them.
    """

    def __init__(self):
        self.stack = []
        self.agg = {}
        self.pairs = Counter()
        self.spans = []
        self._ids = 0

    def wrap(self, name, fn):
        stack, pairs, spans = self.stack, self.pairs, self.spans
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        keep = name not in HOT
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._ids += 1
            frame = [0.0, name, self._ids]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                agg[0] += 1
                agg[1] += d
                agg[2] += d - frame[0]
                if parent is not None:
                    parent[0] += d
                pairs[(name, parent[1] if parent else None)] += 1
                if keep:
                    spans.append((frame[2], name, t0, t1,
                                  parent[2] if parent else None))

        return wrapper

    def patch(self, owner, attr, name):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))


class _SetupDone(Exception):
    pass


def main(req):
    import nspd
    from nspd import baselines, bench, cli, linop, metrics, pd_general, pd_strong
    from nspd.linop import LinearMap
    from nspd.problems import CompositeProblem, MatrixGame
    from nspd.prox import l1_shifted

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(nspd.__file__).startswith(src + os.sep):
        raise SystemExit(f"nspd imported from {nspd.__file__}, not from {src}")

    w = req.get("spec") or WORKLOADS[req["workload"]]
    out_dir = req["out_dir"]
    mode = req["mode"]
    tracer = Tracer()
    instance = {}

    # -- the instance: the program's generator, relabelled by the seed ------
    def permuted_lad(orig):
        def gen_lad(cfg):
            problem, x_true = orig(cfg)
            pr, pc = permutations(req["seed"], problem.n, problem.p)
            K = np.asarray(problem.K.matrix)[pr][:, pc]
            b = problem.g.shift[pr]
            problem = CompositeProblem(problem.f, l1_shifted(b),
                                       LinearMap.from_dense(K))
            instance.update(problem=problem, K=K.copy(), b=b.copy(),
                            lam=cfg.lam, mu=cfg.mu_f)
            return problem, x_true[pc]
        return gen_lad

    def permuted_game(orig):
        def gen_game(cfg):
            game = orig(cfg)
            pr, pc = permutations(req["seed"], game.n, game.p)
            K = np.asarray(game.K.matrix)[pr][:, pc]
            game = MatrixGame(LinearMap.from_dense(K, norm_estimate=game.K.norm))
            instance.update(problem=game.to_composite(), game=game, K=K.copy())
            return game
        return gen_game

    gen_name = "gen_game" if w["experiment"] == "game" else "gen_lad"
    gen = getattr(bench, gen_name)
    if mode == "experiment":
        gen = tracer.wrap("bench.gen", gen)
    gen = (permuted_game if gen_name == "gen_game" else permuted_lad)(gen)
    if mode == "setup":
        def gen_then_stop(cfg, _gen=gen):
            _gen(cfg)
            instance["problem"].K.norm  # the lazy norm estimate, if pending
            raise _SetupDone
        setattr(bench, gen_name, gen_then_stop)
        try:
            cli.main(nspd_argv(w, out_dir))
        except _SetupDone:
            ready = time.perf_counter()
        else:
            raise SystemExit("setup mode: the generator was never called")
        tp = throughput(w, instance, req["throughput_s"], out_dir)
        save_instance(instance, out_dir)
        return {"ready": ready, "lam": instance.get("lam"),
                "mu": instance.get("mu"), "throughput": tp,
                "peak_rss_mb": peak_rss_mb()}
    setattr(bench, gen_name, gen)

    # -- stage spans ------------------------------------------------------------
    tracer.patch(metrics, "reference_solution", "metrics.reference_solution")
    for mod, attr in SOLVERS:
        tracer.patch(getattr(nspd, mod), attr, f"solve:{mod}.{attr}")
    for owner, attr, name in ((bench, "save_triplets", "io:save_triplets"),
                              (metrics, "certificates_to_json",
                               "io:certificates_json"),
                              (np, "savetxt", "io:savetxt"),
                              (json, "dump", "io:json_dump")):
        tracer.patch(owner, attr, name)

    finals, slots = {}, {}
    orig_to_csv = metrics.Trace.to_csv

    def to_csv(trace, path):
        label = os.path.basename(path)[len("trace_"):-len(".csv")]
        slot = slots.pop(id(trace), None)
        if slot and "last" in slot[1]:
            finals[label] = slot[1]["last"]
        return orig_to_csv(trace, path)

    metrics.Trace.to_csv = tracer.wrap("io:trace_csv", to_csv)

    def capturing(factory):
        def make(problem, trace, *args, **kwargs):
            rec = factory(problem, trace, *args, **kwargs)
            slot = {}
            slots[id(trace)] = (trace, slot)
            rec = tracer.wrap("metrics.record", rec)

            def record(k, x, y, *rest, **kw):
                slot["last"] = (k, x, y)
                return rec(k, x, y, *rest, **kw)
            return record
        return make

    metrics.composite_recorder = capturing(metrics.composite_recorder)
    metrics.game_recorder = capturing(metrics.game_recorder)

    # -- per-layer boundaries ---------------------------------------------------
    LinearMap.apply = tracer.wrap("linop.apply", LinearMap.apply)
    LinearMap.adjoint_apply = tracer.wrap("linop.adjoint",
                                          LinearMap.adjoint_apply)
    norm = tracer.wrap("linop.estimate_norm", linop.estimate_norm)
    linop.estimate_norm = bench.estimate_norm = norm
    tracer.patch(pd_general, "step", "pd_general.step")
    tracer.patch(pd_strong, "step", "pd_strong.step")
    tracer.patch(baselines, "cp_step", "baselines.cp_step")
    tracer.patch(baselines, "cp_scvx_step", "baselines.cp_scvx_step")
    tracer.patch(baselines, "admm_step", "baselines.admm_step")
    tracer.patch(baselines, "project_simplex", "prox")
    if hasattr(metrics, "_run_arm"):
        tracer.patch(metrics, "_run_arm", "metrics.oracle_arm")
    orig_post_init = CompositeProblem.__post_init__

    def post_init(problem):
        orig_post_init(problem)
        for attr in ("f", "g"):
            h = getattr(problem, attr)
            object.__setattr__(problem, attr, dataclasses.replace(
                h, prox=tracer.wrap("prox", h.prox)))

    CompositeProblem.__post_init__ = post_init

    # -- the experiment ----------------------------------------------------------
    rc = cli.main(nspd_argv(w, out_dir))
    main_end = time.perf_counter()

    finals = {label: (int(k), np.asarray(x, dtype=float),
                      np.asarray(y, dtype=float))
              for label, (k, x, y) in finals.items()}
    save_instance(instance, out_dir, finals)
    result = {
        "rc": rc, "main_end": main_end, "peak_rss_mb": peak_rss_mb(),
        "final_k": {label: v[0] for label, v in finals.items()},
        "norm_K": float(instance["problem"].K.norm),
        "lam": instance.get("lam"), "mu": instance.get("mu"),
        "agg": tracer.agg,
        "pairs": [[a, b, c] for (a, b), c in tracer.pairs.items()],
        "spans": tracer.spans,
    }
    with open(os.path.join(out_dir, "worker.json"), "w") as fh:
        fh.write(json.dumps(result))
    return {"rc": rc, "main_end": main_end}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def save_instance(instance, out_dir, finals=None):
    """``capture.npz``: the generated K (and b), plus each label's last
    recorded iterate as ``x:<label>`` and ``y:<label>``."""
    arrays = {"K": instance["K"]}
    if "b" in instance:
        arrays["b"] = instance["b"]
    for label, (_, x, y) in (finals or {}).items():
        arrays[f"x:{label}"], arrays[f"y:{label}"] = x, y
    np.savez(os.path.join(out_dir, "capture.npz"), **arrays)


def throughput(w, instance, seconds, out_dir):
    """Untraced solves of the paper's method, in rounds of two, repeated for
    ``seconds`` and at least 3 rounds.

    A round is one bare solve (no recorder) and one recorded solve: the
    program's recorder at every iteration, then the trace CSV written, as
    ``nspd solve`` does once the instance exists.  The recorded solve's last
    trace is left in ``out_dir/trace_throughput.csv``.
    """
    from nspd import metrics, pd_general, pd_strong

    t = w["throughput"]
    problem = instance["problem"]
    n, p = problem.n, problem.p
    if w["experiment"] == "game":
        x0, y0 = np.full(p, 1.0 / p), np.full(n, 1.0 / n)
        make_recorder = lambda trace: metrics.game_recorder(instance["game"], trace)
    else:
        x0, y0 = np.zeros(p), np.zeros(n)
        make_recorder = lambda trace: metrics.composite_recorder(problem, trace)
    if t["method"] == "pd_strong":
        opts = pd_strong.StrongOptions(case=t["case"], gamma=t["gamma"],
                                       c=t["c"], max_iters=t["iters"])
        solve = pd_strong.solve
    else:
        opts = pd_general.GeneralOptions(c=t["c"], gamma=t["gamma"],
                                         rho0=1.0 / problem.K.norm,
                                         max_iters=t["iters"])
        solve = pd_general.solve
    csv_path = os.path.join(out_dir, "trace_throughput.csv")

    def bare():
        return solve(problem, x0, y0, opts)

    def recorded():
        trace = metrics.Trace()
        out = solve(problem, x0, y0, opts, recorder=make_recorder(trace))
        trace.to_csv(csv_path)
        return out

    times = {"bare": [], "recorded": []}
    errors, finals = [], set()
    rounds, start = 0, time.perf_counter()
    while rounds < 3 or time.perf_counter() - start < seconds:
        rounds += 1
        for kind, run in (("bare", bare), ("recorded", recorded)):
            t0 = time.perf_counter()
            try:
                state, sched = run()
            except Exception as exc:  # counted as a failed operation
                errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            times[kind].append(time.perf_counter() - t0)
            last = (state.x.tolist(), state.y_bar.tolist())
            finals.add(json.dumps(last))
    info = {"method": t["method"], "iters": t["iters"], "rounds": rounds,
            "times": times["bare"], "recorded_times": times["recorded"],
            "errors": errors, "identical": len(finals) <= 1,
            "gamma": t["gamma"], "c": t["c"], "norm_K": float(problem.K.norm)}
    if finals:
        info.update(rho0=float(sched.rho0), x=last[0], y=last[1])
    return info


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
