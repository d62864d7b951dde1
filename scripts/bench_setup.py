"""Time the set-up of a run: importing nspd and generating the instances.

    python scripts/bench_setup.py --before <other checkout>/src

Times two checkouts: ``--before`` and ``--after`` (default: this
checkout's ``src``).  Each repeat starts, per checkout, three fresh
interpreters that import ``nspd`` from that ``src``:

* ``python -X importtime -c "import nspd"``: the cumulative import time of
  ``nspd`` (numpy and whatever nspd imports at load included);
* a LAD child: the in-process time of ``gen_lad`` plus its ``.norm`` for
  lad-case1 and lad-case2 at desk scale, first call (``_first_s``) and a
  second one (``_warm_s``), and the time from starting the interpreter to
  the first lad-case1 instance and its norm being ready (what
  ``perfbench`` calls ``setup_s``, without the CLI around it);
* a game child: the same for ``gen_game`` at paper scale, and the child's
  peak resident memory after the first call (``VmHWM`` of
  ``/proc/self/status``, which, unlike ``ru_maxrss``, does not inherit the
  parent's peak) and what it still holds then (``VmRSS``, with the game
  alive).

A first call includes the modules it is first to import (``numpy.random``
for ``gen_lad``; ``scipy.sparse`` for ``gen_game`` when ``nspd`` does not
import it at load); the ``_ready_s`` figures count every import once.
Repeats alternate which checkout goes first; each figure is the median
over ``--repeats`` repeats.  One BLAS thread, as in ``perfbench``.  Results
go to ``--out`` with the environment.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_STATUS = """
def status_mb(key):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key):
                return int(line.split()[1]) / 1024.0
"""

LAD_CHILD = _STATUS + """
import json, time
from nspd import bench
out = {}
for when in ("first", "warm"):
    for name, cfg in (("lad1", bench.DESK_LAD),
                      ("lad2", bench.LadConfig(mu_f=0.1,
                                               correlated_fraction=0.5))):
        t0 = time.perf_counter()
        problem, _ = bench.gen_lad(cfg)
        problem.K.norm
        t1 = time.perf_counter()
        out[f"{name}_gen_norm_{when}_s"] = t1 - t0
        out.setdefault("ready", t1)
    out.setdefault("lad_vmhwm_mb", status_mb("VmHWM:"))
print(json.dumps(out))
"""

GAME_CHILD = _STATUS + """
import json, time
from nspd import bench
out = {}
for when in ("first", "warm"):
    t0 = time.perf_counter()
    game = bench.gen_game(bench.PAPER_GAME)
    t1 = time.perf_counter()
    out[f"game_paper_gen_{when}_s"] = t1 - t0
    out.setdefault("ready", t1)
    out.setdefault("game_paper_vmhwm_mb", status_mb("VmHWM:"))
    out.setdefault("game_paper_rss_mb", status_mb("VmRSS:"))
print(json.dumps(out))
"""


def _env(src):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _import_s(src):
    """Cumulative ``-X importtime`` figure of ``nspd``, in seconds."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import nspd"], env=_env(src), check=True,
                         stderr=subprocess.PIPE, text=True).stderr
    for line in err.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "nspd":
            return int(fields[1]) / 1e6
    raise RuntimeError("no 'nspd' line in the -X importtime output")


def _child(src, code, ready_name):
    """The child's figures, its ``ready`` clock reading made relative to
    the moment it was started."""
    t0 = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
    out = json.loads(subprocess.run(
        [sys.executable, "-c", code], env=_env(src), check=True,
        stdout=subprocess.PIPE, text=True).stdout)
    out[ready_name] = out.pop("ready") - t0
    return out


def _repeat(src):
    return {"import_nspd_s": _import_s(src),
            **_child(src, LAD_CHILD, "lad1_ready_s"),
            **_child(src, GAME_CHILD, "game_paper_ready_s")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src of the baseline")
    ap.add_argument("--after", default=os.path.join(ROOT, "src"))
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_setup.json"))
    args = ap.parse_args(argv)

    sides = {"before": args.before, "after": args.after}
    runs = {label: [] for label in sides}
    for r in range(args.repeats):
        for label in (("before", "after") if r % 2 == 0 else
                      ("after", "before")):
            runs[label].append(_repeat(sides[label]))

    results = {label: {name: {"median": statistics.median(
        rep[name] for rep in reps), "runs": [rep[name] for rep in reps]}
        for name in reps[0]} for label, reps in runs.items()}
    for name in results["after"]:
        b, a = (results[s][name]["median"] for s in ("before", "after"))
        print(f"{name:<22} {b:10.4f} -> {a:10.4f}  ({a / b:.2f}x)",
              file=sys.stderr)

    import numpy as np
    import scipy
    doc = {
        "results": results,
        "units": "_s in seconds, _mb in MiB; median of repeats, all runs",
        "environment": {
            "cpu_count": os.cpu_count(), "blas_threads": 1,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
        },
        "how": ("python scripts/bench_setup.py --before <checkout>/src; "
                f"--repeats {args.repeats}"),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
