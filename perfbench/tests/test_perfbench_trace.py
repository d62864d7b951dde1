"""Traced runs: per-layer counts repeat exactly, and the outputs check out.

Runs the benchmark's worker twice on a desk-scale game (about a second
each) with every layer boundary wrapped.
"""

import json
import os
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)
from perfbench import checks, run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SMALL_GAME = WORKLOADS["game-paper"] | {
    "scale": "desk", "max_iters": 150, "epsilon": 0.05,
    "variants": ["pd_general_c1", "pd_general_c2", "smoothing_mu0.2",
                 "smoothing_mu1", "smoothing_mu5"]}

COUNTS = [name for name, unit in run.PER_LAYER if unit == "count"]


def traced_run(out_dir):
    run.spawn({"mode": "experiment", "seed": 3,
               "workload": "game-paper", "spec": SMALL_GAME,
               "out_dir": out_dir}, time.perf_counter() + 120)
    with open(os.path.join(out_dir, "worker.json")) as fh:
        worker = json.load(fh)
    with np.load(os.path.join(out_dir, "capture.npz")) as npz:
        cap = dict(npz)
    return worker, cap


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    cwd = os.getcwd()
    os.chdir(ROOT)  # the worker imports nspd from ./src
    try:
        return [(str(d),) + traced_run(str(d)) for d in
                (tmp_path_factory.mktemp("a"), tmp_path_factory.mktemp("b"))]
    finally:
        os.chdir(cwd)


def test_per_layer_counts_repeat_exactly(two_runs):
    a, b = (run.per_layer(worker) for _, worker, _ in two_runs)
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert a["pd_general.steps"] == 2 * SMALL_GAME["max_iters"]
    assert a["linop.apply_calls"] > 0 and a["prox.calls"] > 0
    assert a["metrics.record_matvecs"] == 2 * a["metrics.record_calls"]


def test_traced_outputs_pass_the_checks(two_runs):
    out_dir, worker, cap = two_runs[0]
    ops, problems, _ = checks.check_experiment(SMALL_GAME, out_dir, worker,
                                               cap, None)
    assert problems == []
    assert [op.name for op in ops if op.failed] == []
