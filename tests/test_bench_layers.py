"""Smoke test of scripts/bench_layers.py: one repeat of the step layer."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_step_layer_times_both_sides(tmp_path):
    src, out = os.path.join(ROOT, "src"), tmp_path / "BENCH_step.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "bench_layers.py"),
         "step", "--before", src, "--after", src, "--repeats", "1",
         "--batch-s", "0.01", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    before, after = doc["results"]["before"], doc["results"]["after"]
    assert set(before) == set(after) and "pd_general.step" in after
    assert all(len(figure["runs"]) == 1 for figure in after.values())
    assert set(doc["environment"]) == {"cpu_count", "blas_threads", "python",
                                       "numpy", "scipy", "machine"}
