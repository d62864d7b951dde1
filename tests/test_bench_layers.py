"""Smoke tests of scripts/bench_layers.py: one repeat of the step layer and
of the record layer."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_repeat(layer, tmp_path):
    """The results of one repeat of ``layer``, this checkout on both sides,
    after checking the document's shape."""
    src, out = os.path.join(ROOT, "src"), tmp_path / f"BENCH_{layer}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "bench_layers.py"),
         layer, "--before", src, "--after", src, "--repeats", "1",
         "--batch-s", "0.01", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    before, after = doc["results"]["before"], doc["results"]["after"]
    assert set(before) == set(after)
    assert all(len(figure["runs"]) == 1 for figure in after.values())
    assert set(doc["environment"]) == {"cpu_count", "blas_threads", "python",
                                       "numpy", "scipy", "machine"}
    return after


def test_step_layer_times_both_sides(tmp_path):
    assert "pd_general.step" in one_repeat("step", tmp_path)


def test_record_layer_times_both_sides(tmp_path):
    after = one_repeat("record", tmp_path)
    for name in ("lad1", "lad2", "game_paper"):
        assert {f"record.{name}_us", f"solve.{name}.bare_us",
                f"solve.{name}.recorded_us"} <= set(after)
    assert "trace.to_csv_100_us" in after
