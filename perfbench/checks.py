"""Correctness checks of one experiment's outputs.

Every gate is an independent solve (see ``reference.py``) or a property the
theory guarantees: weak duality, the worst-case bounds, agreement of the
recorded values with numpy recomputations at the recorded iterates.  None
compares against a stored copy of earlier output, since LP duals are not
unique and a changed oracle may legitimately move rho0 and the iterates.

An operation is the oracle solve, one solver variant or one throughput
solve, bare or recorded.  ``Op.failed`` is set when it raised (``Op.error``) or its output
failed a check (``Op.wrong`` lists those); only the latter makes a run
incorrect.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from perfbench import reference as R

AGREE_TOL = 1e-8     # oracle vs independent optimum, relative (max(1, |F*|))
RECORD_TOL = 1e-9    # recorded value vs numpy recomputation, relative
BELOW_TOL = 1e-9     # traced F may not fall below F* - 1e-9 (1 + |F*|)
REF_GAP_TOL = 1e-9   # an independent reference must certify itself


@dataclass
class Op:
    name: str
    failed: bool = False
    error: str | None = None
    wrong: list = field(default_factory=list)

    def check(self, ok, message):
        if not ok:
            self.failed = True
            self.wrong.append(message)

    def fail(self, error):
        self.failed, self.error = True, error


def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {h: np.array([float(r[i]) for r in body]) for i, h in enumerate(header)}
    cols["k"] = cols["k"].astype(int)
    return cols


def read_triplets(path):
    """The triplet text format: `rows cols nnz`, then `i j value` lines."""
    with open(path) as fh:
        rows, cols, nnz = (int(t) for t in fh.readline().split())
        data = np.loadtxt(fh, ndmin=2) if nnz else np.zeros((0, 3))
    A = np.zeros((rows, cols))
    A[data[:, 0].astype(int), data[:, 1].astype(int)] = data[:, 2]
    return A


def reference_for(w, K, b, lam, mu):
    """The independent optimum of an l1-regression workload."""
    if w["experiment"] == "lad-case1":
        ref = R.lad_lp(K, b, lam)
    else:
        ref = R.elastic_dual(K, b, lam, mu)
    if not ref.gap <= REF_GAP_TOL * (1.0 + abs(ref.F)):
        raise RuntimeError(f"independent reference not certified: gap {ref.gap:.3e}")
    return ref


def _bound(w, label, cert_inputs, k, ref, K, b, norm_K):
    """(constant, bound at k) of a certified variant, recomputed here."""
    n, p = K.shape
    x0, y0 = np.zeros(p), np.zeros(n)
    i = cert_inputs
    if w["experiment"] == "game":
        return R.bound_game_gap(k, n, p, i["rho0"], i["gamma"], norm_K)
    M_g = np.sqrt(n)
    F0_gap = R.lad_primal(K, b, 0.0, 0.0, x0) - ref.F  # f(0) = 0
    if label == "pd_general_c1":
        return R.bound_general_primal(k, x0, y0, ref.x, M_g, i["rho0"],
                                      i["gamma"], i["norm_K"])
    if label == "pd_general_c2":
        return R.bound_general_fast(k, i["c"], F0_gap, x0, y0, ref.x, ref.y,
                                    M_g, i["rho0"], i["gamma"], i["norm_K"])
    if label == "pd_strong_case1":
        return R.bound_strong_primal(k, x0, y0, ref.x, M_g, i["rho0"],
                                     i["gamma"], i["norm_K"])
    if label == "pd_strong_case2_c4":
        return R.bound_strong_fast(k, i["c"], F0_gap, x0, y0, ref.x, ref.y,
                                   M_g, i["rho0"], i["gamma"], i["mu_f"],
                                   i["norm_K"])
    raise KeyError(label)


CERTIFIED = {"lad-case1": ("pd_general_c1", "pd_general_c2"),
             "lad-case2": ("pd_strong_case1", "pd_strong_case2_c4"),
             "game": ("pd_general_c1",)}


def _values_at(w, K, b, lam, mu, x, y):
    """(F, G, gap) recomputed in numpy, as the recorders define them."""
    if w["experiment"] == "game":
        F = float(np.max(K @ x))
        G = -float(np.min(K.T @ y))
        return F, G, F + G
    F = R.lad_primal(K, b, lam, mu, x)
    G = R.lad_dual(K, b, lam, mu, y)
    return F, G, F + G


def _close(a, b, tol):
    if np.isinf(a) or np.isinf(b):
        return a == b
    return abs(a - b) <= tol * (1.0 + abs(b))


def check_experiment(w, out_dir, worker, cap, ref):
    """Check one experiment.  Returns (ops, problems): per-operation
    results and failed checks that belong to no single operation."""
    problems = []
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    K = cap["K"]
    b = cap["b"] if "b" in cap else None
    lam, mu = worker["lam"], worker["mu"]
    exp = w["experiment"]

    A = read_triplets(os.path.join(out_dir, "instance_K.txt"))
    if not np.array_equal(A, K):
        problems.append("instance_K.txt differs from the generated K")
    if exp == "lad-case1":
        b_file = np.loadtxt(os.path.join(out_dir, "instance_b.csv"), delimiter=",")
        if not np.array_equal(b_file, b):
            problems.append("instance_b.csv differs from the generated b")

    ops = []
    if ref is not None:
        op = Op("oracle")
        if report.get("oracle_ok") is not True:
            op.fail(f"oracle failed: {report.get('oracle_error')}")
        if "reference" in report:
            F_o = report["reference"]["F"]
            op.check(abs(F_o - ref.F) <= AGREE_TOL * max(1.0, abs(ref.F)),
                     f"oracle F {F_o!r} vs independent F* {ref.F!r}")
        ops.append(op)

    by_label = {v["label"]: v for v in report.get("variants", [])}
    for label in w["variants"]:
        op = Op(label)
        ops.append(op)
        v = by_label.get(label)
        path = os.path.join(out_dir, f"trace_{label}.csv")
        if v is None or v["error"] or not os.path.exists(path):
            op.fail(f"did not run: {v and v['error']}")
            continue
        tr = read_trace(path)
        ks = tr["k"]
        op.check(len(ks) > 0 and ks[-1] == worker["final_k"].get(label),
                 "last trace row is not the last recorded iterate")
        if f"x:{label}" in cap:
            F, G, gap = _values_at(w, K, b, lam, mu, cap[f"x:{label}"],
                                   cap[f"y:{label}"])
            col = "gap" if exp == "game" else "F"
            want = {"F": F, "gap": gap}[col]
            op.check(_close(tr[col][-1], want, RECORD_TOL),
                     f"recorded final {col} {tr[col][-1]!r} vs numpy {want!r}")
            op.check(_close(tr["G"][-1], G, RECORD_TOL),
                     f"recorded final G {tr['G'][-1]!r} vs numpy {G!r}")
        if exp == "lad-case1":
            floor = ref.F - BELOW_TOL * (1.0 + abs(ref.F))
            op.check(bool(np.all(tr["F"] >= floor)),
                     f"traced F {tr['F'].min()!r} below F* {ref.F!r}")
        if exp == "lad-case2":
            s = tr["F"] + tr["G"]
            op.check(bool(np.all(s >= 0.0)),
                     f"weak duality broken: min F + G = {np.nanmin(s)!r}")
        if exp == "game":
            op.check(bool(np.all(tr["gap"] >= 0.0)),
                     f"negative game gap {tr['gap'].min()!r}")
            if label == "smoothing_mu1":
                op.check(tr["gap"][-1] <= w["epsilon"],
                         f"smoothing_mu1 ends at gap {tr['gap'][-1]!r} > eps")
        if label in CERTIFIED[exp]:
            op.check(v["certificate_ok"] is True, "program's certificate check failed")
            cert = v["certificate"] or {}
            C, bound = _bound(w, label, cert.get("inputs", {}), ks, ref, K, b,
                              worker["norm_K"])
            metric = tr["gap"] if exp == "game" else tr["F"] - ref.F
            excess = metric - bound - R.cert_slack(C)
            op.check(bool(np.all(excess <= 0.0)),
                     f"bound violated at k={int(ks[np.argmax(excess)])}")
    if report.get("exit_code") != 0 and not any(op.failed for op in ops):
        problems.append(f"nspd run exit code {report.get('exit_code')}")
    return ops, problems, report


def _throughput_bound(w, t, K, b, ref, k):
    """(constant, bound at k) of the throughput solve's method."""
    n, p = K.shape
    if w["experiment"] == "game":
        return R.bound_game_gap(k, n, p, t["rho0"], t["gamma"], t["norm_K"])
    F0_gap = R.lad_primal(K, b, 0.0, 0.0, np.zeros(p)) - ref.F
    args = (k, t["c"], F0_gap, np.zeros(p), np.zeros(n), ref.x, ref.y,
            np.sqrt(n), t["rho0"], t["gamma"])
    if t["method"] == "pd_strong":
        return R.bound_strong_fast(*args, t["mu"], t["norm_K"])
    return R.bound_general_fast(*args, t["norm_K"])


def check_throughput(w, t, cap, ref, lam=None, mu=None, trace_path=None):
    """One op per throughput solve, bare or recorded.  Every final iterate
    must be the same and meet the method's bound; the recorded solve's
    trace (``trace_path``) must match numpy at that iterate and meet the
    bound at every k.  ``t`` is the merged throughput record of the set-up
    processes."""
    bare = [Op(f"throughput{i}") for i in range(len(t["times"]))]
    recorded = [Op(f"recorded{i}")
                for i in range(len(t.get("recorded_times", [])))]
    ops = bare + recorded + [Op(f"throughput_error{i}", failed=True, error=e)
                             for i, e in enumerate(t["errors"])]
    if not bare + recorded:
        return ops
    K = cap["K"]
    b = cap["b"] if "b" in cap else None
    x, y = np.array(t["x"]), np.array(t["y"])
    t = t | {"mu": mu}
    C, bound = _throughput_bound(w, t, K, b, ref, t["iters"])
    if w["experiment"] == "game":
        value = R.game_gap(K, x, y)
    else:
        value = R.lad_primal(K, b, lam, mu, x) - ref.F
    ok = value <= bound + R.cert_slack(C)
    for op in bare + recorded:
        op.check(ok, f"final iterate {value!r} exceeds bound {bound!r}")
        op.check(t["identical"], "repeated solves returned different iterates")
    if not recorded or trace_path is None:
        return ops

    tr = read_trace(trace_path)
    ks = tr["k"]
    F, G, gap = _values_at(w, K, b, lam, mu, x, y)
    exp = w["experiment"]
    col, want = ("gap", gap) if exp == "game" else ("F", F)
    C, bound = _throughput_bound(w, t, K, b, ref, ks)
    metric = tr["gap"] if exp == "game" else tr["F"] - ref.F
    excess = metric - bound - R.cert_slack(C)
    for op in recorded:
        op.check(len(ks) > 0 and ks[-1] == t["iters"],
                 "last trace row is not the last iterate")
        op.check(_close(tr[col][-1], want, RECORD_TOL),
                 f"recorded final {col} {tr[col][-1]!r} vs numpy {want!r}")
        op.check(_close(tr["G"][-1], G, RECORD_TOL),
                 f"recorded final G {tr['G'][-1]!r} vs numpy {G!r}")
        op.check(bool(np.all(excess <= 0.0)),
                 f"bound violated at k={int(ks[np.argmax(excess)])}")
        if exp == "lad-case1":
            floor = ref.F - BELOW_TOL * (1.0 + abs(ref.F))
            op.check(bool(np.all(tr["F"] >= floor)),
                     f"traced F {tr['F'].min()!r} below F* {ref.F!r}")
        if exp == "lad-case2":
            s = tr["F"] + tr["G"]
            op.check(bool(np.all(s >= 0.0)),
                     f"weak duality broken: min F + G = {np.nanmin(s)!r}")
        if exp == "game":
            op.check(bool(np.all(tr["gap"] >= 0.0)),
                     f"negative game gap {tr['gap'].min()!r}")
    return ops
