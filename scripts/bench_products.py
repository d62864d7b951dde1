"""Time K and K^T products, dense BLAS against CSR, across sizes and densities.

    python scripts/bench_products.py

The evidence for the kernel choice of ``LinearMap.from_dense`` (the
constants ``_CSR_MIN_ENTRIES`` and ``_CSR_MAX_DENSITY`` in ``linop``).  For
each benchmark size (desk and paper LAD, desk and paper game) and each
density it draws a matrix whose nonzeros are uniform in [-1, 1], and reports
the microseconds per product of five kernels:

* ``dense_Kx`` ``A @ x`` and ``dense_KTy`` ``A.T @ y`` (BLAS);
* ``csr_Kx`` ``S @ x`` and ``csr_KTy`` ``St @ y``, with ``S`` the CSR copy
  of ``A`` and ``St = S.T.tocsr()``;
* ``csc_view_KTy`` ``S.T @ y``, the transpose left as a CSC view.

Each figure is the median of ``--repeats`` repeats, and each repeat the
mean of as many calls as fill ``--batch-s`` seconds.  ``kernel`` is what
``from_dense`` picks for that matrix.  The table is made twice, each in a
child process: once with one BLAS thread, as in ``perfbench``, and once with
the BLAS library's default thread count.  Results and the environment are
written to ``--out``.
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
SIZES = {"lad-desk": (200, 64), "game-desk": (100, 200),
         "lad-paper": (2000, 640), "game-paper": (1000, 2000)}
DENSITIES = (0.05, 0.1, 0.2, 0.3, 0.5)
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _us_per_call(fn, repeats, batch_s):
    t0, calls = time.perf_counter(), 0
    while time.perf_counter() - t0 < batch_s / 4:  # warm up, size the batch
        fn()
        calls += 1
    per_batch = max(1, int(batch_s * calls / (time.perf_counter() - t0)))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn()
        times.append((time.perf_counter() - t0) / per_batch * 1e6)
    return statistics.median(times)


def _table(repeats, batch_s):
    """One row per (size, density), timed in this process's BLAS setting."""
    import numpy as np
    import scipy.sparse as sp
    from nspd import linop

    rows = []
    rng = np.random.default_rng(0)
    for name, (n, p) in SIZES.items():
        for density in DENSITIES:
            A = np.where(rng.random((n, p)) < density,
                         rng.uniform(-1.0, 1.0, (n, p)), 0.0)
            S = sp.csr_matrix(A)
            St = S.T.tocsr()
            x, y = rng.standard_normal(p), rng.standard_normal(n)
            kernels = {"dense_Kx": lambda: A @ x,
                       "dense_KTy": lambda: A.T @ y,
                       "csr_Kx": lambda: S @ x,
                       "csr_KTy": lambda: St @ y,
                       "csc_view_KTy": lambda: S.T @ y}
            row = {"size": name, "shape": [n, p], "density": density,
                   "nnz_share": float(np.count_nonzero(A) / A.size),
                   "kernel": "csr" if linop._prefers_csr(A) else "dense"}
            row.update({k: _us_per_call(fn, repeats, batch_s)
                        for k, fn in kernels.items()})
            rows.append(row)
            print(f"{name:<11} {density:4.2f} "
                  + " ".join(f"{k}={row[k]:8.1f}" for k in kernels),
                  file=sys.stderr)
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--batch-s", type=float, default=0.05)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_products.json"))
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:  # one table in the BLAS setting the parent chose
        sys.path.insert(0, os.path.join(ROOT, "src"))
        json.dump(_table(args.repeats, args.batch_s), sys.stdout)
        return

    tables = {}
    for label, threads in (("blas_threads_1", "1"), ("blas_threads_default",
                                                     None)):
        env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
        if threads is not None:
            env.update(dict.fromkeys(_THREAD_VARS, threads))
        print(f"-- {label}", file=sys.stderr)
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child",
             "--repeats", str(args.repeats), "--batch-s", str(args.batch_s)],
            env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
        tables[label] = json.loads(out)

    import numpy as np
    import scipy
    doc = {
        "results": tables,
        "units": "microseconds per product, median of repeats",
        "environment": {
            "cpu_count": os.cpu_count(),
            "blas_threads": {"blas_threads_1": 1,
                             "blas_threads_default": "library default "
                             "(no thread variable set)"},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
        },
        "how": "python scripts/bench_products.py [--repeats N] [--batch-s S]",
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
