"""The benchmark's workloads, declared as data.

Each workload is one ``nspd run`` experiment at a fixed instance seed.  The
benchmark's ``--seed`` does not change the instance's content: it draws a
row and a column permutation that relabel K, b and x.  The optimum, the
iteration counts and the oracle's work are the same for every seed, while
the operands the program sees differ in layout and rounding.
"""

from __future__ import annotations

import numpy as np

INSTANCE_SEED = 0          # the oracle passes on this instance (README)
REFERENCE_BUDGET = 100_000  # the oracle's budget floor

WORKLOADS = {
    # lad-case1 at desk scale (200 x 64): the 3-arm oracle and the ADMM
    # inner solves dominate; 100 iterations keep a run well under a minute
    "lad1-desk": {
        "experiment": "lad-case1",
        "scale": "desk",
        "max_iters": 100,
        "setup_repeats": 7,
        "variants": ["pd_general_c1", "pd_general_c2", "cp_rho0.1", "cp_rho1",
                     "cp_rho10", "admm_rho0.5", "admm_rho10", "admm_rho30"],
        "throughput": {"method": "pd_general", "c": 2.0, "gamma": 0.999,
                       "iters": 100},
    },
    # lad-case2 (elastic net, mu_f = 0.1, correlated columns): the only
    # workload running pd_strong and the strongly convex oracle arms
    "lad2-desk": {
        "experiment": "lad-case2",
        "scale": "desk",
        "max_iters": 6000,
        "setup_repeats": 7,
        "variants": ["pd_strong_case1", "pd_strong_case1_rho5x",
                     "pd_strong_case2_c4", "cp_scvx_rho0.01",
                     "cp_scvx_rho0.75", "cp_scvx_rho1", "cp_scvx_rho5"],
        "throughput": {"method": "pd_strong", "case": 2, "c": 4.0,
                       "gamma": 0.75, "iters": 100},
    },
    # game at paper scale (1000 x 2000 dense, 10% nonzeros): no oracle;
    # matvecs, recorder products and simplex projections dominate
    "game-paper": {
        "experiment": "game",
        "scale": "paper",
        "max_iters": 500,
        "epsilon": 1e-2,
        "setup_repeats": 2,
        "variants": ["pd_general_c1", "pd_general_c2", "smoothing_mu0.2",
                     "smoothing_mu1", "smoothing_mu5"],
        "throughput": {"method": "pd_general", "c": 1.0, "gamma": 0.5,
                       "iters": 10},
    },
}


def nspd_argv(w: dict, out_dir: str) -> list[str]:
    """The ``nspd`` command line the workload runs."""
    argv = ["run", w["experiment"], f"--{w['scale']}",
            "--seed", str(INSTANCE_SEED), "--max-iters", str(w["max_iters"]),
            "--reference-budget", str(REFERENCE_BUDGET),
            "--out", out_dir, "--check"]
    if "epsilon" in w:
        argv += ["--epsilon", repr(w["epsilon"])]
    return argv


def permutations(seed: int, rows: int, cols: int):
    """Row and column permutations drawn from the benchmark seed."""
    rng = np.random.default_rng([seed, rows, cols])
    return rng.permutation(rows), rng.permutation(cols)
