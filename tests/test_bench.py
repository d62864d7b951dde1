"""Tests for instance generation and the experiment harness."""

import json
import re

import numpy as np
import pytest

from nspd import bench, linop, metrics
from nspd.bench import GameConfig, LadConfig, gen_game, gen_lad
from nspd.errors import ConfigurationError
from nspd.linop import LinearMap, estimate_norm, load_triplets


def test_lad_default_desk_scale():
    cfg = LadConfig()
    assert (cfg.n, cfg.p, cfg.s) == (200, 64, 8)
    assert cfg.lam == 0.05
    assert bench.NOISE_SIGMA == pytest.approx(0.1)  # variance 0.01
    assert bench.NOISE_DENSITY == 0.1


def test_lad_paper_scale_dimensions():
    assert (bench.PAPER_LAD.n, bench.PAPER_LAD.p) == (2000, 640)
    assert (bench.PAPER_GAME.n, bench.PAPER_GAME.p) == (1000, 2000)


def test_gen_lad_deterministic_under_seed():
    a1, x1 = gen_lad(LadConfig(n=30, p=10, s=3, seed=5))
    a2, x2 = gen_lad(LadConfig(n=30, p=10, s=3, seed=5))
    assert np.array_equal(a1.K.matrix, a2.K.matrix)
    assert np.array_equal(x1, x2)
    assert np.array_equal(a1.g.shift, a2.g.shift)
    a3, x3 = gen_lad(LadConfig(n=30, p=10, s=3, seed=6))
    assert not np.array_equal(x1, x3)


def test_gen_lad_structure():
    cfg = LadConfig(n=40, p=12, s=4, seed=1)
    problem, x_true = gen_lad(cfg)
    assert (problem.K.rows, problem.K.cols) == (40, 12)
    assert int(np.count_nonzero(x_true)) == 4
    # b = K x_true + sparse noise
    resid = problem.g.shift - problem.K.apply(x_true)
    assert np.count_nonzero(resid) <= 0.35 * 40
    assert problem.f.kind == "l1"


def test_gen_lad_elastic_when_mu_positive():
    problem, _ = gen_lad(LadConfig(n=20, p=8, s=2, mu_f=0.1, seed=0))
    assert problem.f.mu == pytest.approx(0.1)


def test_gen_lad_correlated_columns_keep_norms():
    cfg = LadConfig(n=60, p=16, s=4, correlated_fraction=0.5, seed=2)
    base, _ = gen_lad(LadConfig(n=60, p=16, s=4, seed=2))
    mixed, _ = gen_lad(cfg)
    A0 = base.K.matrix
    A1 = mixed.K.matrix
    assert not np.array_equal(A0, A1)
    assert np.allclose(np.linalg.norm(A0, axis=0), np.linalg.norm(A1, axis=0))
    # mixed trailing columns correlate with their left neighbor
    j = 15
    c = np.corrcoef(A1[:, j], A1[:, j - 1])[0, 1]
    assert c > 0.3


def test_gen_lad_fully_correlated_keeps_its_first_column():
    """With every column mixed, column 0 has no left neighbour and stays."""
    base, _ = gen_lad(LadConfig(n=30, p=6, s=2, seed=4))
    mixed, _ = gen_lad(LadConfig(n=30, p=6, s=2, correlated_fraction=1.0,
                                 seed=4))
    A0, A1 = base.K.matrix, mixed.K.matrix
    assert np.array_equal(A1[:, 0], A0[:, 0])
    assert not np.array_equal(A1[:, 1:], A0[:, 1:])
    assert np.allclose(np.linalg.norm(A0, axis=0), np.linalg.norm(A1, axis=0))


def test_gen_game_unit_norm(monkeypatch):
    game = gen_game(GameConfig(n=30, p=50, density=0.1, seed=4))
    # check the scaling independently of the estimate that set it: an SVD,
    # and Lanczos from a start other than the one gen_game's sigma used
    assert abs(np.linalg.svd(game.K.matrix, compute_uv=False)[0] - 1.0) <= 1e-8
    monkeypatch.setattr(linop, "LANCZOS_SEED", linop.LANCZOS_SEED + 1)
    est = estimate_norm(game.K, tol=1e-14)
    assert abs(est.value - 1.0) <= 1e-8
    A = game.K.matrix
    density = np.count_nonzero(A) / A.size
    assert 0.05 <= density <= 0.15


def test_gen_game_deterministic():
    g1 = gen_game(GameConfig(n=20, p=25, seed=9))
    g2 = gen_game(GameConfig(n=20, p=25, seed=9))
    assert np.array_equal(g1.K.matrix, g2.K.matrix)


def _two_buffer_game_matrix(cfg):
    """gen_game's matrix with the mask drawn into an array of its own and
    the nonzeros set in a fresh zero array."""
    seed = cfg.seed
    while True:
        rng = np.random.default_rng(seed)
        mask = rng.random((cfg.n, cfg.p)) < cfg.density
        if mask.any():
            break
        seed += 1
    K = np.zeros((cfg.n, cfg.p))
    K[mask] = rng.uniform(-1.0, 1.0, size=int(mask.sum()))
    return K


# a config whose first draw has no nonzero, so the retry loop runs
RETRY_GAME = GameConfig(n=2, p=2, density=0.1, seed=1)


@pytest.mark.parametrize("cfg", [bench.DESK_GAME, GameConfig(n=300, p=500),
                                 RETRY_GAME], ids=["desk", "300x500", "retry"])
def test_gen_game_matches_two_buffer_draw(cfg, rng):
    if cfg is RETRY_GAME:
        first = np.random.default_rng(cfg.seed).random((cfg.n, cfg.p))
        assert not (first < cfg.density).any()
    game = gen_game(cfg)
    ref = LinearMap.from_dense_unit_norm(_two_buffer_game_matrix(cfg))
    assert np.array_equal(game.K.matrix, ref.matrix)
    assert game.K.norm == 1.0
    with pytest.raises(ValueError):
        game.K.matrix[0, 0] = 7.0
    for _ in range(3):
        x, y = rng.standard_normal(cfg.p), rng.standard_normal(cfg.n)
        assert np.array_equal(game.K.apply(x), ref.apply(x))
        assert np.array_equal(game.K.adjoint_apply(y), ref.adjoint_apply(y))


def test_gen_game_caps_its_redraws(monkeypatch):
    # RETRY_GAME's first nonzero mask is its second draw, from seed 2
    monkeypatch.setattr(bench, "GAME_MAX_DRAWS", 1)
    with pytest.raises(ValueError, match=re.escape(
            "a 2x2 game at density 0.1 drew no nonzero from seeds 1 to 1")):
        gen_game(RETRY_GAME)
    monkeypatch.setattr(bench, "GAME_MAX_DRAWS", 2)
    assert np.count_nonzero(gen_game(RETRY_GAME).K.matrix) > 0


def test_config_validation():
    with pytest.raises(ValueError):
        LadConfig(s=0)
    with pytest.raises(TypeError, match="noise_density"):
        LadConfig(noise_density=0.1)  # a module constant, not a field
    with pytest.raises(ValueError):
        GameConfig(density=0.0)
    with pytest.raises(ValueError, match="n must be a positive integer, got 0"):
        GameConfig(n=0)


def test_game_experiment_writes_artifacts(tmp_path):
    spec = bench.ExperimentSpec(name="game", seed=1, max_iters=300,
                                trace_every=10, out_dir=str(tmp_path),
                                epsilon=1e-1)
    # shrink the instance for test speed
    old = bench.DESK_GAME
    bench.DESK_GAME = GameConfig(n=12, p=16, density=0.3, seed=1)
    try:
        report = bench.run_experiment(spec)
    finally:
        bench.DESK_GAME = old
    assert report["exit_code"] == 0
    assert len(report["variants"]) == 5
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "certificates.json").exists()
    assert (tmp_path / "instance_K.txt").exists()
    assert not (tmp_path / "instance_b.csv").exists()  # g has no shift
    K = load_triplets(tmp_path / "instance_K.txt")
    assert (K.rows, K.cols) == (12, 16)
    trace_files = sorted(p.name for p in tmp_path.glob("trace_*.csv"))
    assert len(trace_files) == 5
    tr = metrics.Trace.from_csv(tmp_path / trace_files[0])
    assert len(tr) > 0
    # gap certificate for the c=1 variant is present and checked
    labels = {v["label"]: v for v in report["variants"]}
    assert labels["pd_general_c1"]["certificate_ok"] is True
    # every variant's wall time reaches report.json
    with open(tmp_path / "report.json") as fh:
        written = json.load(fh)["variants"]
    assert len(written) == 5
    assert all(v["wall_s"] > 0 for v in written)
    assert report["terms"] == {"f": {"kind": "simplex_indicator", "params": {}},
                               "g": {"kind": "simplex_support", "params": {}}}


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(ValueError):
        bench.run_experiment(bench.ExperimentSpec(name="nope",
                                                  out_dir=str(tmp_path)))


@pytest.mark.parametrize("field, value", [("scale", "Paper"), ("scale", ""),
                                          ("trace_every", 0),
                                          ("trace_every", "linear")])
def test_bad_spec_is_rejected_when_built(field, value):
    with pytest.raises(ValueError, match=repr(value)):
        bench.ExperimentSpec(name="game", **{field: value})


@pytest.mark.parametrize("max_iters", [0, -5])
def test_spec_refuses_fewer_than_one_iteration(max_iters):
    # an empty trace has nothing to check a certificate against
    with pytest.raises(ValueError, match=f"max_iters.*{max_iters}"):
        bench.ExperimentSpec(name="game", max_iters=max_iters)


def test_spec_reads_epsilon_only_in_the_game():
    assert bench.ExperimentSpec(name="game").epsilon == 1e-3
    assert bench.ExperimentSpec(name="lad-case1").epsilon is None
    with pytest.raises(ConfigurationError, match="epsilon.*got 0.0"):
        bench.ExperimentSpec(name="game", epsilon=0.0)
    with pytest.raises(ConfigurationError, match="epsilon.*got 0.001"):
        bench.ExperimentSpec(name="lad-case2", epsilon=1e-3)


# the rows of each LAD experiment in run order (perfbench/workloads.py lists
# the same), with the certificate each certified row carries
LAD_ROWS = {
    "lad-case1": [("pd_general_c1", "general_primal"),
                  ("pd_general_c2", "general_fast"), ("cp_rho0.1", None),
                  ("cp_rho1", None), ("cp_rho10", None),
                  ("admm_rho0.5", None), ("admm_rho10", None),
                  ("admm_rho30", None)],
    "lad-case2": [("pd_strong_case1", "strong_primal"),
                  ("pd_strong_case1_rho5x", None),
                  ("pd_strong_case2_c4", "strong_fast"),
                  ("cp_scvx_rho0.01", None), ("cp_scvx_rho0.75", None),
                  ("cp_scvx_rho1", None), ("cp_scvx_rho5", None)],
}


@pytest.mark.parametrize("name", sorted(LAD_ROWS))
def test_lad_experiment_rows(tmp_path, monkeypatch, name):
    monkeypatch.setattr(bench, "DESK_LAD", LadConfig(n=16, p=6, s=2))
    ref_x = np.linspace(-0.5, 0.5, 6)
    ref_y = np.linspace(-0.2, 0.2, 16)
    ref = metrics.ReferenceSolution(ref_x, ref_y, F=0.0, residual=0.0,
                                    exact_arm="stub")
    monkeypatch.setattr(metrics, "reference_solution", lambda problem: ref)
    made = []
    make_instance = bench.make_instance
    monkeypatch.setattr(bench, "make_instance",
                        lambda cfg: made.append(make_instance(cfg)) or made[0])
    report = bench.run_experiment(bench.ExperimentSpec(
        name=name, max_iters=40, out_dir=str(tmp_path)))
    assert report["exit_code"] == 0
    # both write the b of l1_shifted(b), so the instance is in the artifacts
    b = np.loadtxt(tmp_path / "instance_b.csv", delimiter=",")
    assert np.array_equal(b, made[0].problem.g.shift)
    got = [(v["label"], v["certificate"] and v["certificate"]["name"])
           for v in report["variants"]]
    assert got == LAD_ROWS[name]
    assert all(v["error"] is None for v in report["variants"])
    assert [c["name"] for c in report["certificates"]] == \
        [cert for _, cert in LAD_ROWS[name] if cert]
    for label, _ in LAD_ROWS[name]:
        assert len(metrics.Trace.from_csv(tmp_path / f"trace_{label}.csv")) > 0
    # report.json names the instance's terms and how the oracle found F*
    with open(tmp_path / "report.json") as fh:
        written = json.load(fh)
    f = made[0].problem.f
    assert written["terms"] == {
        "f": {"kind": f.kind, "params": dict(f.params)},
        "g": {"kind": "l1_shifted", "params": {}}}
    assert f.kind == ("l1" if name == "lad-case1" else "elastic")
    assert written["reference"]["exact_arm"] == "stub"
