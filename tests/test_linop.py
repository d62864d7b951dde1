"""Tests for the linear operator layer."""

import os
import signal
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import nspd
from nspd import bench, linop
from nspd.errors import DimensionMismatchError
from nspd.linop import LinearMap, estimate_norm, load_triplets, save_triplets


def test_dense_apply_hand_value():
    op = LinearMap.from_dense([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(op.apply(np.array([1.0, 1.0])), [3.0, 7.0])
    assert np.allclose(op.adjoint_apply(np.array([1.0, 1.0])), [4.0, 6.0])


def test_dimension_mismatch_rejected():
    op = LinearMap.from_dense(np.ones((3, 2)))
    with pytest.raises(DimensionMismatchError):
        op.apply(np.ones(3))
    with pytest.raises(DimensionMismatchError):
        op.adjoint_apply(np.ones(2))


def test_linearity_random(rng):
    A = rng.standard_normal((7, 5))
    op = LinearMap.from_dense(A)
    for _ in range(20):
        u, v = rng.standard_normal(5), rng.standard_normal(5)
        a, b = rng.standard_normal(2)
        lhs = op.apply(a * u + b * v)
        rhs = a * op.apply(u) + b * op.apply(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_adjoint_consistency_100_pairs(rng, storage, monkeypatch):
    op = _as_map(rng.standard_normal((12, 8)), storage, monkeypatch)
    for _ in range(100):
        u = rng.standard_normal(8)
        w = rng.standard_normal(12)
        lhs = float(op.apply(u) @ w)
        rhs = float(u @ op.adjoint_apply(w))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


# -- kernel choice of from_dense ----------------------------------------------

def _sparse_400():
    """400x400 (above _CSR_MIN_ENTRIES) with 10% nonzeros uniform in [-1, 1]."""
    rng = np.random.default_rng(41)
    return np.where(rng.random((400, 400)) < 0.1,
                    rng.uniform(-1.0, 1.0, (400, 400)), 0.0)


# a CSR-backed and a BLAS-backed array, as ``make`` of the test
_EACH_KERNEL = pytest.mark.parametrize(
    "make", [_sparse_400,
             lambda: np.random.default_rng(3).standard_normal((60, 40))],
    ids=["csr", "blas"])


def _close(a, b, rel=1e-13):
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


def test_large_sparse_dense_array_multiplies_through_csr(rng):
    A = _sparse_400()
    op = LinearMap.from_dense(A)
    S = sp.csr_matrix(A)
    St = S.T.tocsr()
    for _ in range(5):
        x, y = rng.standard_normal(400), rng.standard_normal(400)
        # bit-equal to the CSR kernel, and equal to BLAS up to rounding
        assert np.array_equal(op.apply(x), S @ x)
        assert np.array_equal(op.adjoint_apply(y), St @ y)
        assert _close(op.apply(x), A @ x)
        assert _close(op.adjoint_apply(y), A.T @ y)
    assert isinstance(op.matrix, np.ndarray)
    assert np.array_equal(op.matrix, A)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 7.0


@_EACH_KERNEL
def test_writes_to_the_input_do_not_reach_the_map(rng, make):
    A = make()
    op = LinearMap.from_dense(A)
    x, y = rng.standard_normal(op.cols), rng.standard_normal(op.rows)
    Kx, Kty, M = op.apply(x), op.adjoint_apply(y), op.matrix.copy()
    A[:] = 7.0
    assert np.array_equal(op.apply(x), Kx)
    assert np.array_equal(op.adjoint_apply(y), Kty)
    assert np.array_equal(op.matrix, M)


def test_csr_backed_map_keeps_no_dense_copy():
    A = _sparse_400()
    tracemalloc.start()
    try:
        op = LinearMap.from_dense(A)
        kept, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        D = op.matrix
        dense_peak = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    # the CSR pair of 10% nonzeros: 2 x 12 bytes per nonzero, ~0.3 A.nbytes
    assert kept < A.nbytes / 2
    # matrix builds one array, no more
    assert dense_peak < 1.5 * A.nbytes
    assert np.array_equal(op.matrix, A) and np.array_equal(D, A)


def test_csr_backed_triplets_match_blas_backed(tmp_path, monkeypatch):
    A = _sparse_400()
    save_triplets(tmp_path / "csr.txt", LinearMap.from_dense(A))
    # the same entries in a map below the size threshold, so through BLAS
    monkeypatch.setattr(linop, "_CSR_MIN_ENTRIES", A.size + 1)
    blas = LinearMap.from_dense(A)
    save_triplets(tmp_path / "blas.txt", blas)
    text = (tmp_path / "csr.txt").read_bytes()
    assert text == (tmp_path / "blas.txt").read_bytes()
    assert text == _old_triplet_text(blas).encode()


@_EACH_KERNEL
def test_unit_norm_map_equals_dividing_first(rng, make):
    A = make()
    original = A.copy()
    op = LinearMap.from_dense_unit_norm(A)
    sigma = estimate_norm(LinearMap.from_dense(A), tol=1e-14).value
    ref = LinearMap.from_dense(A / sigma)
    assert np.array_equal(A, original)  # the caller's array is untouched
    assert op.norm == 1.0
    assert np.array_equal(op.matrix, ref.matrix)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 7.0
    for _ in range(3):
        x, y = rng.standard_normal(op.cols), rng.standard_normal(op.rows)
        assert np.array_equal(op.apply(x), ref.apply(x))
        assert np.array_equal(op.adjoint_apply(y), ref.adjoint_apply(y))
    with pytest.raises(ValueError):
        LinearMap.from_dense_unit_norm(np.zeros((3, 2)))


def test_dense_and_small_arrays_keep_blas(rng):
    gaussian = rng.standard_normal((400, 400))
    game = bench.gen_game(bench.DESK_GAME).K  # 100x200 at 10% nonzeros
    for op in (LinearMap.from_dense(gaussian), game):
        A = op.matrix
        for _ in range(5):
            x, y = rng.standard_normal(op.cols), rng.standard_normal(op.rows)
            assert np.array_equal(op.apply(x), A @ x)
            assert np.array_equal(op.adjoint_apply(y), A.T @ y)


def _strided_views(rng, size):
    """A contiguous vector and three strided ones of length ``size``."""
    return [rng.standard_normal(size),
            rng.standard_normal(2 * size)[::2],
            rng.standard_normal((size, 3))[:, 1],
            np.asfortranarray(rng.standard_normal((2, size)))[0]]


@pytest.mark.parametrize("shape", [(200, 64), (1, 7), (7, 1), (1, 1)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("make", [LinearMap.from_dense,
                                  LinearMap.from_dense_unit_norm],
                         ids=["from_dense", "unit_norm"])
def test_dense_products_equal_matmul_bit_for_bit(rng, shape, make):
    # the unit-norm map's array is divided in place after its norm estimate
    op = make(rng.standard_normal(shape))
    A = op.matrix
    for x in _strided_views(rng, op.cols):
        assert np.array_equal(op.apply(x), A @ x)
    for y in _strided_views(rng, op.rows):
        assert np.array_equal(op.adjoint_apply(y), A.T @ y)
    # a reversed view is multiplied as its contiguous copy
    x, y = rng.standard_normal(op.cols)[::-1], rng.standard_normal(op.rows)[::-1]
    assert np.array_equal(op.apply(x), A @ x.copy())
    assert np.array_equal(op.adjoint_apply(y), A.T @ y.copy())


def test_norm_identity():
    est = estimate_norm(LinearMap.from_dense(np.eye(6)))
    assert est.converged
    assert abs(est.value - 1.0) <= 1e-8


def test_norm_diagonal():
    op = LinearMap.from_dense(np.diag([3.0, 1.0]))
    est = estimate_norm(op, tol=1e-14)
    assert abs(est.value - 3.0) <= 1e-6


def test_norm_matches_svd_oracle(rng):
    A = rng.standard_normal((20, 10))
    op = LinearMap.from_dense(A)
    sigma = np.linalg.svd(A, compute_uv=False)[0]  # independent dense oracle
    est = estimate_norm(op, tol=1e-14)
    assert abs(est.value - sigma) <= 1e-6 * sigma


def test_norm_deterministic_under_seed(rng, monkeypatch):
    op = LinearMap.from_dense(rng.standard_normal((9, 9)))
    for seed in (linop.LANCZOS_SEED, 3):
        monkeypatch.setattr(linop, "LANCZOS_SEED", seed)
        a = estimate_norm(op).value
        b = estimate_norm(op).value
        assert a == b


def test_norm_zero_map():
    assert estimate_norm(LinearMap.from_dense(np.zeros((3, 3)))).value == 0.0


def test_norm_nonconvergence_warns(rng, monkeypatch):
    # two equal singular values stall the Rayleigh gap criterion only in
    # pathological cases; force non-convergence with a step cap of 1 instead
    monkeypatch.setattr(linop, "LANCZOS_MAX_STEPS", 1)
    op = LinearMap.from_dense(rng.standard_normal((6, 6)))
    with pytest.warns(RuntimeWarning):
        est = estimate_norm(op, tol=1e-16)
    assert not est.converged
    assert est.value >= 0


def test_norm_dominates_probe_rayleighs(rng):
    A = rng.standard_normal((15, 9))
    op = LinearMap.from_dense(A)
    sigma = estimate_norm(op, tol=1e-14).value
    for _ in range(50):
        u = rng.standard_normal(9)
        assert sigma >= np.linalg.norm(op.apply(u)) / np.linalg.norm(u) - 1e-8


def _keep_csr(monkeypatch):
    """Make :meth:`LinearMap.from_dense` keep only CSR copies of any array."""
    monkeypatch.setattr(linop, "_CSR_MIN_ENTRIES", 0)
    monkeypatch.setattr(linop, "_CSR_MAX_DENSITY", 1.0)


def _as_map(A, storage, monkeypatch):
    """``from_dense(A)`` with the kernel its rule picks ("dense") or with
    only CSR copies ("csr"), or ``A`` wrapped in callables."""
    A = np.asarray(A, dtype=float)
    if storage == "csr":
        _keep_csr(monkeypatch)
    if storage in ("dense", "csr"):
        return LinearMap.from_dense(A)
    return LinearMap(A.shape[0], A.shape[1], lambda x: A @ x,
                     lambda y: A.T @ y)


def _norm_cases():
    rng = np.random.default_rng(31)
    return {
        "wide": rng.standard_normal((30, 80)),
        "tall": rng.standard_normal((80, 30)),
        "1x1": np.array([[-2.5]]),
        "3x1": np.array([[1.0], [-2.0], [0.5]]),
        "rank1": np.outer(rng.standard_normal(40), rng.standard_normal(25)),
        "diag31": np.diag([3.0, 1.0]),
        "sparse_wide": (rng.standard_normal((60, 150))
                        * (rng.random((60, 150)) < 0.1)),
        "csr_400": _sparse_400(),  # from_dense multiplies through CSR
    }


@pytest.mark.parametrize("storage", ["dense", "csr", "custom"])
@pytest.mark.parametrize("case", sorted(_norm_cases()))
def test_norm_agrees_with_svd(storage, case, monkeypatch):
    A = _norm_cases()[case]
    sigma = np.linalg.svd(A, compute_uv=False)[0]  # independent dense oracle
    est = estimate_norm(_as_map(A, storage, monkeypatch))
    assert est.converged
    assert 1 <= est.iterations <= A.shape[1]
    assert abs(est.value - sigma) <= 1e-13 * sigma


def test_norm_game_shaped_converges_in_few_matvecs():
    # shaped like the paper-scale game: 1000x2000, 10% nonzeros uniform in
    # [-1, 1]; power iteration needs ~1000 K^T K products to reach this tol
    rng = np.random.default_rng(0)
    A = np.where(rng.random((1000, 2000)) < 0.1,
                 rng.uniform(-1.0, 1.0, (1000, 2000)), 0.0)
    calls = {"apply": 0, "adjoint": 0}

    def forward(x):
        calls["apply"] += 1
        return A @ x

    def adjoint(y):
        calls["adjoint"] += 1
        return A.T @ y

    est = estimate_norm(LinearMap(1000, 2000, forward, adjoint), tol=1e-14)
    assert est.converged
    assert calls["apply"] == calls["adjoint"] == est.iterations <= 200


def _old_triplet_text(op):
    """The original writer: densify, then one formatted line per nonzero."""
    A = op.matrix
    i, j = np.nonzero(A)
    return f"{op.rows} {op.cols} {len(i)}\n" + "".join(
        f"{ii} {jj} {float(A[ii, jj])!r}\n" for ii, jj in zip(i, j))


def _fixed_triplet_map(kind, monkeypatch):
    A = np.array([[0.1, 0.0, -1e-20, 3.0],
                  [0.0, 0.0, 0.0, 0.0],
                  [1e16, -2.5, 0.0, 1.0 / 3.0],
                  [5e-324, 0.0, 123456789.125, -0.0]])
    if kind == "dense":
        return LinearMap.from_dense(A)
    # only CSR copies, divided by ||A|| in place: 5e-324 underflows to an
    # entry stored as zero, which the writer must skip
    _keep_csr(monkeypatch)
    with np.errstate(under="ignore"):
        op = LinearMap.from_dense_unit_norm(A)
    assert np.count_nonzero(op._stored.data) < op._stored.nnz
    return op


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("kind", ["dense", "csr"])
def test_triplet_bytes_match_original_writer(tmp_path, monkeypatch, kind,
                                             block):
    if block is not None:  # lines split across several write blocks
        monkeypatch.setattr(linop, "_WRITE_BLOCK", block)
    op = _fixed_triplet_map(kind, monkeypatch)
    path = tmp_path / "m.txt"
    save_triplets(path, op)
    assert path.read_bytes() == _old_triplet_text(op).encode()
    back = load_triplets(path)
    assert (back.rows, back.cols) == (op.rows, op.cols)
    assert np.array_equal(back.matrix, op.matrix)


def test_triplet_empty_and_truncated(tmp_path):
    path = tmp_path / "m.txt"
    save_triplets(path, LinearMap.from_dense(np.zeros((2, 3))))
    assert path.read_text() == "2 3 0\n"
    assert np.array_equal(load_triplets(path).matrix, np.zeros((2, 3)))
    for text in ("2 2 3\n0 0 1.0\n1 1 2.0\n",  # truncated
                 "2 2 1\n0 2 1.0\n", "2 2 1\n-1 0 1.0\n"):  # out of range
        path.write_text(text)
        with pytest.raises(ValueError):
            load_triplets(path)


@pytest.mark.parametrize("text, bad", [("2 2 1\n0.7 1 1.5\n", "0.7"),
                                       ("2 2 1\n0 1.5 1.5\n", "1.5"),
                                       ("2 2 1\n0 nan 1.5\n", "nan")])
def test_load_triplets_refuses_a_fractional_index(tmp_path, text, bad):
    # a cast to int would load 0.7 as row 0
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"index {bad} is not an integer"):
        load_triplets(path)


def _load_text(path, text):
    path.write_text(text)
    return load_triplets(path)


@pytest.mark.parametrize("make, message", [
    (lambda tmp: LinearMap.from_dense(np.ones(3)), "2-d array"),
    (lambda tmp: LinearMap.from_dense(np.ones((2, 2, 2))), "2-d array"),
    (lambda tmp: LinearMap(0, 3, abs, abs), "dimensions must be positive"),
    (lambda tmp: LinearMap(2, -1, abs, abs), "dimensions must be positive"),
    (lambda tmp: _load_text(tmp / "m.txt", "2 2\n0 0 1.0\n"), "header"),
    (lambda tmp: _load_text(tmp / "m.txt", ""), "header")],
    ids=["1-d", "3-d", "no_rows", "negative_cols", "short_header", "empty"])
def test_linop_refuses_a_malformed_operator(make, message, tmp_path):
    with pytest.raises(ValueError, match=message):
        make(tmp_path)


def test_load_triplets_sums_repeated_entries(tmp_path):
    path = tmp_path / "m.txt"
    # (0, 4) and (2, 0) are given twice, and the two (1, 1) entries cancel
    path.write_text("3 5 7\n0 4 0.5\n2 0 1e-07\n1 1 2.0\n1 1 -2.0\n"
                    "2 3 -7.0\n0 4 0.25\n2 0 1e+22\n")
    op = load_triplets(path)
    A = np.zeros((3, 5))
    A[0, 4], A[2, 0], A[2, 3] = 0.75, 1e-07 + 1e+22, -7.0
    assert np.array_equal(op.matrix, A)
    save_triplets(path, op)
    assert path.read_text() == "3 5 3\n0 4 0.75\n2 0 1e+22\n2 3 -7.0\n"


def test_triplet_roundtrip(tmp_path, rng):
    A = rng.standard_normal((5, 4))
    A[rng.random((5, 4)) < 0.4] = 0.0
    op = LinearMap.from_dense(A)
    path = tmp_path / "m.txt"
    save_triplets(path, op)
    op2 = load_triplets(path)
    assert (op2.rows, op2.cols) == (5, 4)
    assert np.array_equal(op2.matrix, A)


def save_dense_csv(path, op):
    """Write the materialized operator as plain CSV."""
    np.savetxt(path, op.matrix, delimiter=",")


def test_dense_csv_export(tmp_path):
    op = LinearMap.from_dense([[1.5, 0.0], [0.0, -2.0]])
    path = tmp_path / "m.csv"
    save_dense_csv(path, op)
    back = np.loadtxt(path, delimiter=",")
    assert np.array_equal(back, op.matrix)


def _callables_map(A):
    return LinearMap(A.shape[0], A.shape[1], lambda x: A @ x,
                     lambda y: A.T @ y)


# each way a map keeps its matrix: an ndarray, CSR copies of a dense array,
# nothing but its products
@pytest.mark.parametrize("A, wrap", [
    (np.random.default_rng(5).standard_normal((3, 4)), LinearMap.from_dense),
    (_sparse_400(), LinearMap.from_dense),
    (np.random.default_rng(5).standard_normal((3, 4)), _callables_map)],
    ids=["dense", "csr_dense", "callables"])
def test_dense_matrix_is_readonly(A, wrap):
    op = wrap(A)
    assert isinstance(op.matrix, np.ndarray)
    assert np.array_equal(op.matrix, A)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 7.0


# -- where scipy.sparse is imported ---------------------------------------------
# Each check runs in a fresh interpreter, since this one has scipy.sparse loaded.

def _run_fresh(code, *args):
    """Run ``code`` in a new interpreter that imports this checkout's nspd;
    returns its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nspd.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_dense_paths_leave_scipy_sparse_unimported(tmp_path):
    out = _run_fresh("""
import sys
import numpy as np
import nspd
from nspd import bench
from nspd.linop import LinearMap, save_triplets
assert "scipy.sparse" not in sys.modules, "import nspd"
for cfg in (bench.DESK_LAD, bench.LadConfig(mu_f=0.1, correlated_fraction=0.5)):
    problem, _ = bench.gen_lad(cfg)
    assert problem.K.norm > 0
assert "scipy.sparse" not in sys.modules, "gen_lad"
save_triplets(sys.argv[1], LinearMap.from_dense(np.eye(3)))
assert "scipy.sparse" not in sys.modules, "save_triplets"
print("ok")
""", tmp_path / "eye.txt")
    assert out.split() == ["ok"]
    assert (tmp_path / "eye.txt").read_text().startswith("3 3 3\n")


def test_csr_path_in_fresh_interpreter():
    out = _run_fresh("""
import sys
import numpy as np
from nspd.linop import LinearMap
rng = np.random.default_rng(41)
A = np.where(rng.random((400, 400)) < 0.1, rng.uniform(-1.0, 1.0, (400, 400)), 0.0)
op = LinearMap.from_dense(A)
assert "scipy.sparse" in sys.modules  # loaded for the CSR copies
import scipy.sparse as sp
x, y = rng.standard_normal(400), rng.standard_normal(400)
S = sp.csr_matrix(A)
assert np.array_equal(op.apply(x), S @ x)
assert np.array_equal(op.adjoint_apply(y), S.T.tocsr() @ y)
print("ok")
""")
    assert out.split() == ["ok"]


def test_triplets_in_fresh_interpreter(tmp_path):
    # a loaded map multiplies through the kernel from_dense picks: the
    # lad1-desk K through BLAS, bit for bit as the generated map, with
    # scipy.sparse never imported; a game-shaped array (2^17 entries or
    # more, at most 15% nonzero) through CSR copies alone
    save_triplets(tmp_path / "game.txt", LinearMap.from_dense(_sparse_400()))
    out = _run_fresh("""
import sys
import numpy as np
from nspd import bench
from nspd.linop import load_triplets, save_triplets
K = bench.gen_lad(bench.DESK_LAD)[0].K
save_triplets(sys.argv[1], K)
op = load_triplets(sys.argv[1])
assert "scipy.sparse" not in sys.modules
rng = np.random.default_rng(7)
for _ in range(50):
    x, y = rng.standard_normal(K.cols), rng.standard_normal(K.rows)
    assert np.array_equal(op.apply(x), K.apply(x))
    assert np.array_equal(op.adjoint_apply(y), K.adjoint_apply(y))
game = load_triplets(sys.argv[2])
import scipy.sparse as sp
assert sp.issparse(game._stored)
rng = np.random.default_rng(41)
A = np.where(rng.random((400, 400)) < 0.1, rng.uniform(-1.0, 1.0, (400, 400)), 0.0)
assert np.array_equal(game.matrix, A)
print("ok")
""", tmp_path / "lad1.txt", tmp_path / "game.txt")
    assert out.split() == ["ok"]


# -- CSR products as row blocks -------------------------------------------------

class _CountingPool:
    """Hands each block to the library's pool and counts the blocks."""

    def __init__(self, pool):
        self.pool, self.blocks = pool, 0

    def submit(self, fn, *args):
        self.blocks += 1
        return self.pool.submit(fn, *args)


def _split_map(A, monkeypatch, cpus=3):
    """``from_dense(A)`` kept as CSR, each product split over ``cpus`` row
    blocks (fewer when ``A`` has fewer rows or nonzeros), and the pool that
    runs blocks 1.. of its products."""
    _keep_csr(monkeypatch)
    monkeypatch.setattr(linop, "_CSR_MIN_BLOCK_NNZ", 1)
    monkeypatch.setattr(linop, "_cpus", lambda: cpus)
    pool = _CountingPool(linop._helpers())
    monkeypatch.setattr(linop, "_helpers", lambda: pool)
    return LinearMap.from_dense(A), pool


def _assert_bit_equal_products(op, A, x, y):
    """``op``'s products are bit-equal to CSR products of ``A`` built here."""
    assert np.array_equal(op.apply(x), sp.csr_matrix(A) @ x)
    assert np.array_equal(op.adjoint_apply(y), sp.csr_matrix(A.T) @ y)


def _sparse(rows, cols, seed=5, density=0.4):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((rows, cols)) < density,
                    rng.standard_normal((rows, cols)), 0.0)


def test_split_products_of_strided_and_reversed_vectors(monkeypatch, rng):
    A = _sparse(40, 30)
    op, pool = _split_map(A, monkeypatch)
    x, y = rng.standard_normal(60), rng.standard_normal(80)
    for u, v in [(x[:30], y[:40]), (x[::2], y[::2]), (x[30:][::-1],
                                                      y[40:][::-1])]:
        _assert_bit_equal_products(op, A, u, v)
    assert pool.blocks == 3 * 2 * 2  # two blocks per product off the caller


@pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 7), (2, 50)])
def test_split_products_of_small_shapes(shape, monkeypatch, rng):
    # (2, 50): fewer rows than the 8 blocks asked for
    A = _sparse(*shape, density=0.7) + np.eye(*shape)
    op, pool = _split_map(A, monkeypatch, cpus=8)
    x, y = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
    _assert_bit_equal_products(op, A, x, y)
    # at most one block a row, or a column for the adjoint
    assert pool.blocks <= min(shape[0], 8) - 1 + min(shape[1], 8) - 1


def test_split_products_from_user_threads_at_once(monkeypatch):
    # more user threads than CPUs, switching often, on one map
    A = _sparse(120, 90, density=0.2)
    op, pool = _split_map(A, monkeypatch)
    S, St = sp.csr_matrix(A), sp.csr_matrix(A.T)
    wrong, start = [], threading.Barrier(4)

    def multiply(seed):
        rng = np.random.default_rng(seed)
        start.wait()
        for _ in range(200):
            x, y = rng.standard_normal(90), rng.standard_normal(120)
            if not (np.array_equal(op.apply(x), S @ x)
                    and np.array_equal(op.adjoint_apply(y), St @ y)):
                wrong.append(seed)

    threads = [threading.Thread(target=multiply, args=(s,)) for s in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == [] and pool.blocks == 4 * 200 * 2 * 2


def test_split_products_in_a_forked_child(monkeypatch, rng):
    A = _sparse(60, 40)
    op, _ = _split_map(A, monkeypatch)
    x, y = rng.standard_normal(40), rng.standard_normal(60)
    _assert_bit_equal_products(op, A, x, y)  # the pool and its threads exist
    pid = os.fork()
    if pid == 0:  # the child: multiply, then leave without pytest's exit
        status = 1
        try:
            signal.alarm(20)  # a child waiting on a missing thread dies
            monkeypatch.undo()  # the library's own pool, dropped at the fork
            assert linop._pool is None
            _assert_bit_equal_products(op, A, x, y)
            assert linop._pool is not None
            status = 0
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_unit_norm_rescaling_reaches_the_split_products(monkeypatch, rng):
    A = _sparse(50, 70)
    op, pool = _split_map(A, monkeypatch)
    x, y = rng.standard_normal(70), rng.standard_normal(50)
    op._stored.data *= 0.5  # in place: the forward blocks' views see it
    assert np.array_equal(op.apply(x), sp.csr_matrix(0.5 * A) @ x)
    unit = LinearMap.from_dense_unit_norm(A)
    sigma = estimate_norm(LinearMap.from_dense(A), tol=1e-14).value
    S = unit._stored
    assert np.array_equal(S.toarray(), A / sigma)
    assert np.array_equal(unit.apply(x), S @ x)
    assert np.array_equal(unit.adjoint_apply(y), S.T.tocsr() @ y)
    assert pool.blocks > 0
