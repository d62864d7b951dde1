"""Linear operators with adjoints and spectral-norm estimation.

Solvers consume operators only through :class:`LinearMap`, which bundles a
forward map, its adjoint, and a spectral-norm estimate (a Lanczos Ritz
value, see :func:`estimate_norm`).  Every stored operator is built from a
dense array, by :meth:`LinearMap.from_dense` (which :func:`load_triplets`
calls) or :meth:`LinearMap.from_dense_unit_norm`.  It keeps a copy of its
array and multiplies through BLAS,
by the array's bound ``dot`` rather than ``@`` (numpy's ``matmul`` gufunc
calls the same BLAS routine but costs ~0.6 us more per desk-size call),
unless it has at least ``_CSR_MIN_ENTRIES`` (2^17) entries with at most a
``_CSR_MAX_DENSITY`` (15%) share nonzero: then it keeps only CSR copies of
the matrix and of its transpose and multiplies through them, and its
``matrix`` is rebuilt from the CSR copy on each access (~1.4 ms for the
1000x2000 paper game, whose dense copy would take 16 MB).  Operators are
immutable after construction and safe to share across threads;
``apply``/``adjoint_apply`` are reentrant.

``scipy.sparse`` is imported only where a CSR copy is built: it is about
half of ``import nspd`` (~0.17 of 0.34 s), and the LAD instances never
need it.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, check_option

__all__ = [
    "LinearMap",
    "NormEstimate",
    "estimate_norm",
    "load_triplets",
    "save_triplets",
]

# Kernel choice of :meth:`LinearMap.from_dense` (evidence in
# BENCH_products.json; scripts/bench_layers.py products).  Below ~1e5
# entries scipy's per-call overhead loses to BLAS: on the 100x200 desk game
# at 10% nonzeros a dense product takes ~4 us and a CSR one ~6-7 us.  Above
# ~20% nonzeros dense BLAS on two threads ties CSR.
_CSR_MIN_ENTRIES = 1 << 17
_CSR_MAX_DENSITY = 0.15

LANCZOS_SEED = 0  # draws estimate_norm's start vector
LANCZOS_MAX_STEPS = 10_000  # estimate_norm's step cap, past which it warns


def _prefers_csr(A: np.ndarray) -> bool:
    """Whether products with the dense array ``A`` are faster through CSR."""
    return (A.size >= _CSR_MIN_ENTRIES
            and np.count_nonzero(A) <= _CSR_MAX_DENSITY * A.size)


def _storage(A):
    """What the dense map of the 2-d array ``A`` keeps: ``(None, (S,
    S^T))``, CSR copies of ``A`` and of its transpose, when its products go
    through CSR, else ``(C, None)`` with ``C`` a C-ordered float copy of
    ``A``.

    scipy copies the nonzeros, so later writes to ``A`` reach neither CSR
    copy.  The transpose is materialised as CSR too: a product through the
    CSC view ``S.T`` is ~20% slower.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("from_dense expects a 2-d array")
    if _prefers_csr(A):
        import scipy.sparse as sp

        S = sp.csr_matrix(A)
        return None, (S, S.T.tocsr())
    return np.array(A, order="C"), None


class NormEstimate(NamedTuple):
    value: float
    converged: bool
    iterations: int


class LinearMap:
    """A linear operator K: R^cols -> R^rows with an explicit adjoint.

    Parameters
    ----------
    rows, cols : int
        Output and input dimensions.
    forward : callable
        Maps a ``cols``-vector to a ``rows``-vector.
    adjoint : callable
        Maps a ``rows``-vector to a ``cols``-vector.
    norm_estimate : float, optional
        Estimate of the spectral norm.  If omitted it is computed lazily on
        first access of :attr:`norm` by :func:`estimate_norm`, which returns
        a *lower* estimate (a Ritz value) converged to its ``tol``.
    kind : str
        Construction tag ("dense", "neg_identity", "custom");
        "neg_identity" (set by :func:`nspd.problems.neg_identity`) selects
        the closed-form semi-strong w-step, so a map that is not exactly -I
        must not carry it.

    The solvers use K only through :meth:`apply` and :meth:`adjoint_apply`;
    :attr:`matrix` is the one way to read K as an array.
    """

    def __init__(self, rows, cols, forward, adjoint, *, norm_estimate=None,
                 kind="custom"):
        if rows <= 0 or cols <= 0:
            raise ValueError("operator dimensions must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self._forward = forward
        self._adjoint = adjoint
        self._norm = None if norm_estimate is None else float(norm_estimate)
        self.kind = kind
        self._stored = None  # the matrix kept, if any: ndarray or scipy CSR

    @property
    def matrix(self) -> np.ndarray:
        """The operator's matrix as a read-only ndarray: the array a dense
        map keeps, else a new one built on each access, from the CSR copy
        of a CSR-kept map or column by column for a map of callables."""
        A = self._stored
        if isinstance(A, np.ndarray):
            return A
        A = (np.stack([self.apply(e) for e in np.eye(self.cols)], axis=1)
             if A is None else A.toarray())
        A.setflags(write=False)
        return A

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return K x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.cols,):
            raise DimensionMismatchError(
                f"apply expects a vector of length {self.cols}, got shape {x.shape}")
        return self._forward(x)

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        """Return K^T y."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.rows,):
            raise DimensionMismatchError(
                f"adjoint_apply expects a vector of length {self.rows}, got shape {y.shape}")
        return self._adjoint(y)

    @property
    def norm(self) -> float:
        """Spectral-norm estimate, computed on first access if needed."""
        if self._norm is None:
            self._norm = estimate_norm(self).value
        return self._norm

    # -- constructions -----------------------------------------------------

    @classmethod
    def from_dense(cls, A, norm_estimate=None) -> "LinearMap":
        """Wrap the 2-d array ``A``; ``matrix`` is a read-only copy of it.

        Products go through BLAS on a copy of ``A``, unless ``A`` has at
        least ``_CSR_MIN_ENTRIES`` (2^17) entries and at most a
        ``_CSR_MAX_DENSITY`` (15%) share of them nonzero: then through a CSR
        copy of ``A`` and a CSR copy of its transpose, built once here from
        ``A`` itself, and no dense copy is kept (``matrix`` is rebuilt from
        the CSR copy on each access).  Either way ``kind`` is ``"dense"``,
        later writes to ``A`` do not reach the map, and the two kernels
        differ only in rounding.
        """
        A, csr = _storage(A)
        if A is not None:
            A.setflags(write=False)
        return cls._dense_map(A, csr, norm_estimate)

    @classmethod
    def from_dense_unit_norm(cls, A) -> "LinearMap":
        """Wrap ``A / sigma`` with norm estimate 1, where ``sigma`` is
        ``estimate_norm(from_dense(A), tol=1e-14).value``.

        What :meth:`from_dense` would keep (a copy of ``A``, or only its CSR
        copies) is built once: the estimate runs on it, then it is divided
        by ``sigma`` in place.  ``matrix`` and the products are therefore
        those of ``from_dense(A / sigma)`` bit for bit.  The stored norm is
        exactly 1, which the tight ``tol`` makes true to that accuracy.
        """
        A, csr = _storage(A)
        sigma = estimate_norm(cls._dense_map(A, csr), tol=1e-14).value
        if sigma == 0.0:
            raise ValueError("the zero matrix has no unit-norm rescaling")
        if A is not None:
            A /= sigma
            A.setflags(write=False)
        for S in csr or ():
            S.data /= sigma
        return cls._dense_map(A, csr, norm_estimate=1.0)

    @classmethod
    def _dense_map(cls, A, csr, norm_estimate=None):
        """The map of the array ``A`` multiplied through BLAS, or, when
        ``A`` is None, of the CSR pair ``csr`` = (S, S^T), whose ``matrix``
        is ``S`` rebuilt dense.

        The products of ``A`` are its bound ``A.dot`` and ``A.T.dot``: the
        same BLAS call as ``A @ x``, and bit-equal to it on every input
        with non-negative strides, without the ``matmul`` gufunc's dispatch
        (3.2 -> 2.7 us on 200x64, 1 BLAS thread).
        """
        if csr is None:
            forward, adjoint = A.dot, A.T.dot
            stored = A
        else:
            S, St = csr
            forward, adjoint = (lambda x: S @ x), (lambda y: St @ y)
            stored = S
        m = cls(stored.shape[0], stored.shape[1], forward, adjoint,
                norm_estimate=norm_estimate, kind="dense")
        m._stored = stored
        return m


def estimate_norm(op: LinearMap, tol: float = 1e-12) -> NormEstimate:
    """Lanczos estimate of the largest singular value of ``op``.

    Runs the Lanczos iteration on K^T K with full reorthogonalisation and
    returns the square root of the largest Ritz value of the tridiagonal
    matrix, a lower estimate of ||K||.  Each step costs one K and one K^T
    product, and ``iterations`` counts them.  Stops when the Ritz residual
    bound beta_k |s_k| drops to ``tol`` times the Ritz value, on breakdown
    (an invariant Krylov subspace), or when the Krylov dimension reaches
    ``op.cols``.  The start vector is drawn from ``LANCZOS_SEED``, so the
    estimate is deterministic.  Non-convergence within ``LANCZOS_MAX_STEPS``
    steps returns the last estimate and emits a warning rather than failing
    silently.  Both constants are read at each call.
    """
    check_option("tol", tol)
    rng = np.random.default_rng(LANCZOS_SEED)
    v = rng.standard_normal(op.cols)
    v /= np.linalg.norm(v)
    V = v[None, :]  # orthonormal Krylov basis, one row per step
    alpha, beta = [], []
    theta = 0.0
    for k in range(1, LANCZOS_MAX_STEPS + 1):
        w = op.adjoint_apply(op.apply(v))
        alpha.append(float(v @ w))
        # full reorthogonalisation, twice: removes the three-term recurrence
        # components and the rounding drift against the whole basis
        # (out of place: a custom map may hand back its own input)
        w = w - V.T @ (V @ w)
        w = w - V.T @ (V @ w)
        b = float(np.linalg.norm(w))
        T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        ritz, S = np.linalg.eigh(T)
        theta = max(float(ritz[-1]), 0.0)
        if (b * abs(S[-1, -1]) <= tol * theta
                or b <= np.finfo(float).eps * theta or k == op.cols):
            return NormEstimate(float(np.sqrt(theta)), True, k)
        beta.append(b)
        v = w / b
        V = np.vstack([V, v])
    warnings.warn(
        f"Lanczos did not converge in {LANCZOS_MAX_STEPS} iterations "
        f"(last estimate {np.sqrt(theta):.6e})", RuntimeWarning)
    return NormEstimate(float(np.sqrt(theta)), False, LANCZOS_MAX_STEPS)


# -- text persistence ------------------------------------------------------

_WRITE_BLOCK = 1 << 16  # lines formatted and written at a time


def save_triplets(path, op: LinearMap) -> None:
    """Write ``op`` in the triplet text format: `n p nnz` then `i j value`,
    one line per nonzero in row-major order."""
    A = op.matrix if op._stored is None else op._stored
    if not isinstance(A, np.ndarray):  # a canonical CSR copy: row-major
        C = A.tocoo()
        keep = C.data != 0  # a unit-norm rescaling can underflow an entry
        i, j, v = C.row[keep], C.col[keep], C.data[keep]
    else:
        i, j = np.nonzero(A)
        v = A[i, j]
    with open(path, "w") as fh:
        fh.write(f"{op.rows} {op.cols} {len(i)}\n")
        # one write per block of lines: the text of a whole paper-scale
        # matrix as Python strings would take ~250 MB
        for s in range(0, len(i), _WRITE_BLOCK):
            b = slice(s, s + _WRITE_BLOCK)
            fh.write("".join(map("{} {} {!r}\n".format, i[b].tolist(),
                                 j[b].tolist(), v[b].tolist())))


def load_triplets(path) -> LinearMap:
    """Read the triplet text format written by :func:`save_triplets` into
    :meth:`LinearMap.from_dense` of the array it describes, repeated
    ``(i, j)`` entries summed, so the size and density rule of
    ``from_dense`` picks its kernel."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError("expected header line 'n p nnz'")
        rows, cols, nnz = (int(t) for t in header)
        data = (np.loadtxt(fh, ndmin=2, max_rows=nnz) if nnz
                else np.empty((0, 3)))
    if data.shape != (nnz, 3):
        raise ValueError(f"expected {nnz} lines 'i j value', "
                         f"got an array of shape {data.shape}")
    ij = data[:, :2]
    cut = ij % 1 != 0  # a fractional or nan index
    if cut.any():
        raise ValueError(f"index {float(ij[cut][0])!r} is not an integer")
    i, j = ij.astype(int).T
    if nnz and (i.min() < 0 or j.min() < 0
                or i.max() >= rows or j.max() >= cols):
        raise ValueError(f"an index lies outside the {rows}x{cols} matrix")
    A = np.zeros((rows, cols))
    np.add.at(A, (i, j), data[:, 2])
    return LinearMap.from_dense(A)
