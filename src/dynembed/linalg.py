"""Numerical primitives: truncated SVD, orthogonal Procrustes, spherical coordinates.

All routines are pure functions of their inputs plus an explicit seed; for a
fixed seed the results are reproducible run to run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Matrices with at most this many entries go through exact LAPACK SVD;
# larger ones use seeded randomized subspace iteration.
DENSE_SVD_MAX_ENTRIES = 4_000_000

# Symmetric eigendecompositions switch to the randomized path earlier because
# full eigh is cubic in the side length.
DENSE_EIG_MAX_SIDE = 1000

OVERSAMPLE = 10
POWER_ITERATIONS = 4


def memory_budget_entries() -> int:
    """Maximum number of float64 entries a materialized dense matrix may have.

    Overridable through the DYNEMBED_MEMORY_BUDGET environment variable
    (a plain integer, in entries).
    """
    raw = os.environ.get("DYNEMBED_MEMORY_BUDGET")
    if raw is None:
        return 200_000_000
    return int(raw)


class MemoryBudgetError(RuntimeError):
    """Raised when an operation would materialize more than the memory budget allows."""


@dataclass(frozen=True)
class TruncatedSvd:
    """Top-d singular triplets of a matrix.

    u: (m, d) column-orthonormal left vectors.
    s: (d,) singular values, non-increasing.
    v: (p, d) column-orthonormal right vectors.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return self.s.shape[0]


def orient_columns(u: np.ndarray, *partners: np.ndarray):
    """Canonical column signs: the largest-magnitude entry of each column of u
    is made positive (ties resolved by lowest row index).

    Each partner matrix flips its columns with u, so products such as
    u @ diag(s) @ v.T are unchanged. Returns the oriented u followed by the
    oriented partners; values are only multiplied by +-1, so magnitudes stay
    bit-identical.
    """
    rows = np.argmax(np.abs(u), axis=0)
    signs = np.where(u[rows, np.arange(u.shape[1])] < 0, -1.0, 1.0)
    return (u * signs,) + tuple(p * signs for p in partners)


def _check_finite_matrix(m) -> None:
    if sp.issparse(m):
        data = m.data
    else:
        data = np.asarray(m)
    if data.size and not np.all(np.isfinite(data)):
        raise ValueError("matrix contains non-finite entries")


def _randomized_svd(m, d: int, seed: int, oversample: int, n_iter: int):
    rows, cols = m.shape
    k = min(d + oversample, rows, cols)
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((cols, k))
    q, _ = np.linalg.qr(m @ omega)
    for _ in range(n_iter):
        z, _ = np.linalg.qr(m.T @ q)
        q, _ = np.linalg.qr(m @ z)
    b = q.T @ m
    if sp.issparse(b):
        b = np.asarray(b.todense())
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    return q @ ub[:, :d], s[:d], vt[:d].T


def truncated_svd(
    m,
    d: int,
    seed: int = 0,
    *,
    dense_threshold: int | None = None,
) -> TruncatedSvd:
    """Rank-d truncated SVD with a canonical sign convention.

    Small matrices (at most ``dense_threshold`` entries, default
    ``DENSE_SVD_MAX_ENTRIES``) are decomposed exactly; larger ones use
    randomized subspace iteration with seed-controlled initialization,
    oversampling ``OVERSAMPLE`` and ``POWER_ITERATIONS`` power steps.

    Raises ValueError when d is out of range or the matrix has non-finite
    entries.
    """
    rows, cols = m.shape
    if not 1 <= d <= min(rows, cols):
        raise ValueError(f"d={d} out of range for {rows}x{cols} matrix")
    _check_finite_matrix(m)
    threshold = DENSE_SVD_MAX_ENTRIES if dense_threshold is None else dense_threshold
    if rows * cols <= threshold:
        dense = np.asarray(m.todense()) if sp.issparse(m) else np.asarray(m, dtype=float)
        u, s, vt = np.linalg.svd(dense, full_matrices=False)
        u, s, v = u[:, :d], s[:d], vt[:d].T
    else:
        u, s, v = _randomized_svd(m, d, seed, OVERSAMPLE, POWER_ITERATIONS)
    u, v = orient_columns(u, v)
    return TruncatedSvd(u=u, s=np.asarray(s, dtype=float), v=v)


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Top-d eigenpairs of a symmetric matrix, ordered by |eigenvalue|."""

    values: np.ndarray    # signed eigenvalues
    vectors: np.ndarray   # (n, d), orthonormal columns


def _order_by_abs(values: np.ndarray) -> np.ndarray:
    # Descending |value|; ties broken by signed value (descending), then index.
    return np.lexsort((np.arange(values.shape[0]), -values, -np.abs(values)))


def truncated_eigh(
    m,
    d: int,
    seed: int = 0,
    *,
    matvec=None,
    side: int | None = None,
) -> SymmetricSpectrum:
    """Top-d eigenpairs of a symmetric operator by |eigenvalue|.

    ``m`` may be a dense/sparse symmetric matrix, or None with an explicit
    ``matvec(block) -> block`` callable and ``side`` given (matrix-free path).
    Small dense inputs use exact eigh; otherwise randomized subspace iteration
    followed by Rayleigh-Ritz extraction, which recovers signed eigenvalues
    for indefinite operators. Eigenvectors carry the sign convention of
    :func:`orient_columns`.
    """
    if matvec is None:
        n = m.shape[0]
        if m.shape[1] != n:
            raise ValueError("matrix must be square")
        _check_finite_matrix(m)
        if n <= DENSE_EIG_MAX_SIDE and not sp.issparse(m):
            w, q = np.linalg.eigh(np.asarray(m, dtype=float))
            order = _order_by_abs(w)[:d]
            (vectors,) = orient_columns(q[:, order])
            return SymmetricSpectrum(values=w[order], vectors=vectors)

        def matvec(block):
            return m @ block
    else:
        if side is None:
            raise ValueError("side is required with an explicit matvec")
        n = side
    if not 1 <= d <= n:
        raise ValueError(f"d={d} out of range for side {n}")

    k = min(d + OVERSAMPLE, n)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(matvec(rng.standard_normal((n, k))))
    for _ in range(POWER_ITERATIONS):
        q, _ = np.linalg.qr(matvec(q))
    b = q.T @ matvec(q)
    b = (b + b.T) / 2.0
    w, z = np.linalg.eigh(b)
    order = _order_by_abs(w)[:d]
    (vectors,) = orient_columns(q @ z[:, order])
    return SymmetricSpectrum(values=w[order], vectors=vectors)


@dataclass(frozen=True)
class ProcrustesResult:
    """Solution of min over orthogonal q of ||a @ q - b||_F."""

    q: np.ndarray
    residual: float
    unique: bool


def procrustes(a: np.ndarray, b: np.ndarray, *, tol: float = 1e-12) -> ProcrustesResult:
    """Orthogonal Procrustes alignment of a onto b.

    Solved through the SVD of a.T @ b. When that cross-product is rank
    deficient the minimizer is not unique; one minimizer is still returned,
    flagged with unique=False.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries")
    u, s, vt = np.linalg.svd(a.T @ b)
    q = u @ vt
    unique = bool(s.size == 0 or s[-1] > tol * max(s[0], 1.0))
    residual = float(np.linalg.norm(a @ q - b))
    return ProcrustesResult(q=q, residual=residual, unique=unique)


def spherical_coordinates(y: np.ndarray, *, atol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Map rows of an n x d matrix (d >= 2) to d-1 angles in [0, 2*pi).

    The first angle is atan2(x2, x1); each later angle j is
    atan2(x_{j+1}, ||x_{1..j}||). Angles depend only on the ray through a row,
    so positively scaled rows map to the same point. Zero rows are excluded:
    the returned mask marks active (nonzero) rows, and the angle matrix
    carries one row per input row with zeros in the inactive ones.

    Returns (angles, active_mask).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] < 2:
        raise ValueError("need an n x d matrix with d >= 2")
    n, d = y.shape
    norms = np.linalg.norm(y, axis=1)
    active = norms > atol
    angles = np.zeros((n, d - 1))
    if np.any(active):
        x = y[active]
        out = np.empty((x.shape[0], d - 1))
        out[:, 0] = np.arctan2(x[:, 1], x[:, 0])
        # cumulative prefix norms ||x_{1..j}||
        prefix = np.sqrt(np.cumsum(x**2, axis=1))
        for j in range(1, d - 1):
            out[:, j] = np.arctan2(x[:, j + 1], prefix[:, j])
        angles[active] = np.mod(out, 2.0 * np.pi)
    return angles, active


def save_matrix_csv(path, m: np.ndarray, header: str | None = None) -> None:
    """Write a matrix as CSV with 17 significant digits (lossless round-trip)."""
    np.savetxt(
        path,
        np.atleast_2d(np.asarray(m, dtype=float)),
        delimiter=",",
        fmt="%.17g",
        header=header or "",
        comments="" if header else "# ",
    )
