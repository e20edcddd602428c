"""Numerical primitives: truncated SVD, orthogonal Procrustes, spherical coordinates.

All routines are pure functions of their inputs plus an explicit seed; for a
fixed seed the results are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TruncatedSvd:
    """Top-d singular triplets of a matrix.

    u: (m, d) column-orthonormal left vectors.
    s: (d,) singular values, non-increasing.
    v: (p, d) column-orthonormal right vectors.
    gram_products: Gram operator products Lanczos applied; 0 where LAPACK
        decomposed the whole matrix.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    gram_products: int = 0


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


def truncated_svd(m, d: int, seed: int = 0) -> TruncatedSvd:
    """Rank-d truncated SVD with a canonical sign convention.

    ``m`` may be a dense array, a sparse matrix or a
    ``scipy.sparse.linalg.LinearOperator``. The top-d eigenvectors q of the
    smaller-side Gram operator x -> a @ (a.T @ x) come from implicitly
    restarted Lanczos (ARPACK ``eigsh``, converged to machine precision,
    started from a vector drawn with ``seed``); one dense SVD of the d-row
    projection q.T @ m then gives the singular values and both orthonormal
    factors. LAPACK decomposes the whole matrix only where ARPACK cannot
    run (d >= smaller side - 1); an operator is then materialized by its
    products with the identity of its smaller side. A zero matrix has zero
    singular values.

    Raises ValueError when d is out of range or the matrix has non-finite
    entries.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import LinearOperator, eigsh
    operator = isinstance(m, LinearOperator)
    if not (operator or sp.issparse(m)):
        m = np.asarray(m, dtype=float)
    rows, cols = m.shape
    if not 1 <= d <= min(rows, cols):
        raise ValueError(f"d={d} out of range for {rows}x{cols} matrix")
    finite = operator or np.all(np.isfinite(m.data if sp.issparse(m) else m))
    if not finite:
        raise ValueError("matrix contains non-finite entries")
    products = 0
    if d >= min(rows, cols) - 1:
        if operator:
            m = m @ np.eye(cols) if cols <= rows else (m.T @ np.eye(rows)).T
        elif sp.issparse(m):
            m = m.toarray()
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        u, s, v = u[:, :d], s[:d], vt[:d].T
    else:
        # a is the wide orientation of m: its rows are the smaller side
        a = m if rows <= cols else m.T
        side = a.shape[0]
        start = np.random.default_rng(seed).standard_normal(side)
        # ARPACK cannot start where the start vector maps to zero (an empty
        # snapshot); LAPACK's answer for a zero matrix is kept instead
        if not np.any(a.T @ start):
            u, s, v = np.eye(rows, d), np.zeros(d), np.eye(cols, d)
        else:
            def gram_product(x):
                nonlocal products
                products += 1
                return a @ (a.T @ x)

            gram = LinearOperator((side, side), matvec=gram_product, dtype=float)
            _, q = eigsh(gram, d, which="LA", v0=start)
            ub, s, vbt = np.linalg.svd((a.T @ q).T, full_matrices=False)
            small, large = q @ ub, vbt.T
            u, v = (small, large) if rows <= cols else (large, small)
    u, v = orient_columns(u, v)
    return TruncatedSvd(u=u, s=np.asarray(s, dtype=float), v=v, gram_products=products)


@dataclass(frozen=True)
class ProcrustesResult:
    """Solution of min over orthogonal q of ||a @ q - b||_F."""

    q: np.ndarray
    residual: float
    unique: bool


def procrustes(a: np.ndarray, b: np.ndarray) -> ProcrustesResult:
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
    unique = bool(s.size == 0 or s[-1] > 1e-12 * max(s[0], 1.0))
    residual = float(np.linalg.norm(a @ q - b))
    return ProcrustesResult(q=q, residual=residual, unique=unique)


def spherical_coordinates(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    active = norms > 0
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
