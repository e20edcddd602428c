"""Spectral embedders for adjacency snapshot sequences.

Four methods producing, for each snapshot, one point per node:

- :func:`uase`: joint SVD of the column-concatenated snapshots; one shared
  left point set plus per-snapshot right point sets in a common coordinate
  system.
- :func:`omnibus_embed`: eigendecomposition of the pairwise-average block
  matrix of all snapshots.
- :func:`independent_ase`: each snapshot embedded on its own.
- :func:`separate_embed`: each snapshot replaced by a weighted average of its
  history, then embedded on its own.

Each takes a :class:`~dynembed.netseries.GraphSeries` or a list of square
dense, nested-list or scipy matrices, weighted ones included, and sees them
in one form, decided in :func:`_halves`: CSR matrices W_t with A_t = W_t +
W_t^T, a series' upper triangles or half of each list matrix M, which is
thus embedded as its symmetric part (M + M^T) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import TruncatedSvd, orient_columns, truncated_svd
from .netseries import GraphSeries, symmetric_product, unfolding_operator, upper_matrices

# omnibus_embed materializes the (T n) x (T n) omnibus matrix up to this many
# float64 entries (1.6 GB) and applies a matrix-free product above it
DENSE_OMNIBUS_MAX_ENTRIES = 200_000_000


@dataclass
class Embedding:
    """Per-snapshot node point sets produced by one embedder.

    points: list with one (n, d_t) array per snapshot.
    method: name of the producing embedder.
    left: shared (n, d) left point set when the method defines one.
    signatures: per-decomposition (positive, negative) eigenvalue counts when
        the method is eigenvalue-based, else None.
    dims: embedding dimension per snapshot.
    """

    points: list
    method: str
    left: np.ndarray | None = None
    signatures: list | None = None
    dims: list = field(init=False)

    def __post_init__(self):
        self.dims = [p.shape[1] for p in self.points]


def _halves(series):
    """Per snapshot the n x n scipy CSR matrix W_t with A_t = W_t + W_t^T,
    and n: a series' strict upper triangles, or M / 2 in canonical form for
    each matrix M of a list. Raises ValueError, naming the matrix, unless
    every list matrix is finite and n x n for the first one's n."""
    if isinstance(series, GraphSeries):
        return upper_matrices(series.triangles), series.n_nodes
    import scipy.sparse as sp
    halves = [0.5 * sp.csr_matrix(a, dtype=float) for a in series]
    if not halves:
        raise ValueError("need at least one snapshot")
    n = halves[0].shape[0]
    for t, half in enumerate(halves):
        if half.shape != (n, n):
            raise ValueError(f"matrix {t} is {half.shape[0]} x {half.shape[1]}, not {n} x {n}")
        if not np.all(np.isfinite(half.data)):
            raise ValueError(f"matrix {t} contains non-finite entries")
        half.sum_duplicates()
    return halves, n


def _symmetric_operator(product, side: int):
    """A symmetric side x side product as a scipy LinearOperator."""
    from scipy.sparse.linalg import LinearOperator
    return LinearOperator((side, side), matvec=product, rmatvec=product,
                          matmat=product, rmatmat=product, dtype=float)


def uase(series, d: int, seed: int = 0) -> Embedding:
    """Unfolded adjacency spectral embedding.

    Takes the rank-d SVD of the n x (T n) column concatenation of the
    snapshots (applied as :func:`~dynembed.netseries.unfolding_operator`,
    never built) and scales both factors by the square-rooted singular values.
    The right factor splits into T blocks of n rows, one point set per
    snapshot, all living in one coordinate system; the left factor is a single
    time-invariant point set.
    """
    halves, n = _halves(series)
    return uase_from_svd(truncated_svd(unfolding_operator(halves, n), d, seed), d, len(halves))


def uase_from_svd(res: TruncatedSvd, d: int, n_snapshots: int) -> Embedding:
    """UASE from the top-d triplets of an SVD of the n x (T n) unfolding.

    ``res`` may hold more than d triplets (e.g. a scree decomposition); only
    the leading d are used, so one decomposition serves both.
    """
    scale = np.sqrt(res.s[:d])
    left = res.u[:, :d] * scale
    right = res.v[:, :d] * scale
    n = left.shape[0]
    points = [right[t * n : (t + 1) * n] for t in range(n_snapshots)]
    return Embedding(points=points, method="uase", left=left)


def _signed_symmetric_embedding(a, d: int, seed: int):
    """Point set v * sqrt(sigma) from the SVD of a symmetric matrix or
    operator, plus its eigenvalue signature: the signs, zero counted positive,
    of the eigenvalues of the compression u^T A u = (u^T v) sigma. This keeps
    apart a tied +lambda and -lambda that are both among the top d; a d that
    splits such a tie (the 3-node path at d = 1) has no defined answer."""
    res = truncated_svd(a, d, seed)
    positive = int(np.sum(np.linalg.eigvalsh(res.u.T @ res.v * res.s) >= 0))
    return res.v * np.sqrt(res.s), (positive, d - positive)


def _embed_each(matrices, count: int, dims, seed: int):
    """Points and signatures of each of ``count`` matrices embedded on its
    own, drawn one at a time from the iterable ``matrices``; a scalar
    ``dims`` applies to every matrix."""
    if np.isscalar(dims):
        dims = [int(dims)] * count
    if len(dims) != count:
        raise ValueError("need one dimension per snapshot")
    pairs = [_signed_symmetric_embedding(a, d, seed) for a, d in zip(matrices, dims)]
    return [p for p, _ in pairs], [sig for _, sig in pairs]


def independent_ase(series, dims, seed: int = 0) -> Embedding:
    """Adjacency spectral embedding of each snapshot separately.

    dims: either one integer applied to every snapshot or a sequence with one
    dimension per snapshot. Point sets from different snapshots live in
    unrelated coordinate systems.
    """
    halves, n = _halves(series)
    matrices = [_symmetric_operator(symmetric_product(half), n) for half in halves]
    points, signatures = _embed_each(matrices, len(matrices), dims, seed)
    return Embedding(points=points, method="independent", signatures=signatures)


def history_weights(t_index: int, scheme: str, *, forgetting: float = 0.5, window: int = 3) -> np.ndarray:
    """Normalized weights over snapshots 0..t_index for one smoothing scheme.

    Returned array w has w[s] multiplying snapshot s, sum(w) == 1. Schemes:
    "constant" (flat average of the full history), "exponential" (geometric
    decay by the forgetting factor, newest snapshot heaviest), "window" (flat
    over the last ``window`` snapshots). Near the start of the series fewer
    snapshots exist than a scheme nominally spans; the available weights are
    rescaled to keep the total at 1.
    """
    length = t_index + 1
    if scheme == "constant":
        raw = np.ones(length)
    elif scheme == "exponential":
        if not 0 < forgetting <= 1:
            raise ValueError("forgetting factor must lie in (0, 1]")
        lags = np.arange(length - 1, -1, -1)  # lag of each snapshot s = t - s
        raw = (1.0 - forgetting) ** lags
    elif scheme == "window":
        if window < 1:
            raise ValueError("window must be at least 1")
        raw = np.zeros(length)
        raw[max(0, length - window) :] = 1.0
    else:
        raise ValueError(f"unknown smoothing scheme {scheme!r}")
    return raw / raw.sum()


def separate_embed(
    series,
    dims,
    seed: int = 0,
    *,
    scheme: str = "exponential",
    forgetting: float = 0.5,
    window: int = 3,
) -> Embedding:
    """Embed each snapshot's smoothed history separately.

    Snapshot t is replaced by the weighted average of snapshots 0..t under
    :func:`history_weights`, then spectrally embedded on its own. Each
    average is built when its turn comes, as the weighted sum W of the
    history's halves, and applied as W x + W^T x.
    """
    halves, n = _halves(series)

    def blends():
        for t in range(len(halves)):
            w = history_weights(t, scheme, forgetting=forgetting, window=window)
            blend = sum(w[s] * halves[s] for s in range(t + 1) if w[s] > 0)
            yield _symmetric_operator(symmetric_product(blend), n)

    points, signatures = _embed_each(blends(), len(halves), dims, seed)
    return Embedding(points=points, method=f"separate-{scheme}", signatures=signatures)


def _omnibus_matvec(halves, n: int):
    # (M v)_s = (A_s * sum_t v_t + sum_t A_t v_t) / 2 where v_t are the n-row
    # blocks of v; avoids materializing the (T n) x (T n) matrix
    products = [symmetric_product(half) for half in halves]
    t_count = len(products)

    def matvec(block):
        blocks = [block[t * n : (t + 1) * n] for t in range(t_count)]
        total = sum(blocks)
        sum_av = sum(products[t](blocks[t]) for t in range(t_count))
        out = np.empty_like(block)
        for s in range(t_count):
            out[s * n : (s + 1) * n] = (products[s](total) + sum_av) / 2.0
        return out

    return matvec


def omnibus_matrix(series) -> np.ndarray:
    """Dense pairwise-average block matrix: block (s, t) is (A_s + A_t) / 2."""
    return _omnibus_dense(*_halves(series))


def _omnibus_dense(halves, n: int) -> np.ndarray:
    # diagonal block s is set to W_s (canonical: no entry repeats), then W_s^T
    # is added, giving A_s; each other block averages two of them in place
    t_count = len(halves)
    m = np.zeros((t_count * n, t_count * n))
    blocks = m.reshape(t_count, n, t_count, n)
    for s, half in enumerate(halves):
        coo = half.tocoo(copy=False)  # shares W_s's data and column indices
        blocks[s, :, s][coo.row, coo.col] = coo.data
        blocks[s, :, s][coo.col, coo.row] += coo.data
    for s, t in zip(*np.triu_indices(t_count, 1)):
        np.add(blocks[s, :, s], blocks[t, :, t], out=blocks[s, :, t])
        blocks[s, :, t] *= 0.5
        blocks[t, :, s] = blocks[s, :, t]  # the same average (A_t + A_s) / 2
    return m


def omnibus_embed(series, d: int, seed: int = 0) -> Embedding:
    """Omnibus embedding of all snapshots jointly.

    Builds the (T n) x (T n) matrix whose (s, t) block is the average of
    snapshots s and t, takes its top-d eigenpairs by magnitude (the top-d
    singular triplets of this symmetric matrix) and scales the eigenvectors
    by the square-rooted eigenvalue magnitudes. Row block t is the
    snapshot-t point set; all blocks share one coordinate system. The
    (positive, negative) eigenvalue counts are reported as the signature.

    The matrix is materialized when it has at most
    ``DENSE_OMNIBUS_MAX_ENTRIES`` entries; otherwise a matrix-free product
    over the snapshot blocks is used.
    """
    halves, n = _halves(series)
    t_count, side = len(halves), len(halves) * n
    if side * side <= DENSE_OMNIBUS_MAX_ENTRIES:
        m = _omnibus_dense(halves, n)
        del halves  # m holds all the eigensolver needs
    else:
        m = _symmetric_operator(_omnibus_matvec(halves, n), side)
    scaled, signature = _signed_symmetric_embedding(m, d, seed)
    # the omnibus point set keeps its own largest entries positive; the
    # per-snapshot methods follow the left vectors, as uase does
    (scaled,) = orient_columns(scaled)
    points = [scaled[t * n : (t + 1) * n] for t in range(t_count)]
    return Embedding(points=points, method="omnibus", signatures=[signature])


def select_dimension(singular_values: np.ndarray) -> tuple[int, np.ndarray]:
    """Profile likelihood elbow selection over a singular value scree.

    For each split position q the values are modeled as two Gaussian groups
    with a pooled common variance; the returned dimension maximizes the
    profile log likelihood. Also returns the per-split likelihood curve.
    """
    s = np.sort(np.asarray(singular_values, dtype=float))[::-1]
    m = s.shape[0]
    if m < 2:
        raise ValueError("need at least two singular values")
    curve = np.full(m - 1, -np.inf)
    overall_var = max(np.var(s), 1e-12)
    for q in range(1, m):
        head, tail = s[:q], s[q:]
        pooled = (np.sum((head - head.mean()) ** 2) + np.sum((tail - tail.mean()) ** 2)) / m
        pooled = max(pooled, 1e-12 * overall_var)
        loglik = -0.5 * m * np.log(2 * np.pi * pooled) - 0.5 * m
        curve[q - 1] = loglik
    best = int(np.argmax(curve)) + 1
    return best, curve
