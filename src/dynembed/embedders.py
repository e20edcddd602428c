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

Each takes a :class:`~dynembed.netseries.GraphSeries`, whose snapshots reach
the eigensolver as products over their upper-triangle patterns, or a list of
symmetric dense or scipy matrices, weighted ones included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import TruncatedSvd, orient_columns, truncated_svd
from .netseries import (GraphSeries, adjacency_products, symmetric_product, unfolding_operator,
                        upper_matrices)

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


def _as_matrices(matrices) -> list:
    """A list of dense, nested-list or scipy matrices as scipy CSR matrices.
    Raises ValueError on a non-finite entry."""
    import scipy.sparse as sp
    mats = [sp.csr_matrix(a, dtype=float) for a in matrices]
    if not all(np.all(np.isfinite(m.data)) for m in mats):
        raise ValueError("matrix contains non-finite entries")
    return mats


def _products(series):
    """Per-snapshot functions x -> A_t x, for x of shape (n,) or (n, k), and
    n: over a series' patterns, or by CSR copies of a list of matrices."""
    if isinstance(series, GraphSeries):
        return adjacency_products(series.triangles), series.n_nodes
    mats = _as_matrices(series)
    return [m.dot for m in mats], mats[0].shape[0]


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
    products, n = _products(series)
    return uase_from_svd(truncated_svd(unfolding_operator(products, n), d, seed), d,
                         len(products))


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
    operator, plus the eigenvalue signature recovered from the left/right
    vector orientation."""
    res = truncated_svd(a, d, seed)
    orientation = np.sum(res.u * res.v, axis=0)  # +1 or -1 per component
    positive = int(np.sum(orientation > 0))
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
    if isinstance(series, GraphSeries):
        matrices = [_symmetric_operator(f, series.n_nodes)
                    for f in adjacency_products(series.triangles)]
    else:
        matrices = _as_matrices(series)
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
    average is built when its turn comes; a series' is held as the weighted
    sum W of its snapshots' upper triangles and applied as W x + W^T x.
    """
    if isinstance(series, GraphSeries):
        terms, n = upper_matrices(series.triangles), series.n_nodes

        def as_matrix(upper):
            return _symmetric_operator(symmetric_product(upper), n)
    else:
        terms = _as_matrices(series)

        def as_matrix(blend):
            return blend

    def blends():
        for t in range(len(terms)):
            w = history_weights(t, scheme, forgetting=forgetting, window=window)
            yield as_matrix(sum(w[s] * terms[s] for s in range(t + 1) if w[s] > 0))

    points, signatures = _embed_each(blends(), len(terms), dims, seed)
    return Embedding(points=points, method=f"separate-{scheme}", signatures=signatures)


def _omnibus_matvec(products, n: int):
    # (M v)_s = (A_s * sum_t v_t + sum_t A_t v_t) / 2 where v_t are the n-row
    # blocks of v; avoids materializing the (T n) x (T n) matrix
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
    """Dense pairwise-average block matrix: block (s, t) is (A_s + A_t) / 2.

    Each snapshot is added at half weight, in place, to every block of its
    block row and block column, so the matrix is the only (T n) x (T n)
    array held: a series' snapshots are scattered from their patterns, a
    list's are made dense one at a time.
    """
    series_given = isinstance(series, GraphSeries)
    snaps = series.triangles if series_given else _as_matrices(series)
    t_count = len(snaps)
    n = snaps[0].shape[0]
    m = np.zeros((t_count * n, t_count * n))
    blocks = m.reshape(t_count, n, t_count, n)
    for s, a in enumerate(snaps):
        half = None if series_given else 0.5 * a.toarray()
        for t in range(t_count):
            for block in (blocks[s, :, t], blocks[t, :, s]):
                if series_given:
                    a.add_to(block, 0.5)
                else:
                    block += half
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
    if not isinstance(series, GraphSeries):
        series = _as_matrices(series)
    products, n = _products(series)
    t_count = len(products)
    side = t_count * n
    if side * side <= DENSE_OMNIBUS_MAX_ENTRIES:
        m = omnibus_matrix(series)
    else:
        m = _symmetric_operator(_omnibus_matvec(products, n), side)
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
