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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import TruncatedSvd, orient_columns, truncated_svd
from .netseries import GraphSeries, unfold

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


def _as_snapshot_list(series):
    import scipy.sparse as sp
    snaps = series.snapshots if isinstance(series, GraphSeries) else series
    return [sp.csr_matrix(a) for a in snaps]


def uase(series, d: int, seed: int = 0) -> Embedding:
    """Unfolded adjacency spectral embedding.

    Concatenates the snapshots column-wise into an n x (T n) matrix, takes its
    rank-d SVD and scales both factors by the square-rooted singular values.
    The right factor splits into T blocks of n rows, one point set per
    snapshot, all living in one coordinate system; the left factor is a single
    time-invariant point set.
    """
    snaps = _as_snapshot_list(series)
    return uase_from_svd(truncated_svd(unfold(snaps), d, seed), d, len(snaps))


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


def _embed_each(matrices, dims, seed: int):
    """Points and signatures of each matrix embedded on its own; a scalar
    ``dims`` applies to every matrix."""
    if np.isscalar(dims):
        dims = [int(dims)] * len(matrices)
    if len(dims) != len(matrices):
        raise ValueError("need one dimension per snapshot")
    pairs = [_signed_symmetric_embedding(a, d, seed) for a, d in zip(matrices, dims)]
    return [p for p, _ in pairs], [sig for _, sig in pairs]


def independent_ase(series, dims, seed: int = 0) -> Embedding:
    """Adjacency spectral embedding of each snapshot separately.

    dims: either one integer applied to every snapshot or a sequence with one
    dimension per snapshot. Point sets from different snapshots live in
    unrelated coordinate systems.
    """
    points, signatures = _embed_each(_as_snapshot_list(series), dims, seed)
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
    :func:`history_weights`, then spectrally embedded on its own.
    """
    snaps = _as_snapshot_list(series)
    blended = []
    for t in range(len(snaps)):
        w = history_weights(t, scheme, forgetting=forgetting, window=window)
        blended.append(sum(w[s] * snaps[s] for s in range(t + 1) if w[s] > 0))
    points, signatures = _embed_each(blended, dims, seed)
    return Embedding(points=points, method=f"separate-{scheme}", signatures=signatures)


def _omnibus_matvec(snaps):
    # (M v)_s = (A_s * sum_t v_t + sum_t A_t v_t) / 2 where v_t are the n-row
    # blocks of v; avoids materializing the (T n) x (T n) matrix
    t_count = len(snaps)
    n = snaps[0].shape[0]

    def matvec(block):
        blocks = [block[t * n : (t + 1) * n] for t in range(t_count)]
        total = sum(blocks)
        sum_av = sum(snaps[t] @ blocks[t] for t in range(t_count))
        out = np.empty_like(block)
        for s in range(t_count):
            out[s * n : (s + 1) * n] = (snaps[s] @ total + sum_av) / 2.0
        return out

    return matvec


def omnibus_matrix(series) -> np.ndarray:
    """Dense pairwise-average block matrix: block (s, t) is (A_s + A_t) / 2."""
    snaps = [a.toarray() for a in _as_snapshot_list(series)]
    t_count = len(snaps)
    n = snaps[0].shape[0]
    m = np.empty((t_count * n, t_count * n))
    for s in range(t_count):
        for t in range(t_count):
            m[s * n : (s + 1) * n, t * n : (t + 1) * n] = (snaps[s] + snaps[t]) / 2.0
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
    from scipy.sparse.linalg import LinearOperator
    snaps = _as_snapshot_list(series)
    t_count = len(snaps)
    n = snaps[0].shape[0]
    side = t_count * n
    if side * side <= DENSE_OMNIBUS_MAX_ENTRIES:
        m = omnibus_matrix(snaps)
    else:
        matvec = _omnibus_matvec(snaps)
        m = LinearOperator((side, side), matvec=matvec, rmatvec=matvec,
                           matmat=matvec, rmatmat=matvec, dtype=float)
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
