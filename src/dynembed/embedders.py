"""Spectral embedders for adjacency snapshot sequences.

Four methods producing, for each snapshot, one point per node:

- :func:`uase`: joint SVD of the column-concatenated snapshots; one shared
  left point set plus per-snapshot right point sets in a common coordinate
  system.
- :func:`omnibus_embed`: eigendecomposition of the pairwise-average block
  matrix of all snapshots.
- :func:`independent_ase`: each snapshot embedded on its own, the one-snapshot
  window of :func:`separate_embed`.
- :func:`separate_embed`: each snapshot replaced by a weighted average of its
  history, then embedded on its own.

Each takes a :class:`~dynembed.netseries.GraphSeries` or a list of square
dense, nested-list or scipy matrices, weighted ones included, or of
:class:`~dynembed.netseries.SymmetricPattern`, and sees them in one form,
decided in :func:`as_patterns`: a symmetric pattern A_t per snapshot, which
for a list matrix M is its symmetric part (M + M^T) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SymmetricOperator, TruncatedSvd, orient_columns, truncated_svd
from .netseries import GraphSeries, SymmetricPattern, Unfolding

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
    route: omnibus's product, "dense" or "matrix-free"; else None.
    dims: embedding dimension per snapshot.
    """

    points: list
    method: str
    left: np.ndarray | None = None
    signatures: list | None = None
    route: str | None = None
    dims: list = field(init=False)

    def __post_init__(self):
        self.dims = [p.shape[1] for p in self.points]


def as_patterns(series):
    """Per snapshot the :class:`~dynembed.netseries.SymmetricPattern` A_t,
    and n. Raises ValueError, naming the matrix, unless every list matrix is
    finite and n x n for the first one's n."""
    if isinstance(series, GraphSeries):
        return series.patterns, series.n_nodes
    if not len(series):
        raise ValueError("need at least one snapshot")
    n, patterns = np.shape(series[0])[0], []
    for t, m in enumerate(series):
        rows, cols = np.shape(m)
        if (rows, cols) != (n, n):
            raise ValueError(f"matrix {t} is {rows} x {cols}, not {n} x {n}")
        pattern = m if isinstance(m, SymmetricPattern) else SymmetricPattern.from_matrix(m)
        if pattern.data is not None and not np.all(np.isfinite(pattern.data)):
            raise ValueError(f"matrix {t} contains non-finite entries")
        patterns.append(pattern)
    return patterns, n


def uase(series, d: int, seed: int = 0) -> Embedding:
    """Unfolded adjacency spectral embedding.

    Takes the rank-d SVD of the n x (T n) column concatenation of the
    snapshots (applied as an :class:`~dynembed.netseries.Unfolding`, never
    built) and scales both factors by the square-rooted singular values.
    The right factor splits into T blocks of n rows, one point set per
    snapshot, all living in one coordinate system; the left factor is a single
    time-invariant point set. A one-snapshot unfolding is the symmetric A_1
    and is decomposed as such, so its points are those of
    :func:`independent_ase`.
    """
    patterns, _ = as_patterns(series)
    svd = truncated_svd(Unfolding(patterns), d, seed)
    return uase_from_svd(svd, d, len(patterns))


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


def _signed_symmetric_embedding(apply, side: int, d: int, seed: int):
    """Point set v sqrt(s) = q sign(l) sqrt|l| from the top-d eigenpairs (l,
    q) of the symmetric side x side operator x -> apply(x), and its
    signature: the signs of the l, zero counted positive, which are those of
    the columns of u * v since v = sign(l) u. A d that splits a tied +l, -l
    has no defined answer."""
    res = truncated_svd(SymmetricOperator(apply, side), d, seed)
    positive = int(np.sum(np.sum(res.u * res.v, axis=0) >= 0))
    return res.v * np.sqrt(res.s), (positive, d - positive)


def independent_ase(series, dims, seed: int = 0) -> Embedding:
    """Adjacency spectral embedding of each snapshot separately: the
    one-snapshot window of :func:`separate_embed`.

    dims: either one integer applied to every snapshot or a sequence with one
    dimension per snapshot. Point sets from different snapshots live in
    unrelated coordinate systems.
    """
    emb = separate_embed(series, dims, seed, scheme="window", window=1)
    emb.method = "independent"
    return emb


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
    :func:`history_weights`, then spectrally embedded on its own. No average
    is built: it is applied as the weighted sum of the history's products.
    """
    patterns, n = as_patterns(series)
    dims = [int(dims)] * len(patterns) if np.isscalar(dims) else dims
    if len(dims) != len(patterns):
        raise ValueError("need one dimension per snapshot")
    pairs = []  # (points, signature) of each snapshot
    for t, d in enumerate(dims):
        w = history_weights(t, scheme, forgetting=forgetting, window=window)
        used = [(w[s], patterns[s]) for s in range(t + 1) if w[s] > 0]
        pairs.append(_signed_symmetric_embedding(
            lambda x: sum(ws * (a @ x) for ws, a in used), n, d, seed))
    points, signatures = map(list, zip(*pairs))
    return Embedding(points=points, method=f"separate-{scheme}", signatures=signatures)


def _omnibus_matvec(patterns, n: int):
    # M = (U^T E + E^T U) / 2 for U = (A_1 | ... | A_T) and E = (I | ... | I):
    # (M x)_s = (A_s sum_t x_t + U x) / 2; the (T n) x (T n) matrix is not built
    unfolding = Unfolding(patterns)

    def matvec(x):
        out = unfolding.T @ x.reshape(-1, n).sum(axis=0)
        out.reshape(-1, n)[:] += unfolding @ x
        out /= 2  # in place: one (T n) array per product, not two
        return out

    return matvec


def omnibus_matrix(series) -> np.ndarray:
    """Dense pairwise-average block matrix: block (s, t) is (A_s + A_t) / 2."""
    # diagonal block s is set to A_s; each other block averages two of them
    # in place
    patterns, n = as_patterns(series)
    t_count = len(patterns)
    m = np.zeros((t_count * n, t_count * n))
    blocks = m.reshape(t_count, n, t_count, n)
    for s, pattern in enumerate(patterns):
        rows, cols, data = pattern.entries()
        blocks[s, :, s][rows, cols] = 1.0 if data is None else data
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
    ``DENSE_OMNIBUS_MAX_ENTRIES`` entries; above that it is applied as (U^T E +
    E^T U) / 2 through the unfolding U = (A_1 | ... | A_T), E = (I | ... | I).
    """
    patterns, n = as_patterns(series)
    t_count, side = len(patterns), len(patterns) * n
    if side * side <= DENSE_OMNIBUS_MAX_ENTRIES:
        route, apply = "dense", omnibus_matrix(patterns).__matmul__
        del patterns  # the matrix holds all the eigensolver needs
    else:
        route, apply = "matrix-free", _omnibus_matvec(patterns, n)
    scaled, signature = _signed_symmetric_embedding(apply, side, d, seed)
    # the omnibus point set keeps its own largest entries positive; the
    # per-snapshot methods follow the left vectors, as uase does
    (scaled,) = orient_columns(scaled)
    points = [scaled[t * n : (t + 1) * n] for t in range(t_count)]
    return Embedding(points=points, method="omnibus", signatures=[signature], route=route)


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
