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
decided in :func:`~dynembed.netseries.as_patterns`: a symmetric pattern A_t
per snapshot, which for a list matrix M is its symmetric part (M + M^T) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import SymmetricOperator, TruncatedSvd, orient_columns, truncated_svd
from .netseries import Unfolding, as_patterns

# omnibus_embed holds the omnibus matrix's T(T - 1) / 2 shared blocks (1/4 to
# 1/2 of its 1.6 GB) up to this many (T n)^2 entries, and is matrix-free above
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
    products: the products omnibus's decomposition applied; else None.
    dense_bytes: bytes of the dense blocks omnibus held; else None.
    dims: embedding dimension per snapshot.
    """

    points: list
    method: str
    left: np.ndarray | None = None
    signatures: list | None = None
    route: str | None = None
    products: int | None = None
    dense_bytes: int | None = None
    dims: list = field(init=False)

    def __post_init__(self):
        self.dims = [p.shape[1] for p in self.points]


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
    patterns = as_patterns(series)
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
    has no defined answer. The product count is returned third."""
    res = truncated_svd(SymmetricOperator(apply, side), d, seed)
    positive = int(np.sum(np.sum(res.u * res.v, axis=0) >= 0))
    return res.v * np.sqrt(res.s), (positive, d - positive), res.gram_products


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
    patterns = as_patterns(series)
    dims = [int(dims)] * len(patterns) if np.isscalar(dims) else dims
    if len(dims) != len(patterns):
        raise ValueError("need one dimension per snapshot")
    triples = []  # (points, signature, products) of each snapshot
    for t, d in enumerate(dims):
        w = history_weights(t, scheme, forgetting=forgetting, window=window)
        used = [(w[s], patterns[s]) for s in range(t + 1) if w[s] > 0]
        triples.append(_signed_symmetric_embedding(
            lambda x: sum(ws * (a @ x) for ws, a in used), patterns[0].n, d, seed))
    points, signatures, _ = map(list, zip(*triples))
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


def omnibus_blocks(series) -> list:
    """The omnibus matrix's distinct blocks: row s of the T x T nested list
    holds block (s, t) = (A_s + A_t) / 2. A diagonal block (s, s) is A_s
    itself, the snapshot's :class:`~dynembed.netseries.SymmetricPattern`;
    a shared block (s, t), s != t, is one dense array, which block (t, s)
    is too, so T(T - 1) / 2 arrays are held. Each holds zero rows below its
    n x n block up to a multiple of 8 rows, so that a threaded BLAS, which
    splits a product's rows between threads, adds each row in one order at
    any thread count (measured on OpenBLAS 0.3.31 at 1, 2 and 4 threads)."""
    patterns = as_patterns(series)
    n = patterns[0].n
    blocks = [[a if s == t else None for t in range(len(patterns))]
              for s, a in enumerate(patterns)]
    for s, t in zip(*np.triu_indices(len(patterns), 1)):
        # both patterns added into the block's one array, then halved
        shared = blocks[s][t] = blocks[t][s] = np.zeros((-(-n // 8) * 8, n))
        patterns[t].add_to(patterns[s].add_to(shared))
        shared *= 0.5
    return blocks


def _omnibus_dense_matvec(blocks, n: int):
    # (M x)_s = sum_t B_st x_t in ascending t: every shared block's gemv,
    # less its padding rows, runs before the patterns' products A_s x_s
    def matvec(x):
        xs = x.reshape(len(blocks), n)
        terms = [[None if s == t else (b @ xs[t])[:n] for t, b in enumerate(row)]
                 for s, row in enumerate(blocks)]
        return np.concatenate([sum(blocks[s][s] @ xs[s] if y is None else y for y in row)
                               for s, row in enumerate(terms)])

    return matvec


def omnibus_embed(series, d: int, seed: int = 0) -> Embedding:
    """Omnibus embedding of all snapshots jointly.

    Decomposes the (T n) x (T n) matrix whose (s, t) block is the average of
    snapshots s and t: takes its top-d eigenpairs by magnitude (the top-d
    singular triplets of this symmetric matrix) and scales the eigenvectors
    by the square-rooted eigenvalue magnitudes. Row block t is the
    snapshot-t point set; all blocks share one coordinate system. The
    (positive, negative) eigenvalue counts are reported as the signature.

    Up to ``DENSE_OMNIBUS_MAX_ENTRIES`` matrix entries its T(T - 1) / 2
    shared blocks are held dense and each diagonal block A_s is applied
    through its pattern (:func:`omnibus_blocks`); above, it is applied as
    (U^T E + E^T U) / 2 through the unfolding U = (A_1 | ... | A_T), E = (I |
    ... | I). ``products`` counts the products the decomposition applied and
    ``dense_bytes`` the bytes of the dense blocks held, 0 when matrix-free.
    """
    patterns = as_patterns(series)
    n, t_count = patterns[0].n, len(patterns)
    side, dense_bytes = t_count * n, 0
    if side * side <= DENSE_OMNIBUS_MAX_ENTRIES:
        blocks = omnibus_blocks(patterns)
        dense_bytes = sum(b.nbytes for s, row in enumerate(blocks) for b in row[s + 1:])
        route, apply = "dense", _omnibus_dense_matvec(blocks, n)
    else:
        route, apply = "matrix-free", _omnibus_matvec(patterns, n)
    scaled, signature, products = _signed_symmetric_embedding(apply, side, d, seed)
    # the omnibus point set keeps its own largest entries positive; the
    # per-snapshot methods follow the left vectors, as uase does
    (scaled,) = orient_columns(scaled)
    points = [scaled[t * n : (t + 1) * n] for t in range(t_count)]
    return Embedding(points=points, method="omnibus", signatures=[signature], route=route,
                     products=products, dense_bytes=dense_bytes)


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
