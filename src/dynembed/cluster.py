"""Gaussian mixture clustering with BIC selection for pooled embeddings.

Dynamic community detection downstream of a joint embedding: per-snapshot
point sets are mapped to spherical coordinates, the non-zero rows pooled
across snapshots into one matrix, and a full-covariance Gaussian mixture is
fitted for each candidate component count. The Bayesian Information
Criterion picks the count; nodes are then assigned their maximum a
posteriori component per snapshot.

Each count's restart seeds are numpy's SeedSequence words of the run's seed
and each restart's k-means++ draws are numpy's PCG64 draws, both computed
in-house by :mod:`dynembed.linalg` to the same bits, so numpy.random is not
loaded and a later numpy changing its Generator algorithms moves no label.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .embedders import Embedding
from .linalg import Pcg64, seed_words, spherical_coordinates

RIDGE_FACTOR = 1e-6
CONVERGENCE_RTOL = 1e-7
MAX_ITERATIONS = 500


@dataclass
class GmmModel:
    """One fitted Gaussian mixture.

    weights: (G,) simplex vector. means: (G, q). covariances: (G, q, q),
    symmetric positive definite after regularization. loglik and bic refer to
    the training points; loglik_trace holds the per-iteration log likelihood
    so the monotone ascent of the fit can be audited. regularized is set when
    any covariance of the fit needed a diagonal ridge.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    loglik: float
    bic: float
    converged: bool
    n_iter: int
    loglik_trace: list = field(default_factory=list, repr=False)
    regularized: bool = False

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def parameter_count(g: int, q: int) -> int:
    """Free parameters of a g-component full-covariance mixture on R^q."""
    return (g - 1) + g * q + g * q * (q + 1) // 2


def _log_densities(points, weights, means, chol):
    """log of w_g * N(x | mean_g, L_g L_g^T) for every point and component,
    given the Cholesky factors L_g. One component at a time, so no temporary
    is larger than n x max(G, q). The result is the (n, G) transpose of a
    (G, n) array; keep that layout, since the callers' sums over its rows
    and columns round by it."""
    q = points.shape[1]
    maha = np.empty((len(means), points.shape[0]))
    diff, z = np.empty_like(points), np.empty_like(points)
    for k, (mean, inverse_t) in enumerate(zip(means, np.linalg.inv(chol).transpose(0, 2, 1))):
        # rows of z are L_k^-1 (x - mean_k), so the Mahalanobis term is |z|^2
        np.matmul(np.subtract(points, mean, out=diff), inverse_t, out=z)
        z *= z
        np.sum(z, axis=1, out=maha[k])
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    log_dens = maha.T
    log_dens += q * np.log(2.0 * np.pi) + logdet
    log_dens *= -0.5
    log_dens += np.log(weights)
    return log_dens


def _logsumexp_rows(a):
    top = np.max(a, axis=1)
    shifted = a - top[:, None]
    return top + np.log(np.sum(np.exp(shifted, out=shifted), axis=1))


def _regularize(cov, scale, regularized):
    """Make a covariance usable by adding an escalating diagonal ridge;
    returns it with its Cholesky factor.

    A component collapsed onto a few points has an eigenvalue near zero that
    Cholesky still accepts; its density then spikes and EM loses its monotone
    ascent. So a squared Cholesky pivot below RIDGE_FACTOR * scale takes the
    ridge too. Warns on the first ridge of a fit.
    """
    ridge = RIDGE_FACTOR * max(np.trace(cov) / cov.shape[0], scale)
    for _ in range(40):
        try:
            chol = np.linalg.cholesky(cov)
            if np.min(np.diag(chol)) ** 2 >= RIDGE_FACTOR * scale:
                return cov, chol, regularized
        except np.linalg.LinAlgError:
            pass
        if not regularized:
            warnings.warn(
                "singular mixture covariance regularized with a diagonal "
                "ridge",
                RuntimeWarning,
            )
            regularized = True
        cov = cov + ridge * np.eye(cov.shape[0])
        ridge *= 10.0
    raise np.linalg.LinAlgError("covariance could not be regularized")


def _kmeans_pp_centers(points, g, rng):
    # distance-squared seeding; first center uniform
    n = points.shape[0]
    centers = [points[rng.integers(n)]]
    d2 = np.full(n, np.inf)
    for _ in range(1, g):
        d2 = np.minimum(d2, np.sum((points - centers[-1]) ** 2, axis=1))
        total = d2.sum()
        if total <= 0:
            centers.append(points[rng.integers(n)])
            continue
        centers.append(points[rng.choice(d2 / total)])
    return np.array(centers)


def _m_step(points, resp, scale, regularized):
    """Weights, means, covariances and their Cholesky factors from the
    responsibilities. One batched Cholesky checks every pivot; only the
    components that fail it go through ``_regularize``, every component when
    the factorization itself fails."""
    n, q = points.shape
    nk = resp.sum(axis=0) + 10 * np.finfo(float).tiny
    weights = nk / n
    means = (resp.T @ points) / nk[:, None]
    cov = np.empty((len(nk), q, q))
    for k, (mean, weight) in enumerate(zip(means, resp.T)):
        diff = points - mean
        cov[k] = (weight[:, None] * diff).T @ diff
    cov /= nk[:, None, None]
    covariances = (cov + cov.transpose(0, 2, 1)) / 2.0
    try:
        chol = np.linalg.cholesky(covariances)
        pivots = np.min(np.diagonal(chol, axis1=1, axis2=2), axis=1) ** 2
        weak = ~(pivots >= RIDGE_FACTOR * scale)
    except np.linalg.LinAlgError:
        chol, weak = np.empty_like(covariances), np.ones(len(nk), dtype=bool)
    for k in np.flatnonzero(weak):
        covariances[k], chol[k], regularized = _regularize(covariances[k], scale, regularized)
    return weights, means, covariances, chol, regularized


def fit_gmm(
    points: np.ndarray,
    g: int,
    seed: int = 0,
    *,
    max_iter: int = MAX_ITERATIONS,
) -> GmmModel:
    """One EM fit of a g-component full-covariance mixture.

    Initialization places centers by distance-squared seeding, hard-assigns
    each point to its nearest center and starts EM from that partition. The
    log likelihood trace over iterations is retained on the result.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, q = points.shape
    if n < g:
        raise ValueError(f"cannot fit {g} components to {n} points")
    rng = Pcg64(seed)
    scale = max(float(np.var(points)), np.finfo(float).tiny)

    centers = _kmeans_pp_centers(points, g, rng)
    nearest = np.argmin([np.sum((points - c) ** 2, axis=1) for c in centers], axis=0)
    resp = np.zeros((n, g))
    resp[np.arange(n), nearest] = 1.0

    weights, means, covariances, chol, regularized = _m_step(points, resp, scale, False)
    trace = []
    loglik = -np.inf
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        log_dens = _log_densities(points, weights, means, chol)
        row_lse = _logsumexp_rows(log_dens)
        new_loglik = float(row_lse.sum())
        trace.append(new_loglik)
        if np.isfinite(loglik) and abs(new_loglik - loglik) <= CONVERGENCE_RTOL * abs(loglik):
            loglik = new_loglik
            converged = True
            break
        loglik = new_loglik
        log_dens -= row_lse[:, None]
        resp = np.exp(log_dens, out=log_dens)
        weights, means, covariances, chol, regularized = _m_step(
            points, resp, scale, regularized)
    bic = -2.0 * loglik + parameter_count(g, q) * np.log(n)
    return GmmModel(
        weights=weights,
        means=means,
        covariances=covariances,
        loglik=loglik,
        bic=float(bic),
        converged=converged,
        n_iter=iteration,
        loglik_trace=trace,
        regularized=regularized,
    )


def fit_gmm_bic(
    points: np.ndarray,
    g_grid,
    restarts: int = 10,
    seed: int = 0,
):
    """Best mixture over a grid of component counts.

    For each count the fit with the highest log likelihood over ``restarts``
    seeded initializations is kept; the count minimizing BIC wins (ties go to
    the earlier grid entry). Returns (best model, the kept fit of each count
    in grid order).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    g_grid = [int(g) for g in g_grid]
    if not g_grid:
        raise ValueError("empty component-count grid")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    n, q = points.shape
    if n <= max(g_grid) * max(q, 1):
        raise ValueError(
            f"{n} points cannot support {max(g_grid)} components in "
            f"dimension {q}"
        )
    winners = [
        max((fit_gmm(points, g, seed=s) for s in seed_words(seed, restarts, (i,))),
            key=lambda m: m.loglik)
        for i, g in enumerate(g_grid)
    ]
    return min(winners, key=lambda m: m.bic), winners


def assign(model: GmmModel, points: np.ndarray):
    """Maximum a posteriori component per point, with responsibilities.

    Ties go to the lowest component index. Returns (labels, responsibilities)
    where responsibilities rows sum to 1.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != model.dim:
        raise ValueError(
            f"points have dimension {points.shape[1]}, model expects {model.dim}"
        )
    log_dens = _log_densities(
        points, model.weights, model.means, np.linalg.cholesky(model.covariances)
    )
    log_dens -= _logsumexp_rows(log_dens)[:, None]
    resp = np.exp(log_dens, out=log_dens)
    return np.argmax(resp, axis=1), resp


def pool_spherical(embedding: Embedding):
    """Angle coordinates of all non-zero points, pooled across snapshots.

    Rows are stacked time-major: all retained nodes of snapshot 0, then of
    snapshot 1, and so on. Returns (theta, index) where theta is (M, d-1) and
    index is an (M, 2) integer array of (node, snapshot) per retained row.
    Requires a common embedding dimension across snapshots.
    """
    if len(set(embedding.dims)) != 1:
        raise ValueError("snapshots have differing dimensions; cannot pool")
    thetas, pairs = [], []
    for t, pts in enumerate(embedding.points):
        angles, active = spherical_coordinates(pts)
        thetas.append(angles[active])
        nodes = np.flatnonzero(active)
        pairs.append(np.column_stack([nodes, np.full(nodes.shape, t)]))
    theta = np.vstack(thetas)
    index = np.vstack(pairs).astype(int)
    return theta, index
