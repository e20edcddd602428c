"""Stability diagnostics for dynamic network embeddings.

An embedder is longitudinally stable when a group of nodes whose connection
behavior does not change keeps the same position over time, and
cross-sectionally stable when groups with identical behavior at one time
share a position there. Both reduce to the same question about group
centroids, quantified here by the ratio of the within-pair centroid gap to
the distance separating the pair from unrelated groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedders import Embedding, uase
from .linalg import procrustes, seed_words
from .models import DsbmSpec, sample_dsbm
from .mrdpg import latent_structure, model_from_dsbm, theoretical_error_covariance

# Calibrated on the bundled four-community benchmark over a 20-seed pilot:
# centroid gap ratios of genuinely exchangeable pairs stayed below 0.27 for
# every method that resolves them, while every failure mode produced ratios
# above 0.38. The midpoint separates the two populations with margin.
DEFAULT_GAP_THRESHOLD = 0.3


def _pad_to(v: np.ndarray, d: int) -> np.ndarray:
    if v.shape[-1] == d:
        return v
    out = np.zeros(v.shape[:-1] + (d,))
    out[..., : v.shape[-1]] = v
    return out


def eigenvalue_cov_gap(cov_a: np.ndarray, cov_b: np.ndarray) -> float:
    """Relative distance between two covariance spectra.

    Basis free: any orthogonal change of coordinates leaves it unchanged, and
    it lower-bounds the aligned Frobenius distance.
    """
    d = max(cov_a.shape[0], cov_b.shape[0])
    ea = np.sort(np.linalg.eigvalsh(_pad_to(_pad_to(cov_a, d).T, d)))
    eb = np.sort(np.linalg.eigvalsh(_pad_to(_pad_to(cov_b, d).T, d)))
    scale = max(np.linalg.norm(ea), np.linalg.norm(eb), 1e-300)
    return float(np.linalg.norm(ea - eb) / scale)


@dataclass(frozen=True)
class PairResult:
    """Stability evidence for one pair of (group, time) point clouds."""

    group_a: tuple
    group_b: tuple
    centroid_gap: float
    separation: float
    gap_ratio: float
    cov_gap: float
    scale: float
    passed: bool
    cov_skipped: bool = False


@dataclass
class StabilityReport:
    pairs: list
    threshold: float

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.pairs)


def stability_report(
    embedding: Embedding,
    memberships: np.ndarray,
    pairs: list,
    *,
    threshold: float = DEFAULT_GAP_THRESHOLD,
    scales: list | None = None,
) -> StabilityReport:
    """Check that paired (group, time) point clouds coincide.

    memberships: (T, n) group labels per time, or (n,) labels for every time.
    pairs: list of ((group, t), (group2, t2)) with 0-based times. Equal times
    probe cross-sectional agreement, different times longitudinal agreement.
    For a finite-state model, :func:`dynembed.mrdpg.discover_pairs` gives the
    pairs and scales in state labels, ``model.sequences[node_sequences].T``.
    scales: optional per-pair factor a > 0 (finite), testing
    cloud_a == a * cloud_b (degree scaled exchangeability); covariances are
    compared after dividing the first cloud by a, which describes the spread
    only when the scaling acts on the positions alone.

    The gap ratio for a pair divides the distance between the two centroids by
    the separation, the smallest distance from either centroid to any other
    group centroid at the same time. Point sets of unequal dimension (as
    produced by per-snapshot embedders) are compared after zero padding, so
    unrelated coordinate systems surface as large gaps rather than errors.
    """
    t_count, n = len(embedding.points), embedding.points[0].shape[0]
    memberships = np.asarray(memberships)
    if memberships.shape not in ((t_count, n), (n,)):
        raise ValueError(f"memberships of shape {memberships.shape} fit no embedding "
                         f"of {t_count} times and {n} nodes")
    memberships = np.broadcast_to(memberships, (t_count, n))
    scales = [1.0] * len(pairs) if scales is None else [float(s) for s in scales]
    if len(scales) != len(pairs):
        raise ValueError(f"{len(scales)} scales for {len(pairs)} pairs")
    clouds, centroids = {}, {}    # per time, each group's points and centroid
    results = []
    for ((ga, ta), (gb, tb)), scale in zip(pairs, scales):
        name = f"pair {ga}:{ta}/{gb}:{tb}"
        if not (np.isfinite(scale) and scale > 0):
            raise ValueError(f"{name}: scale {scale:g} is not positive and finite")
        for g, t in ((ga, ta), (gb, tb)):
            if t not in range(t_count):
                raise ValueError(f"{name}: time {t} outside [0, {t_count})")
            if t not in clouds:
                z = memberships[t]
                clouds[t] = {h: embedding.points[t][z == h] for h in np.unique(z)}
                centroids[t] = {h: pts.mean(axis=0) for h, pts in clouds[t].items()}
            if g not in clouds[t]:
                raise ValueError(f"{name}: no nodes in group {g} at time {t}")
        pts_a = clouds[ta][ga] / scale
        pts_b = clouds[tb][gb]
        d = max(pts_a.shape[1], pts_b.shape[1])
        mean_a = _pad_to(centroids[ta][ga] / scale, d)
        mean_b = _pad_to(centroids[tb][gb], d)
        centroid_gap = float(np.linalg.norm(mean_a - mean_b))

        separation = min(
            (float(np.linalg.norm(own - _pad_to(other, d)))
             for t, own in ((ta, mean_a), (tb, mean_b))
             for g, other in centroids[t].items() if (g, t) not in ((ga, ta), (gb, tb))),
            default=np.inf,
        )
        if not np.isfinite(separation):
            raise ValueError("no reference groups left to measure separation against")
        if separation <= 0:
            raise ValueError("a reference group coincides with the pair; no verdict")

        gap_ratio = centroid_gap / separation
        cov_skipped = pts_a.shape[0] < 2 or pts_b.shape[0] < 2
        if cov_skipped:
            cov_gap = float("nan")
        else:
            cov_a = np.atleast_2d(np.cov(pts_a.T))
            cov_b = np.atleast_2d(np.cov(pts_b.T))
            cov_gap = eigenvalue_cov_gap(cov_a, cov_b)
        results.append(
            PairResult(
                group_a=(ga, ta),
                group_b=(gb, tb),
                centroid_gap=centroid_gap,
                separation=separation,
                gap_ratio=float(gap_ratio),
                cov_gap=cov_gap,
                scale=scale,
                passed=bool(gap_ratio < threshold),
                cov_skipped=cov_skipped,
            )
        )
    return StabilityReport(pairs=results, threshold=threshold)


@dataclass
class ConsistencyCurve:
    """Estimation error as a function of the number of nodes."""

    sizes: list
    errors: list          # one list of per-repetition errors per size
    medians: np.ndarray

    def is_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.medians) < 0))


def _exact_reference(spec: DsbmSpec, d: int):
    """Noise-free positions of every node from the exact finite-model structure.

    Returns (reference, model, node_sequences, structure), where
    reference stacks the left point set over each snapshot's right point set,
    in the row order of :func:`_aligned_stack`.
    """
    model, node_seq = model_from_dsbm(spec)
    structure = latent_structure(model)
    if d != structure.d:
        raise ValueError(
            f"d={d} does not match the model structure rank {structure.d}"
        )
    left, rights = structure.node_points(node_seq)
    return np.vstack([left] + rights), model, node_seq, structure


def _aligned_stack(embedding: Embedding, reference: np.ndarray) -> np.ndarray:
    """Left and snapshot point sets, stacked and rotated onto the reference."""
    emp = np.vstack([embedding.left] + embedding.points)
    return emp @ procrustes(emp, reference).q


def consistency_curve(
    make_spec,
    sizes,
    d: int,
    *,
    reps: int = 10,
    seed: int = 0,
    noise_free: bool = False,
) -> ConsistencyCurve:
    """Largest per-node estimation error of the joint embedding across sizes.

    make_spec(n) must return the :class:`DsbmSpec` at n nodes, and d must be
    the rank of its exact finite-model structure. For each size, ``reps``
    series are sampled; each embedding (left point set and all snapshot point
    sets, stacked) is aligned by an orthogonal transform to the noise-free
    node positions that the structure gives exactly, and the largest row
    error is recorded. With noise_free=True the expected matrices themselves
    are embedded instead of samples, so the recorded error is pure numerical
    round-off.

    Errors are reported in sparsity-adjusted units, divided by the square
    root of the model's density factor. The noise-free positions themselves
    shrink with that factor, so without the adjustment errors at different
    densities are not comparable; with it, halving the density factor at
    fixed n scales the error by about sqrt(2).
    """
    if len(sizes) > 1 and not np.all(np.diff(sizes) > 0):
        raise ValueError("sizes must be strictly increasing")
    errors = []
    for i, n in enumerate(sizes):
        spec = make_spec(int(n))
        reference = _exact_reference(spec, d)[0]
        grams = spec.gram_matrices() if noise_free else None
        errs = []
        for rep_seed in seed_words(seed, reps, (i,)):
            if noise_free:
                emb = uase(grams, d, seed=rep_seed)
            else:
                series = sample_dsbm(spec, seed=rep_seed)
                emb = uase(series, d, seed=rep_seed)
            row_err = np.linalg.norm(_aligned_stack(emb, reference) - reference, axis=1)
            errs.append(float(np.max(row_err)) / np.sqrt(spec.rho))
        errors.append(errs)
    medians = np.array([np.median(e) for e in errors])
    return ConsistencyCurve(sizes=list(sizes), errors=errors, medians=medians)


@dataclass
class CltReport:
    """Distribution of scaled embedding errors versus the asymptotic law."""

    n_samples: int
    mean: np.ndarray
    mean_ratio: float            # ||mean|| over its own standard error
    cov_empirical: np.ndarray
    cov_theory: np.ndarray
    cov_gap: float               # spectrum distance, basis free
    skewness: np.ndarray
    excess_kurtosis: np.ndarray


def clt_check(
    spec: DsbmSpec,
    d: int,
    t: int,
    state: int,
    *,
    reps: int = 10,
    seed: int = 0,
) -> CltReport:
    """Compare sampled snapshot-t embedding errors with the asymptotic law.

    For each repetition a series is sampled and jointly embedded; the
    embedding is aligned to the noise-free positions, and the scaled residual
    rows sqrt(n) * (aligned - noise free) of the nodes in the given state at
    time t are pooled over nodes and repetitions. ``state`` indexes the
    time-t kernel of :func:`dynembed.mrdpg.model_from_dsbm`, whose states
    are the (community, degree weight) pairs present at t in sorted order
    (for a plain block model, state k is the k-th smallest community with
    nodes at t).
    """
    reference, model, node_seq, structure = _exact_reference(spec, d)
    group = model.sequences[node_seq, t] == state
    if not np.any(group):
        raise ValueError(f"state {state} unoccupied at time {t}")
    theory = theoretical_error_covariance(structure, t, state)
    n = spec.n_nodes
    rows_t = slice((t + 1) * n, (t + 2) * n)
    pooled = []
    for rep_seed in seed_words(seed, reps):
        series = sample_dsbm(spec, seed=rep_seed)
        emb = uase(series, d, seed=rep_seed)
        resid = _aligned_stack(emb, reference)[rows_t] - reference[rows_t]
        pooled.append(resid[group] * np.sqrt(n))
    resid = np.vstack(pooled)

    mean = resid.mean(axis=0)
    # biased central moments, as scipy.stats.skew and kurtosis use by default
    m2, m3, m4 = (np.mean((resid - mean) ** k, axis=0) for k in (2, 3, 4))
    cov_emp = np.cov(resid.T)
    se = np.sqrt(np.trace(np.atleast_2d(cov_emp)) / resid.shape[0])
    return CltReport(
        n_samples=resid.shape[0],
        mean=mean,
        mean_ratio=float(np.linalg.norm(mean) / max(se, 1e-300)),
        cov_empirical=np.atleast_2d(cov_emp),
        cov_theory=theory,
        cov_gap=eigenvalue_cov_gap(np.atleast_2d(cov_emp), theory),
        skewness=m3 / m2**1.5,
        excess_kurtosis=m4 / m2**2 - 3.0,
    )
