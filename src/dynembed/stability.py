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
from .linalg import procrustes
from .models import DsbmSpec, sample_dsbm
from .mrdpg import (
    _rows_equal,
    exchangeability_classes,
    exchangeable_states,
    latent_structure,
    model_from_dsbm,
    theoretical_error_covariance,
)

# Calibrated on the bundled four-community benchmark over a 20-seed pilot:
# centroid gap ratios of genuinely exchangeable pairs stayed below 0.27 for
# every method that resolves them, while every failure mode produced ratios
# above 0.38. The midpoint separates the two populations with margin.
DEFAULT_GAP_THRESHOLD = 0.3


def _group_points(embedding: Embedding, memberships: np.ndarray, group: int, t: int):
    z = memberships[t] if memberships.ndim == 2 else memberships
    mask = z == group
    if not np.any(mask):
        raise ValueError(f"no nodes in group {group} at time {t}")
    return embedding.points[t][mask]


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


def discover_pairs(model):
    """All exchangeable (state, time) pairs implied by a finite-state model.

    Returns (pairs, scales): same-time pairs for states with equal kernel rows
    (scale 1) or proportional rows (the fitted scale), plus cross-time pairs
    for states whose row is unchanged between consecutive times.
    """
    pairs, scales = [], []
    for t in range(model.n_times):
        classes = exchangeability_classes(model, t)
        for group in classes:
            for other in group[1:]:
                pairs.append(((group[0], t), (other, t)))
                scales.append(1.0)
        heads = [g[0] for g in classes]
        for i, a in enumerate(heads):
            for b in heads[i + 1 :]:
                res = exchangeable_states(model, t, a, b)
                if res.proportional and not res.exact:
                    pairs.append(((a, t), (b, t)))
                    scales.append(res.scale)
    for t in range(model.n_times - 1):
        k1, k2 = model.kernels[t], model.kernels[t + 1]
        if k1.shape != k2.shape:
            continue
        for state in stable_states(model, t, t + 1):
            pairs.append(((state, t), (state, t + 1)))
            scales.append(1.0)
    return pairs, scales


def stability_report(
    embedding: Embedding,
    memberships: np.ndarray,
    pairs: list | None = None,
    *,
    model=None,
    threshold: float = DEFAULT_GAP_THRESHOLD,
    scales: list | None = None,
) -> StabilityReport:
    """Check that paired (group, time) point clouds coincide.

    pairs: list of ((group, t), (group2, t2)) with 0-based times. Equal times
    probe cross-sectional agreement, different times longitudinal agreement.
    With pairs omitted, a finite-state ``model`` must be given and all
    exchangeable pairs it implies are tested (group labels are then the model
    state indices). scales: optional per-pair factor a, testing
    cloud_a == a * cloud_b (degree scaled exchangeability); covariances are
    compared after dividing the first cloud by a, which describes the spread
    only when the scaling acts on the positions alone.

    The gap ratio for a pair divides the distance between the two centroids by
    the separation, the smallest distance from either centroid to any other
    group centroid at the same time. Point sets of unequal dimension (as
    produced by per-snapshot embedders) are compared after zero padding, so
    unrelated coordinate systems surface as large gaps rather than errors.
    """
    memberships = np.asarray(memberships)
    if pairs is None:
        if model is None:
            raise ValueError("need explicit pairs or a model to discover them from")
        pairs, scales = discover_pairs(model)
    results = []
    for k, ((ga, ta), (gb, tb)) in enumerate(pairs):
        scale = 1.0 if scales is None else float(scales[k])
        pts_a = _group_points(embedding, memberships, ga, ta) / scale
        pts_b = _group_points(embedding, memberships, gb, tb)
        d = max(pts_a.shape[1], pts_b.shape[1])
        mean_a = _pad_to(pts_a.mean(axis=0), d)
        mean_b = _pad_to(pts_b.mean(axis=0), d)
        centroid_gap = float(np.linalg.norm(mean_a - mean_b))

        separation = np.inf
        for g, t, own in ((ga, ta, mean_a), (gb, tb, mean_b)):
            z = memberships[t] if memberships.ndim == 2 else memberships
            for other in np.unique(z):
                if (other, t) in ((ga, ta), (gb, tb)):
                    continue
                other_mean = _pad_to(
                    _group_points(embedding, memberships, other, t).mean(axis=0), d
                )
                separation = min(separation, float(np.linalg.norm(own - other_mean)))
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


def stable_states(model, t1: int, t2: int) -> list:
    """States whose kernel row is identical at two times.

    Needs the two kernels to share a state space. Such states are the ones a
    longitudinally stable embedder must keep fixed between the two times.
    """
    k1, k2 = model.kernels[t1], model.kernels[t2]
    if k1.shape != k2.shape:
        raise ValueError("kernels at the two times have different state spaces")
    return [
        int(a)
        for a in np.intersect1d(model.realized_states(t1), model.realized_states(t2))
        if _rows_equal(k1[a], k2[a])
    ]


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
    root = np.random.SeedSequence(seed)
    errors = []
    for n, child in zip(sizes, root.spawn(len(sizes))):
        spec = make_spec(int(n))
        reference = _exact_reference(spec, d)[0]
        grams = spec.gram_matrices() if noise_free else None
        rep_seeds = child.generate_state(reps)
        errs = []
        for r in range(reps):
            if noise_free:
                emb = uase(grams, d, seed=int(rep_seeds[r]))
            else:
                series = sample_dsbm(spec, seed=int(rep_seeds[r]))
                emb = uase(series, d, seed=int(rep_seeds[r]))
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
    time-t kernel of the model summary (for a plain block model, the
    community).
    """
    reference, model, node_seq, structure = _exact_reference(spec, d)
    group = model.sequences[node_seq, t] == state
    if not np.any(group):
        raise ValueError(f"state {state} unoccupied at time {t}")
    theory = theoretical_error_covariance(structure, t, state)
    n = spec.n_nodes
    rows_t = slice((t + 1) * n, (t + 2) * n)
    rep_seeds = np.random.SeedSequence(seed).generate_state(reps)
    pooled = []
    for r in range(reps):
        series = sample_dsbm(spec, seed=int(rep_seeds[r]))
        emb = uase(series, d, seed=int(rep_seeds[r]))
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
