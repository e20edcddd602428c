"""Tests for the mixture-model clustering and pooling helpers."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from dynembed.cluster import (
    GmmModel,
    _kmeans_pp_centers,
    _log_densities,
    _m_step,
    assign,
    fit_gmm,
    fit_gmm_bic,
    parameter_count,
    pool_spherical,
)
from dynembed.embedders import Embedding
from dynembed.linalg import Pcg64, spherical_coordinates


def test_single_component_matches_analytic_mle():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(200, 3)) @ np.diag([1.0, 2.0, 0.5]) + [1, -2, 0]
    model = fit_gmm(points, 1, seed=0)
    # one component: EM lands on the closed-form Gaussian MLE
    mean = points.mean(axis=0)
    cov = (points - mean).T @ (points - mean) / points.shape[0]
    assert np.allclose(model.means[0], mean, atol=1e-8)
    assert np.allclose(model.covariances[0], cov, atol=1e-8)
    expected_ll = multivariate_normal.logpdf(points, mean, cov).sum()
    assert model.loglik == pytest.approx(expected_ll, rel=1e-9)
    expected_bic = -2.0 * expected_ll + parameter_count(1, 3) * np.log(200)
    assert model.bic == pytest.approx(expected_bic, rel=1e-9)
    assert model.converged


def test_parameter_count_formula():
    # weights (g-1) + means g*q + symmetric covariances g*q*(q+1)/2
    assert parameter_count(1, 3) == 0 + 3 + 6
    assert parameter_count(4, 2) == 3 + 8 + 12
    assert parameter_count(2, 1) == 1 + 2 + 2


def test_two_blobs_select_two_components():
    rng = np.random.default_rng(1)
    blob_a = rng.normal(size=(80, 2)) * 0.2
    blob_b = rng.normal(size=(80, 2)) * 0.2 + [5, 5]
    points = np.vstack([blob_a, blob_b])
    best, fits = fit_gmm_bic(points, [1, 2, 3], restarts=3, seed=0)
    assert best.n_components == 2
    assert [m.n_components for m in fits] == [1, 2, 3]
    assert best.bic == min(m.bic for m in fits)


def test_single_gaussian_prefers_one_component():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(150, 2))
    best, fits = fit_gmm_bic(points, [1, 2], restarts=3, seed=0)
    assert fits[0].bic < fits[1].bic
    assert best.n_components == 1


def test_assign_matches_direct_bayes_rule():
    model = GmmModel(
        weights=np.array([0.3, 0.7]),
        means=np.array([[0.0, 0.0], [2.0, 1.0]]),
        covariances=np.array([np.eye(2) * 0.5, [[1.0, 0.3], [0.3, 0.8]]]),
        loglik=0.0,
        bic=0.0,
        converged=True,
        n_iter=1,
    )
    rng = np.random.default_rng(3)
    points = rng.normal(size=(40, 2)) * 2
    labels, resp = assign(model, points)
    dens = np.column_stack([
        model.weights[g]
        * multivariate_normal.pdf(points, model.means[g], model.covariances[g])
        for g in range(2)
    ])
    expected = dens / dens.sum(axis=1, keepdims=True)
    assert np.allclose(resp, expected, atol=1e-12)
    assert np.array_equal(labels, np.argmax(expected, axis=1))
    assert np.allclose(resp.sum(axis=1), 1.0)


def test_assign_tie_goes_to_lowest_index():
    model = GmmModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0], [0.0]]),
        covariances=np.array([[[1.0]], [[1.0]]]),
        loglik=0.0,
        bic=0.0,
        converged=True,
        n_iter=1,
    )
    labels, resp = assign(model, np.array([[0.7]]))
    assert labels[0] == 0
    assert resp[0, 0] == pytest.approx(0.5)


def test_assign_point_at_component_mean():
    model = GmmModel(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0, 0.0], [10.0, 10.0]]),
        covariances=np.array([np.eye(2), np.eye(2)]),
        loglik=0.0,
        bic=0.0,
        converged=True,
        n_iter=1,
    )
    labels, _ = assign(model, np.array([[10.0, 10.0], [0.0, 0.0]]))
    assert labels.tolist() == [1, 0]


def test_component_relabeling_permutes_assignments():
    rng = np.random.default_rng(4)
    points = np.vstack([
        rng.normal(size=(50, 2)) * 0.3,
        rng.normal(size=(50, 2)) * 0.3 + [4, 0],
        rng.normal(size=(50, 2)) * 0.3 + [0, 4],
    ])
    best, _ = fit_gmm_bic(points, [3], restarts=3, seed=1)
    labels, _ = assign(best, points)
    perm = np.array([2, 0, 1])
    shuffled = GmmModel(
        weights=best.weights[perm],
        means=best.means[perm],
        covariances=best.covariances[perm],
        loglik=best.loglik,
        bic=best.bic,
        converged=best.converged,
        n_iter=best.n_iter,
    )
    labels2, _ = assign(shuffled, points)
    inverse = np.argsort(perm)
    assert np.array_equal(labels2, inverse[labels])


def test_same_seed_reproduces_fit():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(100, 2))
    a, fits_a = fit_gmm_bic(points, [1, 2], restarts=4, seed=9)
    b, fits_b = fit_gmm_bic(points, [1, 2], restarts=4, seed=9)
    assert np.array_equal(a.means, b.means)
    assert a.bic == b.bic
    assert [m.bic for m in fits_a] == [m.bic for m in fits_b]


def test_degenerate_data_warns_and_stays_finite():
    points = np.zeros((12, 2))
    with pytest.warns(RuntimeWarning):
        model = fit_gmm(points, 1, seed=0)
    assert model.regularized
    assert np.isfinite(model.loglik)
    assert np.all(np.isfinite(model.covariances))


def test_too_few_points_rejected():
    with pytest.raises(ValueError):
        fit_gmm_bic(np.zeros((4, 3)), [2], restarts=1)
    with pytest.raises(ValueError):
        fit_gmm(np.zeros((1, 2)), 2)
    with pytest.raises(ValueError, match="empty component-count grid"):
        fit_gmm_bic(np.zeros((40, 2)), [], restarts=1)


def test_fewer_distinct_points_than_components():
    # two distinct rows, three components: once both rows are centers every
    # squared distance is zero, and the third center is drawn uniformly
    points = np.repeat([[0.0, 0.0], [1.0, 2.0]], 10, axis=0)
    centers = _kmeans_pp_centers(points, 3, Pcg64(0))
    assert {tuple(c) for c in centers[:2]} == {(0.0, 0.0), (1.0, 2.0)}
    assert tuple(centers[2]) in {(0.0, 0.0), (1.0, 2.0)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = fit_gmm(points, 3, seed=0)
    assert model.weights.shape == (3,) and np.isfinite(model.loglik)


def test_non_convergence_flagged():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(60, 2))
    model = fit_gmm(points, 3, seed=0, max_iter=2)
    assert not model.converged
    assert model.n_iter == 2


def test_assign_dimension_mismatch():
    model = fit_gmm(np.random.default_rng(8).normal(size=(30, 2)), 1)
    with pytest.raises(ValueError):
        assign(model, np.zeros((5, 3)))


def test_pool_spherical_hand_oracle():
    pts0 = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 0.0]])
    pts1 = np.array([[1.0, 1.0], [0.0, 0.0], [3.0, 4.0]])  # node 1 inactive
    emb = Embedding(points=[pts0, pts1], method="test")
    theta, index = pool_spherical(emb)
    assert theta.shape == (5, 1)
    assert index.tolist() == [[0, 0], [1, 0], [2, 0], [0, 1], [2, 1]]
    a0, m0 = spherical_coordinates(pts0)
    a1, m1 = spherical_coordinates(pts1)
    assert np.allclose(theta, np.vstack([a0[m0], a1[m1]]))
    # spot values: angles of (1,0), (0,2), (-1,0), (1,1)
    assert theta[:4, 0] == pytest.approx(
        [0.0, np.pi / 2, np.pi, np.pi / 4]
    )


def test_pool_spherical_requires_common_dimension():
    emb = Embedding(points=[np.ones((3, 2)), np.ones((3, 3))], method="test")
    with pytest.raises(ValueError):
        pool_spherical(emb)


@pytest.mark.parametrize("seed", range(6))
def test_batched_log_densities_match_scipy_logpdf(seed):
    rng = np.random.default_rng(seed)
    g, q, n = int(rng.integers(1, 9)), int(rng.integers(1, 10)), 50
    factors = rng.normal(size=(g, q, q))
    covariances = factors @ factors.transpose(0, 2, 1) + 0.1 * np.eye(q)
    means = rng.normal(size=(g, q))
    weights = rng.dirichlet(np.ones(g))
    points = rng.normal(size=(n, q)) * 2.0
    expected = np.column_stack([
        np.log(weights[k])
        + multivariate_normal.logpdf(points, means[k], covariances[k])
        for k in range(g)
    ])
    got = _log_densities(points, weights, means, np.linalg.cholesky(covariances))
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("spread", [1e-6, 0.0])
def test_ridge_only_the_collapsed_component(spread):
    # component 2 sits on three near-collinear points: a tiny Cholesky pivot
    # (spread 1e-6), or none at all (spread 0, the factorization fails). The
    # reference spreads them out; components 0 and 1 give them zero weight
    rng = np.random.default_rng(11)
    blobs = np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + 5.0])
    points = np.vstack([blobs, [[10.0, 0.0], [10.5, spread], [11.0, 0.0]]])
    healthy = np.vstack([blobs, [[10.0, 0.0], [10.5, 1.0], [11.0, 0.0]]])
    resp = np.zeros((points.shape[0], 3))
    resp[np.arange(points.shape[0]), np.repeat([0, 1, 2], [30, 30, 3])] = 1.0
    scale = float(np.var(points))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an unneeded ridge would warn
        *_, plain, _, regularized = _m_step(healthy, resp, scale, False)
    assert not regularized
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        *_, covariances, chol, regularized = _m_step(points, resp, scale, False)
    assert regularized
    assert [w.category for w in caught] == [RuntimeWarning]
    assert np.array_equal(covariances[:2], plain[:2])
    ridge = covariances[2] - np.cov(points[60:].T, bias=True)
    assert np.allclose(ridge, np.diag(np.diag(ridge)), rtol=0, atol=1e-15)
    assert np.all(np.diag(ridge) > 1e-7 * scale)
    assert np.allclose(chol @ chol.transpose(0, 2, 1), covariances, rtol=1e-12, atol=0)


def test_em_temporaries_stay_below_one_component_stack():
    # with G q >= 8 (G + q), half of one (G, n, q) float64 array holds four
    # (n, G) and four (n, q) arrays; EM and assign need no more than that
    g, q, n = 16, 16, 2000
    points = np.random.default_rng(12).normal(size=(n, q))
    tracemalloc.start()
    try:
        assign(fit_gmm(points, g, seed=0, max_iter=3), points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * g * n * q * 8


@pytest.mark.parametrize("seed,n,q,g", [(14498, 14, 2, 3), (2, 38, 2, 2)])
def test_collapsed_component_warns_or_stays_monotone(seed, n, q, g):
    # a component collapsing onto two points has a near-zero covariance
    # eigenvalue that Cholesky accepts; unregularized, the trace drops by log 2.
    # Points come from the generator of test_property_em_loglik_monotone.
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, q)) * rng.uniform(0.5, 2.0) + rng.normal(size=q)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_gmm(points, g, seed=seed, max_iter=60)
    warned = any(issubclass(w.category, RuntimeWarning) for w in caught)
    assert model.regularized == warned
    trace = np.array(model.loglik_trace)
    monotone = np.all(np.diff(trace) >= -1e-7 * (1.0 + np.abs(trace[:-1])))
    assert warned or monotone


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(12, 40),
    q=st.integers(1, 3),
    g=st.integers(1, 3),
)
def test_property_em_loglik_monotone(seed, n, q, g):
    """Each EM sweep can only raise the training log likelihood."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, q)) * rng.uniform(0.5, 2.0) + rng.normal(size=q)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit_gmm(points, g, seed=seed, max_iter=60)
    if any(issubclass(w.category, RuntimeWarning) for w in caught):
        return  # regularized step; the pure-EM guarantee does not apply
    trace = np.array(model.loglik_trace)
    assert trace.size >= 1
    slack = 1e-7 * (1.0 + np.abs(trace[:-1]))
    assert np.all(np.diff(trace) >= -slack)
