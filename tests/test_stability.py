"""Tests for centroid-gap stability reports, consistency curves and the
residual-distribution check."""

import numpy as np
import pytest

from dynembed.embedders import Embedding, uase
from dynembed.linalg import procrustes
from dynembed.models import DsbmSpec, bundled_config_path, load_dsbm_config
from dynembed.mrdpg import (
    FiniteModel,
    discover_pairs,
    latent_structure,
    model_from_dsbm,
    noise_free_embedding,
)
from dynembed.stability import (
    DEFAULT_GAP_THRESHOLD,
    _exact_reference,
    clt_check,
    consistency_curve,
    eigenvalue_cov_gap,
    stability_report,
)


def fourblock_spec(n):
    base = load_dsbm_config(bundled_config_path("fourblock"))
    return DsbmSpec(block_matrices=base.block_matrices, n_nodes=n)


def three_group_embedding():
    # one snapshot, three two-point groups with hand-placed centroids
    pts = np.array([
        [0.0, 0.0], [0.2, 0.0],      # group 0, centroid (0.1, 0)
        [1.0, 0.0], [1.2, 0.0],      # group 1, centroid (1.1, 0)
        [0.0, 3.0], [0.0, 3.2],      # group 2, centroid (0, 3.1)
    ])
    memb = np.array([0, 0, 1, 1, 2, 2])
    return Embedding(points=[pts], method="test"), memb


def test_gap_ratio_hand_oracle():
    emb, memb = three_group_embedding()
    rep = stability_report(emb, memb, [((0, 0), (1, 0))], threshold=0.35)
    (pair,) = rep.pairs
    assert pair.centroid_gap == pytest.approx(1.0)
    # separation: nearer of the two distances to the group-2 centroid
    d_a = np.hypot(0.1 - 0.0, 0.0 - 3.1)
    d_b = np.hypot(1.1 - 0.0, 0.0 - 3.1)
    assert pair.separation == pytest.approx(min(d_a, d_b))
    assert pair.gap_ratio == pytest.approx(1.0 / min(d_a, d_b))
    assert pair.passed          # 0.322 < 0.35
    assert not pair.cov_skipped
    # both point clouds are two points 0.2 apart along x: identical covariances
    assert pair.cov_gap == pytest.approx(0.0, abs=1e-12)
    rep_tight = stability_report(emb, memb, [((0, 0), (1, 0))], threshold=0.3)
    assert not rep_tight.pairs[0].passed
    assert not rep_tight.passed


def test_longitudinal_pair_uses_each_end_own_time():
    pts0 = np.array([[0.0, 0.0], [0.0, 0.2], [4.0, 0.0], [4.0, 0.2]])
    pts1 = np.array([[0.3, 0.0], [0.3, 0.2], [9.0, 0.0], [9.0, 0.2]])
    memb = np.array([[0, 0, 1, 1], [0, 0, 1, 1]])
    emb = Embedding(points=[pts0, pts1], method="test")
    rep = stability_report(emb, memb, [((0, 0), (0, 1))])
    (pair,) = rep.pairs
    assert pair.centroid_gap == pytest.approx(0.3)
    # group 1 sits at x=4 at time 0 and x=9 at time 1; the nearer end decides
    assert pair.separation == pytest.approx(4.0)
    assert pair.gap_ratio == pytest.approx(0.3 / 4.0)
    assert pair.passed


def test_degree_scaled_pair_compared_after_scaling():
    pts = np.array([
        [2.0, 0.0], [2.4, 0.0],      # group 0 = 2 * group 1 exactly
        [1.0, 0.0], [1.2, 0.0],
        [0.0, 5.0], [0.0, 5.2],
    ])
    memb = np.array([0, 0, 1, 1, 2, 2])
    emb = Embedding(points=[pts], method="test")
    rep = stability_report(emb, memb, [((0, 0), (1, 0))], scales=[2.0])
    (pair,) = rep.pairs
    assert pair.scale == 2.0
    assert pair.centroid_gap == pytest.approx(0.0, abs=1e-12)
    assert pair.cov_gap == pytest.approx(0.0, abs=1e-12)
    assert pair.passed


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
def test_scale_must_be_positive_and_finite(scale):
    # a zero or nan scale makes the gap ratio nan, and a negative one reflects
    # the cloud through the origin; neither gives a ratio to report
    emb, memb = three_group_embedding()
    with pytest.raises(ValueError, match=r"pair 0:0/1:0: scale .* not positive and finite"):
        stability_report(emb, memb, [((0, 0), (1, 0))], scales=[scale])


def test_single_member_group_skips_covariance():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.2, 0.0], [0.0, 5.0], [0.0, 5.2]])
    memb = np.array([0, 1, 1, 2, 2])
    emb = Embedding(points=[pts], method="test")
    rep = stability_report(emb, memb, [((0, 0), (1, 0))])
    (pair,) = rep.pairs
    assert pair.cov_skipped
    assert np.isnan(pair.cov_gap)
    assert np.isfinite(pair.gap_ratio)


def test_report_checks_its_indices():
    emb, memb = three_group_embedding()
    for pair, match in [
        (((0, -1), (1, 0)), r"pair 0:-1/1:0: time -1 outside \[0, 1\)"),
        (((0, 0), (1, 5)), r"pair 0:0/1:5: time 5 outside \[0, 1\)"),
        (((0, 0), (7, 0)), r"pair 0:0/7:0: no nodes in group 7 at time 0"),
    ]:
        with pytest.raises(ValueError, match=match):
            stability_report(emb, memb, [pair])
    with pytest.raises(ValueError, match="1 scales for 2 pairs"):
        stability_report(emb, memb, [((0, 0), (1, 0)), ((1, 0), (2, 0))], scales=[1.0])
    for bad in (memb[:5], np.vstack([memb, memb]), memb[None, :, None]):
        with pytest.raises(ValueError, match="memberships of shape"):
            stability_report(emb, bad, [((0, 0), (1, 0))])


def test_separation_needs_a_reference_group():
    pts = np.array([[0.0, 0.0], [0.2, 0.0], [1.0, 0.0], [1.2, 0.0]])
    memb = np.array([0, 0, 1, 1])
    emb = Embedding(points=[pts], method="test")
    with pytest.raises(ValueError):
        stability_report(emb, memb, [((0, 0), (1, 0))])


def test_reference_group_on_top_of_pair_rejected():
    pts = np.array([
        [0.0, 0.0], [0.2, 0.0],
        [1.0, 0.0], [1.2, 0.0],
        [0.1, 0.0], [0.1, 0.0],      # centroid equals the group-0 centroid
    ])
    memb = np.array([0, 0, 1, 1, 2, 2])
    emb = Embedding(points=[pts], method="test")
    with pytest.raises(ValueError):
        stability_report(emb, memb, [((0, 0), (1, 0))])


def test_cov_gap_hand_oracle():
    a = np.diag([3.0, 1.0])
    b = np.diag([2.0, 2.0])
    # sorted spectra (1,3) vs (2,2): distance sqrt(2), scale sqrt(10)
    assert eigenvalue_cov_gap(a, b) == pytest.approx(np.sqrt(2.0 / 10.0))
    assert eigenvalue_cov_gap(a, 2 * a) == pytest.approx(0.5)
    assert eigenvalue_cov_gap(a, np.diag([3.0, 1.0, 0.0])) == pytest.approx(0.0)


def test_cov_gap_rotation_invariant_and_frobenius_lower_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.normal(size=(3, 3))
        a = m @ m.T
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        assert eigenvalue_cov_gap(a, q @ a @ q.T) < 1e-10
        m2 = rng.normal(size=(3, 3))
        b = m2 @ m2.T
        scale = max(np.linalg.norm(np.linalg.eigvalsh(a)),
                    np.linalg.norm(np.linalg.eigvalsh(b)))
        assert eigenvalue_cov_gap(a, b) <= np.linalg.norm(a - b) / scale + 1e-12


def test_discover_pairs_fourblock():
    model, _ = model_from_dsbm(fourblock_spec(40))
    pairs, scales = discover_pairs(model)
    assert set(pairs) == {((0, 1), (1, 1)), ((3, 0), (3, 1))}
    assert scales == [1.0, 1.0]


def test_discover_pairs_reports_proportional_scale():
    kernel = np.array([[0.1, 0.2], [0.2, 0.4]])   # row 1 = 2 * row 0
    model = FiniteModel(
        kernels=[kernel],
        sequences=np.array([[0], [1]]),
        probabilities=np.array([0.5, 0.5]),
    )
    pairs, scales = discover_pairs(model)
    assert pairs == [((0, 0), (1, 0))]
    assert scales[0] == pytest.approx(0.5)


def test_noise_free_fourblock_pairs_have_zero_gap():
    spec = fourblock_spec(200)
    model, node_seq = model_from_dsbm(spec)
    pairs, scales = discover_pairs(model)
    emb = uase(spec.gram_matrices(), 4, seed=0)
    rep = stability_report(emb, model.sequences[node_seq].T, pairs, scales=scales)
    assert len(rep.pairs) == 2
    for pair in rep.pairs:
        assert pair.gap_ratio < 1e-9
        assert pair.cov_gap < 1e-9
    assert rep.passed


def test_noise_free_pairs_follow_nodes_across_state_labels():
    # the first 30 nodes stay in community 1, which is state 0 at time 0 and
    # state 1 at time 1; the last 30 move from community 2 to community 0
    spec = DsbmSpec(
        block_matrices=[np.array([[0.5, 0.2, 0.1], [0.2, 0.3, 0.2], [0.1, 0.2, 0.3]])] * 2,
        n_nodes=60,
        memberships=np.vstack([np.repeat([1, 2], 30), np.repeat([1, 0], 30)]),
    )
    model, node_seq = model_from_dsbm(spec)
    pairs, scales = discover_pairs(model)
    assert pairs == [((0, 0), (1, 1))]
    emb = uase(spec.gram_matrices(), latent_structure(model).d, seed=0)
    rep = stability_report(emb, model.sequences[node_seq].T, pairs, scales=scales)
    assert rep.pairs[0].gap_ratio < 1e-9


def test_report_invariant_to_global_rotation():
    spec = fourblock_spec(150)
    from dynembed.models import sample_dsbm

    emb = uase(sample_dsbm(spec, seed=4), 4, seed=4)
    q = np.linalg.qr(np.random.default_rng(9).normal(size=(4, 4)))[0]
    rotated = Embedding(points=[p @ q for p in emb.points], method="uase",
                        left=emb.left @ q)
    pairs = [((3, 0), (3, 1)), ((0, 1), (1, 1))]
    rep = stability_report(emb, spec.memberships, pairs)
    rep_q = stability_report(rotated, spec.memberships, pairs)
    for p, pq in zip(rep.pairs, rep_q.pairs):
        assert pq.gap_ratio == pytest.approx(p.gap_ratio, abs=1e-9)
        assert pq.cov_gap == pytest.approx(p.cov_gap, abs=1e-7)


def test_discover_pairs_drops_perturbed_cross_time_pair():
    model, _ = model_from_dsbm(fourblock_spec(40))
    # perturb the shared row beyond tolerance
    k2 = model.kernels[1].copy()
    k2[3, 0] += 1e-3
    k2[0, 3] += 1e-3
    moved = FiniteModel(
        kernels=[model.kernels[0], k2],
        sequences=model.sequences,
        probabilities=model.probabilities,
    )
    pairs, _ = discover_pairs(moved)
    assert [p for p in pairs if p[0][1] != p[1][1]] == []


def test_consistency_curve_decreases():
    curve = consistency_curve(fourblock_spec, [200, 400], 4, reps=5, seed=11)
    assert curve.sizes == [200, 400]
    assert all(len(e) == 5 for e in curve.errors)
    assert curve.is_decreasing()


def test_consistency_curve_noise_free_is_round_off():
    curve = consistency_curve(fourblock_spec, [150], 4, reps=2, seed=0,
                              noise_free=True)
    assert np.all(curve.medians < 1e-9)


def test_consistency_curve_rejects_unordered_sizes():
    with pytest.raises(ValueError):
        consistency_curve(fourblock_spec, [400, 200], 4, reps=1)


def test_consistency_curve_rejects_d_off_structure_rank():
    with pytest.raises(ValueError, match="structure rank 4"):
        consistency_curve(fourblock_spec, [200], 3, reps=1)


def test_exact_reference_matches_noise_free_svd():
    # memberships that change over time, three degree weights and rho < 1:
    # every kind of state the finite-model summary of a block model builds
    n = 90
    z0 = np.repeat(np.arange(4), [23, 23, 22, 22])
    z1 = np.roll(z0, 10)
    spec = DsbmSpec(
        block_matrices=fourblock_spec(n).block_matrices,
        n_nodes=n,
        memberships=np.vstack([z0, z1]),
        degree_weights=np.tile([1.0, 1.5, 2.0], n // 3),
        rho=0.7,
    )
    d = latent_structure(model_from_dsbm(spec)[0]).d
    reference = _exact_reference(spec, d)[0]
    left, rights = noise_free_embedding(spec.gram_matrices(), d)
    oracle = np.vstack([left] + rights)
    fit = procrustes(reference, oracle)
    assert d == 6
    assert np.max(np.abs(reference @ fit.q - oracle)) < 1e-10


def test_halved_density_scales_error_by_sqrt2():
    # strong two-community model, all retained dimensions signal-dominated
    b = np.array([[0.35, 0.05], [0.05, 0.35]])

    def spec(n, rho):
        return DsbmSpec(block_matrices=[b, b], n_nodes=n, rho=rho)

    full = consistency_curve(lambda n: spec(n, 1.0), [600], 2, reps=10, seed=3)
    half = consistency_curve(lambda n: spec(n, 0.5), [600], 2, reps=10, seed=3)
    ratio = half.medians[0] / full.medians[0]
    assert np.sqrt(2.0) * 0.75 < ratio < np.sqrt(2.0) * 1.25


def test_clt_constant_kernel_matches_closed_form():
    spec = DsbmSpec(block_matrices=[np.array([[0.3]]), np.array([[0.3]])],
                    n_nodes=400)
    rep = clt_check(spec, 1, 0, 0, reps=5, seed=5)
    assert rep.n_samples == 400 * 5
    # flat kernel p over two snapshots: asymptotic variance (1 - p) / sqrt(2)
    assert rep.cov_theory.shape == (1, 1)
    assert rep.cov_theory[0, 0] == pytest.approx(0.7 / np.sqrt(2.0))
    assert rep.cov_gap < 0.15
    assert rep.mean_ratio < 3.0
    assert np.all(np.abs(rep.skewness) < 0.3)
    assert np.all(np.abs(rep.excess_kurtosis) < 0.6)


def test_clt_moments_match_scipy(monkeypatch):
    # the pooled residuals are what clt_check passes to np.cov last
    from scipy import stats

    pooled, cov = [], np.cov
    monkeypatch.setattr(np, "cov", lambda m, *a, **k: pooled.append(m.T) or cov(m, *a, **k))
    rep = clt_check(fourblock_spec(200), 4, 1, 0, reps=2, seed=3)
    resid = pooled[-1]
    assert resid.shape == (rep.n_samples, 4)
    np.testing.assert_allclose(rep.skewness, stats.skew(resid, axis=0), rtol=1e-12)
    np.testing.assert_allclose(rep.excess_kurtosis, stats.kurtosis(resid, axis=0), rtol=1e-12)


def test_clt_merged_communities_share_error_distribution():
    spec = fourblock_spec(500)
    r0 = clt_check(spec, 4, 1, 0, reps=3, seed=2)
    r1 = clt_check(spec, 4, 1, 1, reps=3, seed=2)
    assert np.allclose(r0.cov_theory, r1.cov_theory)
    assert eigenvalue_cov_gap(r0.cov_empirical, r1.cov_empirical) < 0.2
    assert r0.mean_ratio < 4.0 and r1.mean_ratio < 4.0


def test_clt_rejects_bad_inputs():
    spec = DsbmSpec(block_matrices=[np.array([[0.3]]), np.array([[0.3]])],
                    n_nodes=50)
    with pytest.raises(ValueError):
        clt_check(spec, 2, 0, 0, reps=1)
    with pytest.raises(ValueError):
        clt_check(spec, 1, 0, 3, reps=1)


def test_default_threshold_between_pilot_populations():
    assert 0.27 < DEFAULT_GAP_THRESHOLD < 0.38
