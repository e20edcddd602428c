import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from dynembed import embedders
from dynembed.embedders import (
    history_weights,
    independent_ase,
    omnibus_embed,
    omnibus_matrix,
    select_dimension,
    separate_embed,
    uase,
)
from dynembed.linalg import procrustes
from dynembed.models import DsbmSpec, bundled_config_path, load_dsbm_config, sample_dsbm
from dynembed.mrdpg import noise_free_embedding
from dynembed.netseries import GraphSeries, ingest_edge_list
from helpers import permute


@pytest.fixture(scope="module")
def fourblock_series():
    cfg = load_dsbm_config(bundled_config_path("fourblock"))
    spec = DsbmSpec(block_matrices=cfg.block_matrices, n_nodes=200)
    return spec, sample_dsbm(spec, seed=3)


def random_series(seed, n=15, t=3, p=0.35):
    rng = np.random.default_rng(seed)
    snaps = []
    for _ in range(t):
        upper = np.triu(rng.random((n, n)) < p, k=1).astype(float)
        snaps.append(sp.csr_matrix(upper + upper.T))
    return GraphSeries(snapshots=snaps)


def sign_aligned(a, b):
    # a's columns flipped to point the way of b's
    return a * np.where(np.sum(a * b, axis=0) < 0, -1.0, 1.0)


EMBEDDERS = {
    "uase": uase,
    "omnibus": omnibus_embed,
    "independent": independent_ase,
    "separate": separate_embed,
}


class TestSeriesAndMatrixLists:
    # a GraphSeries reaches the eigensolver through products over its
    # upper-triangle patterns, a list through CSR matrices; the two routes
    # differ only in summation order

    # not n = 2: there every nonempty snapshot has eigenvalues +1 and -1, a
    # tie in magnitude that leaves the singular vectors' basis undefined
    @pytest.mark.parametrize("n", [1, 30])
    @pytest.mark.parametrize("method", [*EMBEDDERS, "omnibus matrix-free"])
    def test_series_equals_its_snapshot_list(self, method, n, monkeypatch):
        if method == "omnibus matrix-free":
            monkeypatch.setattr(embedders, "DENSE_OMNIBUS_MAX_ENTRIES", 0)
        embed = EMBEDDERS[method.split()[0]]
        rng = np.random.default_rng(n)
        snaps = []
        for t in range(4):  # snapshot 2 is empty
            upper = np.triu(rng.random((n, n)) < (0.3 if t != 2 else 0.0), k=1)
            snaps.append(sp.csr_matrix((upper + upper.T).astype(float)))
        series = GraphSeries(snapshots=snaps)
        d = min(3, n)
        got, want = embed(series, d, seed=5), embed(series.snapshots, d, seed=5)
        assert got.signatures == want.signatures
        for g, w in zip(got.points, want.points):
            np.testing.assert_allclose(sign_aligned(g, w), w, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("method", EMBEDDERS)
    def test_weighted_dense_matrices_accepted(self, method, fourblock_series):
        # oracle: LAPACK on the dense matrix each method decomposes
        spec, _ = fourblock_series
        grams = spec.gram_matrices()
        # the second matrix has rank 3, so a fourth direction is arbitrary
        n, d = grams[0].shape[0], 3
        got = EMBEDDERS[method](grams, d, seed=1)
        assert got.dims == [d, d]
        if method == "uase":
            _, s, vt = np.linalg.svd(np.hstack(grams))
            right = vt[:d].T * np.sqrt(s[:d])
            want = [right[t * n : (t + 1) * n] for t in range(2)]
        else:
            if method == "omnibus":
                decomposed = [np.block([[(a + b) / 2 for b in grams] for a in grams])]
            elif method == "independent":
                decomposed = grams
            else:
                decomposed = [sum(w * g for w, g in zip(history_weights(t, "exponential"), grams))
                              for t in range(2)]
            want, signatures = [], []
            for m in decomposed:
                lam, vec = np.linalg.eigh(m)
                top = np.argsort(-np.abs(lam))[:d]
                want.append(vec[:, top] * np.sqrt(np.abs(lam[top])))
                signatures.append((int(np.sum(lam[top] > 0)), int(np.sum(lam[top] < 0))))
            assert got.signatures == signatures
            if method == "omnibus":
                want = [want[0][t * n : (t + 1) * n] for t in range(2)]
        for g, w in zip(got.points, want):
            np.testing.assert_allclose(sign_aligned(g, w), w, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("method", EMBEDDERS)
    def test_nested_lists_accepted_and_non_finite_rejected(self, method):
        # the paw graph: a triangle 0-1-2 with node 3 hanging from node 2;
        # its eigenvalues differ in magnitude
        paw = [[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]]
        got = EMBEDDERS[method]([paw, paw], 2, seed=0)
        want = EMBEDDERS[method]([np.array(paw, dtype=float)] * 2, 2, seed=0)
        for g, w in zip(got.points, want.points):
            np.testing.assert_array_equal(g, w)
        broken = np.array(paw, dtype=float)
        broken[0, 3] = broken[3, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            EMBEDDERS[method]([paw, broken], 2, seed=0)


    @pytest.mark.parametrize("method", EMBEDDERS)
    def test_matrices_of_other_sizes_rejected(self, method):
        # a list is checked as GraphSeries checks a series: every matrix
        # n x n for the first one's n
        path = np.ones((4, 4)) - np.eye(4)
        with pytest.raises(ValueError, match="matrix 1 is 5 x 5, not 4 x 4"):
            EMBEDDERS[method]([path, np.ones((5, 5)) - np.eye(5)], 2, seed=0)
        with pytest.raises(ValueError, match="matrix 0 is 4 x 3, not 4 x 4"):
            EMBEDDERS[method]([np.ones((4, 3)), path], 2, seed=0)

    def test_non_symmetric_matrix_embeds_as_its_symmetric_part(self):
        # a list matrix M is taken as W = M / 2 with A = W + W^T
        m = np.random.default_rng(4).random((30, 30))
        got = independent_ase([m], 3, seed=0)
        want = independent_ase([(m + m.T) / 2], 3, seed=0)
        assert got.signatures == want.signatures
        np.testing.assert_allclose(sign_aligned(got.points[0], want.points[0]),
                                   want.points[0], rtol=0, atol=1e-12)


class TestUase:
    def test_shapes_and_shared_scale(self, fourblock_series):
        _, series = fourblock_series
        emb = uase(series, 4)
        assert emb.left.shape == (200, 4)
        assert [p.shape for p in emb.points] == [(200, 4), (200, 4)]
        # left and right factors carry the same singular value scaling:
        # their Gram matrices match
        right = np.vstack(emb.points)
        gram_left = emb.left.T @ emb.left
        np.testing.assert_allclose(
            gram_left, right.T @ right, atol=1e-8 * np.max(gram_left)
        )

    def test_single_snapshot_equals_independent(self):
        series = random_series(1, t=1)
        joint = uase(series, 3)
        solo = independent_ase(series, 3)
        np.testing.assert_array_equal(joint.points[0], solo.points[0])

    def test_low_rank_optimality(self):
        # oracle: the truncation error must match the optimal tail energy
        series = random_series(7, n=20, t=2)
        d = 5
        emb = uase(series, d)
        unfolded = np.hstack([a.toarray() for a in series.snapshots])
        s_full = np.linalg.svd(unfolded, compute_uv=False)
        recon = emb.left @ np.vstack(emb.points).T
        err = np.linalg.norm(unfolded - recon)
        assert abs(err - np.linalg.norm(s_full[d:])) < 1e-8

    def test_matches_noise_free_route_on_expected_matrices(self, fourblock_series):
        spec, _ = fourblock_series
        grams = spec.gram_matrices()
        emb = uase([sp.csr_matrix(g) for g in grams], 4)
        left_nf, rights_nf = noise_free_embedding(grams, d=4)
        fit = procrustes(
            np.vstack([emb.left] + emb.points),
            np.vstack([left_nf] + rights_nf),
        )
        assert fit.residual < 1e-8

    def test_seeds_agree_up_to_rotation(self):
        spec = DsbmSpec(
            block_matrices=[np.array([[0.4, 0.1], [0.1, 0.3]])], n_nodes=300
        )
        series = sample_dsbm(spec, seed=9)
        stacked = []
        for seed in (0, 1):
            emb = uase(series, 2, seed=seed)
            # the seed picks the Lanczos start vector
            from dynembed import linalg

            res = linalg.truncated_svd(series.unfold(), 2, seed=seed)
            stacked.append(res.v * np.sqrt(res.s))
        fit = procrustes(stacked[0], stacked[1])
        assert fit.residual < 1e-4 * np.linalg.norm(stacked[1])


class TestOmnibus:
    def test_matrix_layout(self):
        series = random_series(11, n=30, t=3)
        a = [x.toarray() for x in series.snapshots]
        w = np.random.default_rng(0).random((3, 30, 30))
        weighted = [x * (v + v.T) for x, v in zip(a, w)]
        for snaps, dense in ((series, a), (weighted, weighted)):
            expected = np.block([[0.5 * dense[s] + 0.5 * dense[t] for t in range(3)]
                                 for s in range(3)])
            np.testing.assert_array_equal(omnibus_matrix(snaps), expected)

    def test_against_dense_eigendecomposition_oracle(self, fourblock_series):
        spec, small = fourblock_series
        # n = 200 and a side-1200 omnibus matrix (n = 600, T = 2)
        large = sample_dsbm(DsbmSpec(block_matrices=spec.block_matrices, n_nodes=600), seed=3)
        for series in (small, large):
            emb = omnibus_embed(series, 7)
            m = omnibus_matrix(series)
            w, q = np.linalg.eigh(m)
            order = np.argsort(-np.abs(w))[:7]
            oracle = q[:, order] * np.sqrt(np.abs(w[order]))
            stacked = np.vstack(emb.points)
            # compare the induced indefinite inner product structure, which is
            # basis-sign free
            signs = np.sign(w[order])
            np.testing.assert_allclose(
                stacked @ np.diag(signs) @ stacked.T,
                oracle @ np.diag(signs) @ oracle.T,
                atol=1e-6,
            )

    def test_signature_on_expected_matrices(self, fourblock_series):
        spec, _ = fourblock_series
        grams = [sp.csr_matrix(g) for g in spec.gram_matrices()]
        emb = omnibus_embed(grams, 7)
        assert emb.signatures == [(4, 3)]

    def test_matrix_free_matches_dense(self, fourblock_series, monkeypatch):
        spec, _ = fourblock_series
        grams = [sp.csr_matrix(g) for g in spec.gram_matrices()]
        dense = omnibus_embed(grams, 7, seed=0)
        monkeypatch.setattr(embedders, "DENSE_OMNIBUS_MAX_ENTRIES", 1000)
        free = omnibus_embed(grams, 7, seed=0)
        fit = procrustes(np.vstack(free.points), np.vstack(dense.points))
        assert fit.residual < 1e-6 * np.linalg.norm(np.vstack(dense.points))

    @pytest.mark.parametrize("budget", [None, 1000])
    def test_sign_convention(self, budget, monkeypatch):
        # largest-magnitude entry of each stacked column positive, on the
        # materialized and the matrix-free path alike
        if budget is not None:
            monkeypatch.setattr(embedders, "DENSE_OMNIBUS_MAX_ENTRIES", budget)
        stacked = np.vstack(omnibus_embed(random_series(31, n=20, t=3), 5, seed=2).points)
        rows = np.argmax(np.abs(stacked), axis=0)
        assert np.all(stacked[rows, np.arange(5)] > 0)

    def test_matrix_free_product_matches_matrix_with_an_empty_snapshot(self):
        # oracle: the dense omnibus matrix times the same vector
        snaps = random_series(37, n=12, t=3).snapshots
        series = GraphSeries(snapshots=[snaps[0], sp.csr_matrix((12, 12)), snaps[2]])
        patterns, n = embedders.as_patterns(series)
        x = np.random.default_rng(5).standard_normal(36)
        np.testing.assert_allclose(embedders._omnibus_matvec(patterns, n)(x),
                                   omnibus_matrix(series) @ x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("slack, dense", [(0, True), (-1, False)])
    def test_dense_up_to_the_threshold(self, slack, dense, monkeypatch):
        # side 60 (n = 20, T = 3): the matrix is materialized at exactly
        # side^2 entries and not one entry below
        calls = []
        monkeypatch.setattr(embedders, "DENSE_OMNIBUS_MAX_ENTRIES", 60 * 60 + slack)
        fill = embedders.omnibus_matrix
        monkeypatch.setattr(embedders, "omnibus_matrix",
                            lambda patterns: calls.append(1) or fill(patterns))
        emb = omnibus_embed(random_series(31, n=20, t=3), 5, seed=2)
        assert calls == ([1] if dense else [])
        assert emb.route == ("dense" if dense else "matrix-free")


class TestIndependent:
    def test_per_snapshot_dims(self, fourblock_series):
        _, series = fourblock_series
        emb = independent_ase(series, [4, 3])
        assert emb.dims == [4, 3]
        assert emb.method == "independent"

    def test_reconstruction_with_signature(self):
        # low-rank expected matrix with a known indefinite spectrum; the
        # per-component sign is recovered through the Rayleigh quotient
        cfg = load_dsbm_config(bundled_config_path("fourblock"))
        spec = DsbmSpec(block_matrices=[cfg.block_matrices[0]], n_nodes=20)
        a = spec.gram_matrices()[0]
        emb = independent_ase([sp.csr_matrix(a)], 4)
        # eigenvalues of the underlying block matrix: three positive, one
        # negative (checked against a direct eigendecomposition)
        assert emb.signatures == [(3, 1)]
        p = emb.points[0]
        signs = np.array([np.sign(p[:, j] @ a @ p[:, j]) for j in range(4)])
        np.testing.assert_allclose(p @ np.diag(signs) @ p.T, a, atol=1e-8)

    def test_empty_snapshot_embeds_to_zeros(self, tmp_path):
        # the middle 10-second window holds no events: an all-zero snapshot
        events = tmp_path / "events.txt"
        events.write_text("1 a b\n2 b c\n3 a c\n4 c d\n"
                          "25 a d\n26 b d\n27 c d\n28 a b\n")
        series = ingest_edge_list(events, window_seconds=10)
        assert [a.nnz for a in series.snapshots] == [8, 0, 8]
        emb = independent_ase(series, 2)
        np.testing.assert_array_equal(emb.points[1], np.zeros((4, 2)))
        assert emb.signatures[1] == (2, 0)
        assert np.all(np.linalg.norm(emb.points[0], axis=0) > 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_edge_embeds_to_its_eigenvectors(self, seed):
        # the edge's eigenvalues +1 and -1 tie in magnitude; at d = 2 = n the
        # points are still its eigenvectors (1, 1)/sqrt 2 and (1, -1)/sqrt 2,
        # up to sign, and not some other basis of the plane
        edge = np.array([[0.0, 1.0], [1.0, 0.0]])
        emb = independent_ase([edge], 2, seed=seed)
        assert emb.signatures == [(1, 1)]
        p = emb.points[0]
        np.testing.assert_allclose(np.abs(p.T @ edge @ p), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.abs(p), np.sqrt(0.5), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_tied_opposite_eigenvalues_counted_once_each(self, seed):
        # one edge has eigenvalues +1 and -1, the 3-node path +-sqrt 2 and 0;
        # at d = 2 both members of the tie are kept, one of each sign, on
        # matrices of every size
        edge = [[0, 1], [1, 0]]
        path = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        k57 = np.zeros((12, 12))
        k57[:5, 5:] = 1
        long_path = np.diag(np.ones(19), 1)
        for graphs in ([edge], [path], [k57 + k57.T],
                       GraphSeries(snapshots=[long_path + long_path.T])):
            assert independent_ase(graphs, 2, seed=seed).signatures == [(1, 1)]

    def test_dims_length_mismatch(self):
        series = random_series(15, t=2)
        with pytest.raises(ValueError):
            independent_ase(series, [3])

    def test_equals_one_snapshot_window_smoothing(self, fourblock_series):
        _, series = fourblock_series
        solo = independent_ase(series, [4, 3])
        window = separate_embed(series, [4, 3], scheme="window", window=1)
        for a, b in zip(solo.points, window.points):
            np.testing.assert_array_equal(a, b)
        assert solo.signatures == window.signatures


class TestSeparate:
    def test_history_weights_constant(self):
        np.testing.assert_allclose(history_weights(2, "constant"), [1 / 3] * 3)

    def test_history_weights_exponential(self):
        # raw weights (0.25, 0.5, 1) for lags (2, 1, 0), normalized by 1.75
        w = history_weights(2, "exponential", forgetting=0.5)
        np.testing.assert_allclose(w, np.array([0.25, 0.5, 1.0]) / 1.75)

    def test_history_weights_window_with_boundary(self):
        np.testing.assert_allclose(history_weights(4, "window", window=2), [0, 0, 0, 0.5, 0.5])
        # only one snapshot available: full weight on it
        np.testing.assert_allclose(history_weights(0, "window", window=3), [1.0])

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            history_weights(1, "bogus")

    def test_blend_hand_computed(self):
        # triangle then single edge; the flat average halves the edges seen
        # only once (the triangle is chosen over a path to avoid the tied
        # eigenvalue magnitudes of bipartite graphs)
        a0 = np.zeros((3, 3))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            a0[i, j] = a0[j, i] = 1.0
        a1 = np.zeros((3, 3))
        a1[0, 1] = a1[1, 0] = 1.0
        blend = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.5, 0.5, 0.0]])
        series = GraphSeries(snapshots=[sp.csr_matrix(a0), sp.csr_matrix(a1)])
        emb = separate_embed(series, 3, scheme="constant")
        p = emb.points[1]
        signs = np.array([np.sign(p[:, j] @ blend @ p[:, j]) for j in range(3)])
        np.testing.assert_allclose(p @ np.diag(signs) @ p.T, blend, atol=1e-10)

    def test_first_snapshot_unsmoothed(self):
        series = random_series(17, t=3)
        sep = separate_embed(series, 4, scheme="exponential", forgetting=0.3)
        solo = independent_ase(series, 4)
        np.testing.assert_allclose(sep.points[0], solo.points[0], atol=1e-12)


class TestSelectDimension:
    def test_recovers_clear_elbow(self):
        s = np.concatenate([np.array([10.0, 9.5, 9.0, 8.8]), 0.5 * np.ones(30)])
        d, curve = select_dimension(s)
        assert d == 4
        assert curve.shape == (33,)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            select_dimension(np.array([1.0]))


def series_strategy(min_n=6, max_n=10, max_t=3):
    return st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=min_n, max_value=max_n),
        st.integers(min_value=1, max_value=max_t),
    )


@settings(max_examples=100, deadline=None)
@given(series_strategy(), st.integers(min_value=0, max_value=10_000))
def test_property_permutation_equivariance(params, perm_seed):
    seed, n, t = params
    series = random_series(seed, n=n, t=t, p=0.5)
    unfolded = np.hstack([a.toarray() for a in series.snapshots])
    s_full = np.linalg.svd(unfolded, compute_uv=False)
    d = 2
    # skip spectrally degenerate draws: tiny gaps make the truncated basis
    # ill conditioned and the comparison meaningless
    assume(s_full[d - 1] > 1e-3)
    # every consecutive gap among the kept components must be clear, or the
    # component order itself is permutation dependent
    for j in range(d):
        assume(s_full[j] - s_full[j + 1] > 1e-3 * s_full[0])
    emb = uase(series, d)
    for j in range(d):
        col = np.abs(emb.left[:, j]) / np.sqrt(emb.left[:, j] @ emb.left[:, j])
        top2 = np.sort(col)[-2:]
        assume(top2[1] - top2[0] > 1e-3)

    perm = np.random.default_rng(perm_seed).permutation(n)
    emb_p = uase(permute(series, perm), d)
    for t_idx in range(t):
        np.testing.assert_allclose(
            emb_p.points[t_idx], emb.points[t_idx][perm], atol=1e-6
        )
    np.testing.assert_allclose(emb_p.left, emb.left[perm], atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(series_strategy(), st.integers(min_value=0, max_value=5))
def test_property_isolated_node_maps_to_origin(params, node_pick):
    # a node with no edges in a snapshot contributes a zero column to the
    # unfolded matrix, so its point in that snapshot is the origin
    seed, n, t = params
    series = random_series(seed, n=n, t=t, p=0.5)
    node = node_pick % n
    snaps = [a.toarray() for a in series.snapshots]
    snaps[-1][node, :] = 0.0
    snaps[-1][:, node] = 0.0
    series = GraphSeries(snapshots=[sp.csr_matrix(a) for a in snaps])
    unfolded = np.hstack([a.toarray() for a in series.snapshots])
    s_full = np.linalg.svd(unfolded, compute_uv=False)
    d = 2
    assume(s_full[d - 1] > 1e-3)
    emb = uase(series, d)
    scale = np.sqrt(emb.points[-1].shape[0]) * max(np.linalg.norm(emb.points[-1]), 1.0)
    assert np.linalg.norm(emb.points[-1][node]) < 1e-8 * scale
