import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import LinearOperator

from dynembed.embedders import independent_ase, omnibus_embed, uase
from dynembed.netseries import SymmetricPattern, Unfolding, as_patterns

from dynembed.linalg import (
    Pcg64,
    ProcrustesResult,
    SymmetricOperator,
    _lanczos,
    _uniforms,
    orient_columns,
    procrustes,
    seed_words,
    spherical_coordinates,
    truncated_svd,
)


def reference_svd(m, d):
    # oracle: full LAPACK decomposition, truncated after the fact
    u, s, vt = np.linalg.svd(np.asarray(m, dtype=float), full_matrices=False)
    return u[:, :d], s[:d], vt[:d].T


class TestTruncatedSvd:
    def test_matches_full_svd_singular_values(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((40, 25))
        res = truncated_svd(m, 10)
        _, s_ref, _ = reference_svd(m, 10)
        np.testing.assert_allclose(res.s, s_ref, rtol=1e-10)

    def test_reconstruction_dense(self):
        rng = np.random.default_rng(3)
        # exactly rank 5, so the rank-5 truncation reproduces it
        a = rng.standard_normal((30, 5)) @ rng.standard_normal((5, 20))
        res = truncated_svd(a, 5)
        recon = res.u @ np.diag(res.s) @ res.v.T
        assert np.linalg.norm(recon - a) < 1e-8 * max(1.0, np.linalg.norm(a))

    def test_orthonormality(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((50, 35))
        res = truncated_svd(m, 8)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(8), atol=1e-10)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(8), atol=1e-10)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((20, 12))
        res = truncated_svd(m, 6)
        for j in range(6):
            col = res.u[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_sign_convention_is_deterministic_under_column_flips(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((25, 14))
        res1 = truncated_svd(m, 5)
        res2 = truncated_svd(m.copy(), 5)
        np.testing.assert_array_equal(res1.u, res2.u)
        np.testing.assert_array_equal(res1.v, res2.v)

    def test_randomized_path_close_to_exact_on_low_rank(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((300, 8)) @ rng.standard_normal((8, 200))
        exact = truncated_svd(a, 8)
        approx = truncated_svd(a, 8, seed=1)
        np.testing.assert_allclose(approx.s, exact.s, rtol=1e-6)
        recon = approx.u @ np.diag(approx.s) @ approx.v.T
        assert np.linalg.norm(recon - a) < 1e-6 * np.linalg.norm(a)

    def test_randomized_path_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((120, 90))
        r1 = truncated_svd(m, 6, seed=42)
        r2 = truncated_svd(m, 6, seed=42)
        np.testing.assert_array_equal(r1.u, r2.u)
        np.testing.assert_array_equal(r1.s, r2.s)
        np.testing.assert_array_equal(r1.v, r2.v)

    def test_sparse_noise_bulk_matches_gram_eigenvalues(self):
        # a flat 0/1 noise bulk, where a fixed number of power steps falls
        # short; oracle: eigenvalues of A A^T from a full symmetric solver
        rng = np.random.default_rng(53)
        a = sp.random(1000, 4001, density=0.05, format="csr", random_state=rng)
        a.data[:] = 1.0
        res = truncated_svd(a, 20, seed=0)
        ref = np.sqrt(np.linalg.eigvalsh((a @ a.T).toarray())[::-1][:20])
        np.testing.assert_allclose(res.s, ref, rtol=1e-6)

    def test_sparse_input(self):
        rng = np.random.default_rng(13)
        dense = (rng.random((60, 40)) < 0.1).astype(float)
        res_sparse = truncated_svd(sp.csr_matrix(dense), 5)
        res_dense = truncated_svd(dense, 5)
        np.testing.assert_allclose(res_sparse.s, res_dense.s, rtol=1e-10)

    @pytest.mark.parametrize("d_below_side", [1, 0])
    @pytest.mark.parametrize("shape", [(6, 40), (40, 6)])
    def test_operator_at_full_rank_runs_lanczos(self, shape, d_below_side):
        # d = smaller side - 1 and d = smaller side take the Lanczos route
        # like any other d; oracle: LAPACK's SVD of the dense matrix
        dense = np.random.default_rng(17).standard_normal(shape)
        op = LinearOperator(shape, matvec=lambda x: dense @ x, rmatvec=lambda x: dense.T @ x,
                            dtype=float)
        d = min(shape) - d_below_side
        got = truncated_svd(op, d)
        u, s, v = reference_svd(dense, d)
        u, v = orient_columns(u, v)
        assert got.gram_products > 0
        for part, want in (("u", u), ("s", s), ("v", v)):
            np.testing.assert_allclose(getattr(got, part), want, atol=1e-12)

    @pytest.mark.parametrize("m, value", [(np.zeros((6, 9)), 0.0), (2.0 * np.eye(30, 40), 2.0)])
    def test_zero_and_tied_spectra(self, m, value):
        # no LAPACK SVD orders or completes the factors: a zero matrix's v
        # comes from the seed's draws, and tied values stay non-increasing
        res = truncated_svd(m, 5, seed=4)
        assert np.all(np.diff(res.s) <= 0)
        np.testing.assert_allclose(res.s, value, rtol=0, atol=1e-14)
        for factor in (res.u, res.v):
            np.testing.assert_allclose(factor.T @ factor, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(m @ res.v, res.u * res.s, atol=1e-12)
        assert truncated_svd(m, 5, seed=4).v.tobytes() == res.v.tobytes()

    @pytest.mark.parametrize("seed", [0, 5])
    def test_round_off_null_rows_are_filled(self, seed):
        # d exceeds the rank: the null rows of s_j v_j hold round-off, not
        # zeros, and Gram-Schmidt once divided them 0 by 0 into NaN columns
        m = np.diag([3.0, 2.0, 0.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = truncated_svd(m, 4, seed=seed)
            again = truncated_svd(m, 4, seed=seed)
        for factor in (res.u, res.s, res.v):
            assert np.all(np.isfinite(factor))
        for factor in (res.u, res.v):
            np.testing.assert_allclose(factor.T @ factor, np.eye(4), rtol=0, atol=1e-12)
        np.testing.assert_allclose(m @ res.v, res.u * res.s, rtol=0, atol=1e-12)
        for part in ("u", "s", "v"):
            assert getattr(again, part).tobytes() == getattr(res, part).tobytes()

    def test_rejects_bad_rank(self):
        m = np.eye(4)
        with pytest.raises(ValueError):
            truncated_svd(m, 0)
        with pytest.raises(ValueError):
            truncated_svd(m, 5)

    def test_rejects_nonfinite(self):
        m = np.eye(4)
        m[1, 2] = np.nan
        with pytest.raises(ValueError):
            truncated_svd(m, 2)
        # an operator shows no entries; Lanczos refuses what it returns
        op = SymmetricOperator(lambda x: m @ x, 4)
        with pytest.raises(ValueError, match="non-finite"):
            truncated_svd(op, 1)

    def test_rejects_operator_without_transpose(self):
        class ShapeAndProduct:  # .shape and @, no .T
            shape = (4, 4)

            def __matmul__(self, x):
                return x

        for op in (SymmetricPattern.from_upper([1, 5], 4), ShapeAndProduct()):
            with pytest.raises(ValueError, match=r"\.shape, @ and \.T.*SymmetricOperator"):
                truncated_svd(op, 1)
        # dense arrays and nested lists are still converted
        for m in (np.diag([3.0, 1.0]), [[3, 0], [0, 1]]):
            assert truncated_svd(m, 1).s.tolist() == [3.0]


def orthonormal_columns(rng, side, count):
    q, _ = np.linalg.qr(rng.standard_normal((side, count)))
    return q


class TestLanczos:
    def test_rank_two_operator_at_four_dimensions(self):
        # the Krylov space is invariant after three steps; the run goes on
        # from fresh directions, which the operator maps to zero
        rng = np.random.default_rng(61)
        q = orthonormal_columns(rng, 30, 2)
        m = q @ np.diag([3.0, -2.0]) @ q.T
        values, vectors, products = _lanczos(lambda x: m @ x, 30, 4, rng.standard_normal(30))
        np.testing.assert_allclose(values[:2], [3.0, -2.0], rtol=1e-12)
        np.testing.assert_allclose(values[2:], 0.0, atol=1e-12)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(m @ vectors[:, :2], vectors[:, :2] * values[:2], atol=1e-12)
        assert products < 30
        for res in (truncated_svd(m, 4, seed=3),
                    truncated_svd(SymmetricOperator(lambda x: m @ x, 30), 4, seed=3)):
            np.testing.assert_allclose(res.s, [3.0, 2.0, 0.0, 0.0], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(res.u.T @ res.u, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(res.v.T @ res.v, np.eye(4), atol=1e-12)

    def test_tied_opposite_eigenvalues_match_eigh(self):
        # oracle: LAPACK's eigh of the same dense matrix; +5 and -5 tie in
        # magnitude and both are among the top four
        rng = np.random.default_rng(67)
        q = orthonormal_columns(rng, 40, 40)
        spectrum = np.concatenate([[5.0, -5.0, 3.5, -2.5], rng.uniform(-1.0, 1.0, 36)])
        m = q @ np.diag(spectrum) @ q.T
        m = (m + m.T) / 2
        values, vectors, _ = _lanczos(lambda x: m @ x, 40, 4, rng.standard_normal(40))
        exact = np.linalg.eigvalsh(m)
        want = exact[np.argsort(-np.abs(exact), kind="stable")[:4]]
        np.testing.assert_allclose(np.sort(values), np.sort(want), rtol=1e-12)
        np.testing.assert_allclose(m @ vectors, vectors * values, atol=1e-12)
        res = truncated_svd(SymmetricOperator(lambda x: m @ x, 40), 4)
        np.testing.assert_allclose(res.s, np.abs(want), rtol=1e-12)
        assert np.sum(np.sum(res.u * res.v, axis=0) < 0) == 2

    def test_thick_restarts_keep_the_top_eigenpairs(self):
        # a Wigner matrix has no gap at its edges, so the 2d + 32 = 52 vector
        # basis restarts many times; oracle: eigh of the same matrix
        rng = np.random.default_rng(73)
        m = rng.standard_normal((300, 300))
        m = (m + m.T) / np.sqrt(600)
        values, vectors, products = _lanczos(lambda x: m @ x, 300, 10, rng.standard_normal(300))
        exact = np.linalg.eigvalsh(m)
        want = exact[np.argsort(-np.abs(exact))[:10]]
        assert products > 52
        np.testing.assert_allclose(values, want, rtol=1e-12)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(10), atol=1e-12)
        np.testing.assert_allclose(m @ vectors, vectors * values, atol=1e-12)

    @pytest.mark.parametrize("d_below_side", [1, 0])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_pattern_unfolding_at_full_rank(self, transpose, d_below_side):
        # d = n - 1 and d = n on the n x 3n unfolding and its transpose;
        # oracle: LAPACK's SVD of the concatenated dense snapshots
        rng = np.random.default_rng(71)
        dense = [np.triu(rng.random((9, 9)) < 0.4, 1).astype(float) for _ in range(3)]
        dense = [a + a.T for a in dense]
        op = Unfolding(as_patterns(dense))
        full = np.hstack(dense)
        if transpose:
            op, full = op.T, full.T
        d = 9 - d_below_side
        got = truncated_svd(op, d)
        u, s, v = reference_svd(full, d)
        assert got.gram_products > 0
        np.testing.assert_allclose(got.s, s, atol=1e-12)
        np.testing.assert_allclose((got.u * got.s) @ got.v.T, (u * s) @ v.T, atol=1e-12)
        np.testing.assert_allclose(got.u.T @ got.u, np.eye(d), atol=1e-12)
        np.testing.assert_allclose(got.v.T @ got.v, np.eye(d), atol=1e-12)


class TestUniforms:
    def test_reference_words(self):
        # oracle: the published first SplitMix64 outputs for seed 1234567; a
        # uniform keeps a word's top 53 bits, exactly
        words = np.array([6457827717110365317, 3203168211198807973, 9817491932198370423,
                          4593380528125082431, 16408922859458223821], dtype=np.uint64)
        want = (words >> np.uint64(11)).astype(float) * 2.0**-52 - 1.0
        assert _uniforms(1234567, 0, 5).tobytes() == want.tobytes()

    def test_uniforms_at_the_seed_range_ends(self):
        # uint64 scalar arithmetic warns on overflow; the draws must not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = {(seed, stream): _uniforms(seed, stream, 4000)
                     for seed in (0, 2**63, 2**64 - 1) for stream in (0, 1, 2**20)}
            # a zero matrix draws on every stream: the start, the fresh
            # directions and the fill of its zero singular values
            res = truncated_svd(np.zeros((6, 9)), 4, seed=2**64 - 1)
        for x in draws.values():
            assert x.min() >= -1.0 and x.max() < 1.0
            assert abs(x.mean()) < 0.05 and abs(np.mean(x * x) - 1 / 3) < 0.02
        assert len({x.tobytes() for x in draws.values()}) == len(draws)
        assert not np.any(res.s)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(4), atol=1e-12)
        k = (draws[0, 0] + 1.0) * 2.0**52  # k * 2**-52 - 1 for an integer k
        np.testing.assert_array_equal(k, np.floor(k))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_is_refused_by_name(self, seed):
        m = np.diag([2.0, 1.0, 0.5])
        for call in (lambda: truncated_svd(m, 2, seed=seed),
                     lambda: truncated_svd(SymmetricOperator(lambda x: m @ x, 3), 2, seed=seed),
                     lambda: uase([m, m], 2, seed=seed),
                     lambda: omnibus_embed([m, m], 2, seed=seed),
                     lambda: independent_ase([m, m], 2, seed=seed)):
            with pytest.raises(ValueError, match=rf"seed={seed} out of range"):
                call()

    def test_fresh_directions_follow_the_seed(self):
        # the zero operator leaves the start's Krylov space at once: every
        # later basis vector, and so every Ritz vector after the first, is a
        # fresh direction, and those are a function of the seed alone
        start = np.random.default_rng(61).standard_normal(30)
        runs = {seed: _lanczos(lambda x: 0.0 * x, 30, 4, start, seed)[1] for seed in (5, 6)}
        assert _lanczos(lambda x: 0.0 * x, 30, 4, start, 5)[1].tobytes() == runs[5].tobytes()
        assert not np.allclose(np.abs(runs[5][:, 1:]), np.abs(runs[6][:, 1:]))
        for vectors in runs.values():
            np.testing.assert_allclose(vectors.T @ vectors, np.eye(4), atol=1e-12)


class TestSeededDraws:
    # seed_words and Pcg64 compute numpy's SeedSequence and PCG64 words
    # in-house; the frozen words catch a drift on either side

    def test_reference_words(self):
        # oracle: numpy 2.4's SeedSequence(0).generate_state(4), its third
        # spawned child's, and the first three PCG64(101).random_raw words
        assert seed_words(0, 4) == [2968811710, 3677149159, 745650761, 2884920346]
        assert seed_words(0, 4, (2,)) == [3241444873, 3830689794, 285037786, 2342166964]
        assert seed_words(2**64 - 1, 4, (5, 1)) == [
            1231321241, 1516414090, 3626969999, 1067481263]
        rng = Pcg64(101)
        assert [rng.next64() for _ in range(3)] == [
            17405102656223811442, 6630147816760228827, 14477104582272359118]

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1, 2**70])
    def test_same_words_and_draws_as_numpy(self, seed):
        # oracle: numpy.random itself; 3 * 2**30 rejects a quarter of the
        # 32-bit words, and n = 1 draws none
        root = np.random.SeedSequence(seed)
        assert seed_words(seed, 9) == root.generate_state(9).tolist()
        for i, child in enumerate(root.spawn(4)):
            assert seed_words(seed, 5, (i,)) == child.generate_state(5).tolist()
            assert seed_words(seed, 3, (i, 1)) == child.spawn(2)[1].generate_state(3).tolist()
        want, got = np.random.default_rng(seed), Pcg64(seed)
        p = np.arange(1.0, 51.0) ** 2
        p /= p.sum()
        for n in (1, 3, 4840, 2**31, 3 * 2**30, 2**32):
            for _ in range(25):
                assert got.integers(n) == want.integers(n)
            # a 64-bit draw leaves a buffered 32-bit half for the next integers()
            assert got.random() == want.random()
            assert got.choice(p) == want.choice(50, p=p)

    def test_negative_seed_and_out_of_range_n_refused(self):
        for call in (lambda: seed_words(-1, 2), lambda: seed_words(0, 2, (-1,)),
                     lambda: Pcg64(-5)):
            with pytest.raises(ValueError, match="is negative"):
                call()
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1)
        for n in (0, 2**32 + 1):
            with pytest.raises(ValueError, match="out of range"):
                Pcg64(0).integers(n)


class TestOrientColumns:
    def test_largest_entry_positive_and_partner_flipped(self):
        u = np.array([[0.1, -0.9, 0.5], [-0.8, 0.2, -0.5], [0.3, 0.1, 0.0]])
        v = np.arange(6.0).reshape(2, 3) - 2.0
        ou, ov = orient_columns(u, v)
        # column 2 ties at |0.5|: the lowest row decides, and it is positive
        np.testing.assert_array_equal(ou, u * [-1.0, -1.0, 1.0])
        np.testing.assert_array_equal(ov, v * [-1.0, -1.0, 1.0])
        assert u[0, 0] == 0.1  # inputs untouched


def brute_force_procrustes_2d(a, b):
    # oracle: dense grid over rotations plus reflection, refined twice
    best = (np.inf, None)
    for reflect in (1.0, -1.0):
        thetas = np.linspace(0, 2 * np.pi, 20000, endpoint=False)
        for theta in thetas:
            c, s = np.cos(theta), np.sin(theta)
            q = np.array([[c, -s], [s, c]]) @ np.diag([1.0, reflect])
            err = np.linalg.norm(a @ q - b)
            if err < best[0]:
                best = (err, q)
    return best


class TestProcrustes:
    def test_exact_recovery_of_rotation(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((15, 3))
        q_true, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        b = a @ q_true
        res = procrustes(a, b)
        np.testing.assert_allclose(res.q, q_true, atol=1e-10)
        assert res.residual < 1e-10
        assert res.unique

    def test_against_grid_search_oracle_2d(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((40, 2))
        b = rng.standard_normal((40, 2))
        res = procrustes(a, b)
        err_oracle, _ = brute_force_procrustes_2d(a, b)
        # grid granularity limits the oracle; ours must be at least as good
        assert res.residual <= err_oracle + 1e-3

    def test_degenerate_flagged_not_unique(self):
        a = np.zeros((5, 2))
        a[:, 0] = np.arange(5.0)
        b = a.copy()
        res = procrustes(a, b)
        assert not res.unique

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            procrustes(np.zeros((3, 2)), np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        a = np.ones((3, 2))
        a[1, 0] = bad
        for pair in ((a, np.ones((3, 2))), (np.ones((3, 2)), a)):
            with pytest.raises(ValueError, match="non-finite entries"):
                procrustes(*pair)


def angles_to_unit_vector(theta):
    # oracle: inverse of the forward map on the unit sphere, built from the
    # definition x1 = prod cos factors etc., derived independently by
    # backward recursion on the prefix norms
    d = theta.shape[0] + 1
    x = np.zeros(d)
    r = 1.0
    for j in range(d - 2, 0, -1):
        x[j + 1] = r * np.sin(theta[j])
        r = r * np.cos(theta[j])
    x[0] = r * np.cos(theta[0])
    x[1] = r * np.sin(theta[0])
    return x


class TestSphericalCoordinates:
    def test_round_trip_on_unit_sphere(self):
        rng = np.random.default_rng(37)
        for d in (2, 3, 5, 8):
            x = rng.standard_normal((20, d))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            theta, active = spherical_coordinates(x)
            assert active.all()
            for i in range(20):
                rebuilt = angles_to_unit_vector(theta[i])
                np.testing.assert_allclose(rebuilt, x[i], atol=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((10, 4))
        t1, _ = spherical_coordinates(x)
        t2, _ = spherical_coordinates(3.7 * x)
        np.testing.assert_allclose(t1, t2, atol=1e-12)

    def test_zero_rows_masked(self):
        x = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0], [0.3, -1.0, 2.0]])
        theta, active = spherical_coordinates(x)
        assert active.tolist() == [True, False, True]
        np.testing.assert_array_equal(theta[1], 0.0)

    def test_range(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((200, 6))
        theta, _ = spherical_coordinates(x)
        assert np.all(theta >= 0.0)
        assert np.all(theta < 2 * np.pi)

    def test_rejects_1d_target(self):
        with pytest.raises(ValueError):
            spherical_coordinates(np.ones((3, 1)))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
)
def test_property_spherical_scale_invariance(d, seed, scale):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((8, d))
    t1, a1 = spherical_coordinates(x)
    t2, a2 = spherical_coordinates(scale * x)
    np.testing.assert_array_equal(a1, a2)
    np.testing.assert_allclose(t1, t2, atol=1e-9)
