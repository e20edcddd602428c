import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import LinearOperator

from dynembed.netseries import SymmetricPattern, Unfolding

from dynembed.linalg import (
    ProcrustesResult,
    SymmetricOperator,
    _lanczos,
    orient_columns,
    procrustes,
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
        op = Unfolding([SymmetricPattern.from_matrix(a) for a in dense])
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
