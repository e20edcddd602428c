import numpy as np
import pytest
import scipy.sparse as sp
from scipy import stats

from helpers import transient_bytes

from dynembed import models
from dynembed.models import (
    DsbmSpec,
    bundled_config_path,
    load_dsbm_config,
    sample_dsbm,
)
from dynembed.netseries import SymmetricPattern


def sample_adjacency(p, seed, stream=0):
    # one symmetric Bernoulli(p) draw from the Philox stream keyed by
    # (seed, stream), through the sampler behind sample_dsbm, as a CSR matrix
    upper = models._sample_rows(p.shape[0], lambda i, j: p[i, j], p.max(), seed, stream)
    return SymmetricPattern.from_upper(upper, p.shape[0]).tocsr()


@pytest.fixture(scope="module")
def fourblock():
    return load_dsbm_config(bundled_config_path("fourblock"))


class TestSpecValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            DsbmSpec(block_matrices=[np.array([[0.1, 0.2], [0.3, 0.1]])], n_nodes=4)

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ValueError):
            DsbmSpec(block_matrices=[np.array([[1.5]])], n_nodes=4)

    def test_bad_memberships_rejected(self):
        with pytest.raises(ValueError):
            DsbmSpec(
                block_matrices=[np.eye(2) * 0.5],
                n_nodes=3,
                memberships=np.array([0, 1, 2]),
            )

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_nonfinite_degree_weight_rejected(self, weight):
        # nan passed w <= 0 and left its node without edges; inf was clipped
        # to probability 1
        with pytest.raises(ValueError, match="degree_weights must be positive and finite"):
            DsbmSpec(block_matrices=[np.array([[0.5]])], n_nodes=3,
                     degree_weights=np.array([1.0, weight, 1.0]))

    def test_nan_block_entry_rejected(self):
        with pytest.raises(ValueError, match="block probabilities must be finite"):
            DsbmSpec(block_matrices=[np.array([[0.5, np.nan], [np.nan, 0.5]])], n_nodes=4)

    def test_default_memberships_equal_blocks(self):
        spec = DsbmSpec(block_matrices=[np.eye(4) * 0.5], n_nodes=100)
        counts = np.bincount(spec.memberships[0])
        np.testing.assert_array_equal(counts, [25, 25, 25, 25])

    def test_rho_weight_overflow_rejected(self):
        spec = DsbmSpec(
            block_matrices=[np.array([[0.9]])],
            n_nodes=2,
            degree_weights=np.array([2.0, 2.0]),
        )
        with pytest.raises(ValueError):
            spec.gram_matrix(0)
        with pytest.raises(ValueError):
            sample_dsbm(spec)

    def test_diagonal_only_overflow_rejected(self):
        # node 0 is alone in its community, so w_0^2 * B[0, 0] > 1 is the only
        # probability above 1, and it sits on the never-sampled diagonal
        spec = DsbmSpec(
            block_matrices=[np.array([[0.5, 0.1], [0.1, 0.5]])],
            n_nodes=4,
            memberships=np.array([0, 1, 1, 1]),
            degree_weights=np.array([1.5, 1.0, 1.0, 1.0]),
        )
        with pytest.raises(ValueError, match="edge probabilities exceed 1"):
            spec.gram_matrix(0)
        with pytest.raises(ValueError, match="edge probabilities exceed 1"):
            sample_dsbm(spec)


class TestGramMatrix:
    def test_direct_evaluation_oracle(self, fourblock):
        # oracle: elementwise evaluation straight from the definition
        spec = DsbmSpec(
            block_matrices=fourblock.block_matrices,
            n_nodes=20,
            rho=0.7,
            degree_weights=np.linspace(0.5, 1.0, 20),
        )
        for t in range(2):
            p = spec.gram_matrix(t)
            z = spec.memberships[t]
            w = spec.degree_weights
            for i in range(20):
                for j in range(20):
                    expected = 0.7 * w[i] * w[j] * spec.block_matrices[t][z[i], z[j]]
                    assert abs(p[i, j] - expected) < 1e-15

    def test_known_entry(self, fourblock):
        # community 1 vs community 3 probability in the first snapshot
        assert fourblock.block_matrices[0][0, 2] == 0.18

    def test_degree_corrected_rows_proportional(self, fourblock):
        n = 8
        w = np.ones(n)
        w[1] = 2.0 * w[0]
        spec = DsbmSpec(
            block_matrices=[0.2 * np.ones((1, 1))],
            n_nodes=n,
            memberships=np.zeros(n, dtype=int),
            degree_weights=w,
            rho=0.5,
        )
        p = spec.gram_matrix(0)
        np.testing.assert_allclose(p[1], 2.0 * p[0], atol=1e-15)


class TestSampling:
    def test_transient_memory_per_entry(self):
        # a slab's raw words (2 MiB) and the edges' keys, sorted once as
        # int32, stay under 24 bytes an entry of the drawn pattern (measured
        # 14.9; 41 when the edges' rows and columns went through int64 copies)
        series, extra = transient_bytes(lambda: sample_dsbm(DsbmSpec([[[0.05]]], 2000), seed=1))
        assert extra < 24 * series.patterns[0].cols.size

    def test_symmetric_hollow_binary(self):
        p = np.full((30, 30), 0.4)
        a = sample_adjacency(p, seed=0).toarray()
        np.testing.assert_array_equal(a, a.T)
        np.testing.assert_array_equal(np.diag(a), 0.0)
        assert set(np.unique(a)).issubset({0.0, 1.0})

    def test_deterministic_per_seed_and_stream(self):
        p = np.full((20, 20), 0.3)
        a1 = sample_adjacency(p, seed=7, stream=2)
        a2 = sample_adjacency(p, seed=7, stream=2)
        b = sample_adjacency(p, seed=7, stream=3)
        assert (a1 != a2).nnz == 0
        assert (a1 != b).nnz > 0

    def test_block_densities_match_probabilities(self, fourblock):
        # binomial standard error bound: each block pair has >= 62500 node
        # pairs, so 4 standard errors is far below 0.01
        spec = DsbmSpec(block_matrices=fourblock.block_matrices, n_nodes=1000)
        series = sample_dsbm(spec, seed=11)
        z = spec.memberships[0]
        for t in range(2):
            a = series.snapshots[t].toarray()
            b = spec.block_matrices[t]
            for k in range(4):
                for l in range(k + 1, 4):
                    mask_k, mask_l = z == k, z == l
                    density = a[np.ix_(mask_k, mask_l)].mean()
                    se = np.sqrt(b[k, l] * (1 - b[k, l]) / (250 * 250))
                    assert abs(density - b[k, l]) < 4 * se + 1e-12

    def test_edge_indicators_unbiased_kolmogorov(self):
        # p-value based distribution check on the per-pair indicator means
        p = np.full((200, 200), 0.25)
        counts = []
        for seed in range(30):
            counts.append(sample_adjacency(p, seed=seed).nnz / 2)
        n_pairs = 200 * 199 / 2
        z = (np.array(counts) - n_pairs * 0.25) / np.sqrt(n_pairs * 0.25 * 0.75)
        _, p_value = stats.kstest(z, "norm")
        assert p_value > 1e-4

    @pytest.mark.parametrize("other", [0.0, 0.5])
    @pytest.mark.parametrize("side, edge", [(-1, False), (0, False), (1, True)])
    def test_uniform_next_to_its_probability(self, side, edge, other):
        # pair (0, 1) of a three-node graph meets the first word w of its
        # Philox stream: p is the generator's uniform (w >> 11) * 2**-53 or
        # the float next to it, where a candidate bound (other = 0, so p is
        # the largest entry) or a comparison (other = 0.5) one step off would
        # change the draw
        w = int(np.random.Philox(key=(1, 0)).random_raw())
        uniform = (w >> 11) * 2.0**-53
        assert (w >> 11) < 2**52 and uniform < 0.5  # the next float is within one word step
        p = np.full((3, 3), other)
        p[0, 1] = p[1, 0] = np.nextafter(uniform, side) if side else uniform
        got = sample_adjacency(p, seed=1).toarray()
        want = dense_reference_draw(p, 1, 0).toarray()
        assert got[0, 1] == want[0, 1] == edge

    def test_expected_rank_bound(self, fourblock):
        spec = DsbmSpec(block_matrices=fourblock.block_matrices, n_nodes=60)
        grams = spec.gram_matrices()
        assert np.linalg.matrix_rank(np.hstack(grams), tol=1e-10) == 4
        assert np.linalg.matrix_rank(grams[0], tol=1e-10) == 4
        assert np.linalg.matrix_rank(grams[1], tol=1e-10) == 3


def dense_reference_p(spec, t):
    # P_t straight from its definition, as one dense matrix
    z = spec.memberships[t]
    p = spec.block_matrices[t][np.ix_(z, z)]
    if spec.degree_weights is not None:
        p = p * np.outer(spec.degree_weights, spec.degree_weights)
    return np.clip(spec.rho * p, 0.0, 1.0)


def dense_reference_draw(p, seed, stream):
    # the one-shot sampler: a single Philox draw over all of np.triu_indices
    n = p.shape[0]
    rng = np.random.Generator(np.random.Philox(key=(seed, stream)))
    iu = np.triu_indices(n, k=1)
    draws = rng.random(iu[0].shape[0]) < p[iu]
    a = sp.csr_matrix((np.ones(draws.sum()), (iu[0][draws], iu[1][draws])),
                      shape=(n, n))
    return a + a.T


def oracle_specs():
    fourblock = load_dsbm_config(bundled_config_path("fourblock"))
    rng = np.random.default_rng(2)
    n = 300
    return {
        "fourblock": fourblock,
        "varying": DsbmSpec(
            block_matrices=fourblock.block_matrices,
            n_nodes=n,
            memberships=rng.integers(0, 4, size=(2, n)),
            degree_weights=rng.uniform(0.3, 1.0, size=n),
            rho=0.7,
        ),
        "n1": DsbmSpec(block_matrices=[np.array([[0.5]])], n_nodes=1),
        "n2": DsbmSpec(block_matrices=[np.array([[0.9]])] * 3, n_nodes=2),
        # p = 1: every Philox word is a candidate edge
        "p_one": DsbmSpec(block_matrices=[np.array([[1.0, 0.3], [0.3, 0.6]])], n_nodes=50),
        # p = 0: no word is
        "p_zero": DsbmSpec(block_matrices=[np.zeros((2, 2))] * 2, n_nodes=40),
        # nodes 0 and 1 (weight 2, community 0) meet at exactly 0.5 * 4 * 0.5 = 1
        "weighted_one": DsbmSpec(
            block_matrices=[np.array([[0.5, 0.1], [0.1, 0.3]])],
            n_nodes=n,
            memberships=np.arange(n) >= n // 2,
            degree_weights=np.concatenate([[2.0, 2.0], rng.uniform(0.3, 1.0, size=n - 2)]),
            rho=0.5,
        ),
    }


class TestSlabSamplerOracle:
    # the slab sampler must reproduce the one-shot dense draw bit for bit,
    # whatever the slab size: 7 cells puts every row in a slab of its own,
    # 1000 cells gives multi-row slabs on the small specs
    @pytest.mark.parametrize("slab_cells", [None, 7, 1000])
    @pytest.mark.parametrize("name", ["fourblock", "varying", "n1", "n2", "p_one", "p_zero",
                                      "weighted_one"])
    def test_equals_dense_draw(self, name, slab_cells, monkeypatch):
        if slab_cells is not None:
            monkeypatch.setattr(models, "_SLAB_CELLS", slab_cells)
        spec = oracle_specs()[name]
        for seed in (0, 101):
            series = sample_dsbm(spec, seed=seed)
            for t, got in enumerate(series.snapshots):
                want = dense_reference_draw(dense_reference_p(spec, t), seed, t)
                for part in ("data", "indices", "indptr"):
                    g, w = getattr(got, part), getattr(want, part)
                    assert g.dtype == w.dtype
                    np.testing.assert_array_equal(g, w)

    def test_sample_adjacency_matches_sample_dsbm(self):
        spec = oracle_specs()["varying"]
        series = sample_dsbm(spec, seed=4)
        for t in range(spec.n_snapshots):
            a = sample_adjacency(spec.gram_matrix(t), 4, t)
            b = series.snapshots[t]
            np.testing.assert_array_equal(a.indptr, b.indptr)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.data, b.data)
            np.testing.assert_array_equal(spec.gram_matrix(t), dense_reference_p(spec, t))


class TestConfig:
    def test_bundled_fourblock_contents(self, fourblock):
        assert fourblock.n_nodes == 1000
        assert fourblock.n_communities == 4
        assert fourblock.n_snapshots == 2
        np.testing.assert_allclose(
            fourblock.block_matrices[1][0], fourblock.block_matrices[1][1]
        )

    def test_config_round_trip(self, tmp_path):
        text = """
[model]
n_nodes = 6
rho = 0.5
memberships = 0 0 1 1 0 1
degree_weights = 1 1 1 1 2 2

[snapshot.2]
block_matrix =
    0.3 0.1
    0.1 0.4

[snapshot.1]
block_matrix =
    0.2 0.1
    0.1 0.2
"""
        path = tmp_path / "model.cfg"
        path.write_text(text, encoding="utf-8")
        spec = load_dsbm_config(path)
        assert spec.n_nodes == 6
        assert spec.rho == 0.5
        # sections ordered by numeric suffix, not file position
        assert spec.block_matrices[0][0, 0] == 0.2
        assert spec.block_matrices[1][1, 1] == 0.4
        np.testing.assert_array_equal(spec.memberships[0], [0, 0, 1, 1, 0, 1])
        np.testing.assert_array_equal(spec.degree_weights, [1, 1, 1, 1, 2, 2])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dsbm_config(tmp_path / "absent.cfg")

    def test_unknown_bundle(self):
        with pytest.raises(FileNotFoundError):
            bundled_config_path("no-such-model")
