import numpy as np
import pytest

from dynembed.embedders import uase
from dynembed.linalg import procrustes
from dynembed.models import DsbmSpec, bundled_config_path, load_dsbm_config, sample_dsbm
from dynembed.mrdpg import (
    FiniteModel,
    discover_pairs,
    exchangeability_classes,
    exchangeable_states,
    latent_structure,
    model_from_dsbm,
    noise_free_embedding,
    theoretical_error_covariance,
)


@pytest.fixture(scope="module")
def fourblock_model():
    cfg = load_dsbm_config(bundled_config_path("fourblock"))
    spec = DsbmSpec(block_matrices=cfg.block_matrices, n_nodes=40)
    model, node_seq = model_from_dsbm(spec)
    return spec, model, node_seq


def constant_model(p, t):
    return FiniteModel(
        kernels=[np.array([[p]])] * t,
        sequences=np.zeros((1, t), dtype=int),
        probabilities=np.array([1.0]),
    )


class TestLatentStructure:
    def test_single_state_single_time(self):
        s = latent_structure(constant_model(0.36, 1))
        assert s.d == 1
        assert s.dims == [1]
        np.testing.assert_allclose(s.x, [[0.6]], atol=1e-12)
        np.testing.assert_allclose(s.y[0], [[0.6]], atol=1e-12)
        assert s.reconstruction_error() < 1e-12

    def test_fourblock_dimensions(self, fourblock_model):
        _, model, _ = fourblock_model
        s = latent_structure(model)
        assert s.d == 4
        assert s.dims == [4, 3]

    def test_fourblock_reconstruction(self, fourblock_model):
        _, model, _ = fourblock_model
        s = latent_structure(model)
        assert s.reconstruction_error() < 1e-9

    def test_reconstruction_random_models(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            t_count = int(rng.integers(1, 4))
            kernels = []
            for _ in range(t_count):
                m = int(rng.integers(2, 5))
                half = rng.random((m, m)) * 0.5
                kernels.append((half + half.T) / 2)
            s_count = int(rng.integers(2, 6))
            seqs = np.column_stack(
                [rng.integers(0, k.shape[0], s_count) for k in kernels]
            )
            probs = rng.random(s_count) + 0.1
            probs /= probs.sum()
            model = FiniteModel(kernels=kernels, sequences=seqs, probabilities=probs)
            s = latent_structure(model)
            assert s.reconstruction_error() < 1e-9
            assert all(dt <= s.d for dt in s.dims)

    def test_time_rank_bounded_by_kernel_rank(self, fourblock_model):
        _, model, _ = fourblock_model
        s = latent_structure(model)
        for t, kernel in enumerate(model.kernels):
            assert s.dims[t] <= np.linalg.matrix_rank(kernel, tol=1e-10)


class TestTheoreticalCovariance:
    def test_closed_form_constant_kernel(self):
        # oracle: for a constant kernel p over T snapshots the covariance
        # works out to (1 - p) / sqrt(T); derived by hand from the moment
        # matrices of the one-sequence model
        for p in (0.1, 0.3, 0.7):
            for t_count in (1, 2, 3, 5):
                s = latent_structure(constant_model(p, t_count))
                cov = theoretical_error_covariance(s, 0, 0)
                assert cov.shape == (1, 1)
                expected = (1 - p) / np.sqrt(t_count)
                np.testing.assert_allclose(cov[0, 0], expected, rtol=1e-10)

    def test_sparse_regime_closed_form(self):
        # same derivation with Bernoulli variance replaced by its small-p
        # limit: the p factors cancel, leaving 1 / sqrt(T), the p -> 0 limit
        # of the dense value
        p, t_count = 0.05, 2
        s = latent_structure(constant_model(p, t_count))
        cov = theoretical_error_covariance(s, 0, 0, regime="sparse")
        np.testing.assert_allclose(cov[0, 0], 1.0 / np.sqrt(t_count), rtol=1e-10)

    def test_sparse_regime_warns_on_dense_kernel(self):
        s = latent_structure(constant_model(0.4, 1))
        with pytest.warns(UserWarning):
            theoretical_error_covariance(s, 0, 0, regime="sparse")

    def test_exchangeable_states_share_covariance(self, fourblock_model):
        _, model, _ = fourblock_model
        s = latent_structure(model)
        c0 = theoretical_error_covariance(s, 1, 0)
        c1 = theoretical_error_covariance(s, 1, 1)
        np.testing.assert_allclose(c0, c1, atol=1e-12)

    def test_monte_carlo_covariance(self):
        # oracle: sampled embedding rows of a two-community model; their
        # covariance around the noise-free position, scaled by n, has to match
        # the asymptotic formula within a loose Monte Carlo budget
        b = np.array([[0.30, 0.10], [0.10, 0.25]])
        n = 1200
        spec = DsbmSpec(block_matrices=[b], n_nodes=n)
        model, node_seq = model_from_dsbm(spec)
        s = latent_structure(model)
        left_nf, rights_nf = noise_free_embedding(spec.gram_matrices(), d=2)

        series = sample_dsbm(spec, seed=5)
        emb = uase(series, 2, seed=0)
        fit = procrustes(emb.points[0], rights_nf[0])
        aligned = emb.points[0] @ fit.q
        group = node_seq == 0
        resid = (aligned[group] - rights_nf[0][group]) * np.sqrt(n)
        emp = np.cov(resid.T)
        state = model.sequences[0, 0]
        theory = theoretical_error_covariance(s, 0, int(state))
        emp_eigs = np.sort(np.linalg.eigvalsh(emp))
        th_eigs = np.sort(np.linalg.eigvalsh(theory))
        np.testing.assert_allclose(emp_eigs, th_eigs, rtol=0.25)


class TestExchangeability:
    def test_fourblock_classes(self, fourblock_model):
        _, model, _ = fourblock_model
        assert exchangeability_classes(model, 0) == [[0], [1], [2], [3]]
        assert exchangeability_classes(model, 1) == [[0, 1], [2], [3]]

    def test_degree_scaled_pair(self):
        base = np.array([[0.2, 0.05], [0.05, 0.1]])
        # state 2 is state 0 scaled by 2 in every interaction
        kernel = np.zeros((3, 3))
        kernel[:2, :2] = base
        kernel[2, :2] = 2.0 * base[0, :2]
        kernel[:2, 2] = 2.0 * base[:2, 0]
        kernel[2, 2] = 4.0 * base[0, 0]
        model = FiniteModel(
            kernels=[kernel],
            sequences=np.array([[0], [1], [2]]),
            probabilities=np.array([0.4, 0.3, 0.3]),
        )
        np.testing.assert_allclose(exchangeable_states(model, (2, 0), (0, 0)), 2.0, rtol=1e-9)
        s = latent_structure(model)
        np.testing.assert_allclose(s.y[0][2], 2.0 * s.y[0][0], atol=1e-10)

    def test_unrelated_states(self, fourblock_model):
        _, model, _ = fourblock_model
        assert exchangeable_states(model, (0, 0), (1, 0)) is None


def oracle_specs():
    fourblock = load_dsbm_config(bundled_config_path("fourblock")).block_matrices
    # the dsbm_large_cli blocks: from t = 5, community 2 takes community 0's row
    dsbm = np.where(np.eye(3, dtype=bool), 0.05, 0.01)
    dsbm = [dsbm] * 5 + [dsbm[np.ix_([0, 1, 0], [0, 1, 0])]] * 5
    weights = np.round(np.random.default_rng(0).uniform(0.3, 1.0, 200), 1)
    changing = [np.array([[0.5, 0.1, 0.1], [0.1, 0.3, 0.2], [0.1, 0.2, 0.3]]),
                np.array([[0.5, 0.2, 0.1], [0.2, 0.3, 0.2], [0.1, 0.2, 0.3]])]
    return {
        "fourblock": DsbmSpec(block_matrices=fourblock, n_nodes=40),
        "dsbm": DsbmSpec(block_matrices=dsbm, n_nodes=30),
        "weighted": DsbmSpec(block_matrices=fourblock, n_nodes=200, degree_weights=weights),
        # state 0 is community 0 at both times, but other nodes hold it
        "swapped": DsbmSpec(block_matrices=[changing[0]] * 2, n_nodes=60, memberships=np.vstack(
            [np.repeat([0, 2], 30), np.repeat([1, 0], 30)])),
        # community 1 keeps its nodes, as state 0 and then state 1
        "kept": DsbmSpec(block_matrices=[changing[1]] * 2, n_nodes=60, memberships=np.vstack(
            [np.repeat([1, 2], 30), np.repeat([1, 0], 30)])),
    }


@pytest.mark.parametrize("name", list(oracle_specs()))
def test_discovered_pairs_have_proportional_positions(name):
    # oracle: every discovered pair ((a, t), (b, u)) with scale c places the
    # two cells at y_t[a] = c * y_u[b] in the exact latent structure
    model, _ = model_from_dsbm(oracle_specs()[name])
    pairs, scales = discover_pairs(model)
    y = latent_structure(model).y
    for ((a, t), (b, u)), c in zip(pairs, scales):
        np.testing.assert_allclose(y[t][a], c * y[u][b], rtol=0, atol=1e-9)
    if name == "weighted":
        assert min(scales) < 1.0
    else:
        assert len(pairs) == {"fourblock": 2, "dsbm": 30, "swapped": 0, "kept": 1}[name]
    if name == "kept":
        assert pairs == [((0, 0), (1, 1))]


class TestNoiseFreeEmbedding:
    def test_reconstructs_gram_matrices(self, fourblock_model):
        spec, _, _ = fourblock_model
        grams = spec.gram_matrices()
        left, rights = noise_free_embedding(grams)
        for p, y in zip(grams, rights):
            np.testing.assert_allclose(left @ y.T, p, atol=1e-10)

    def test_exchangeable_rows_identical(self, fourblock_model):
        spec, _, _ = fourblock_model
        _, rights = noise_free_embedding(spec.gram_matrices())
        z = spec.memberships[1]
        comm0 = np.where(z == 0)[0]
        comm1 = np.where(z == 1)[0]
        gap = np.abs(rights[1][comm0[0]] - rights[1][comm1[0]])
        assert np.max(gap) < 1e-12

    def test_rank_default_matches_structure(self, fourblock_model):
        spec, model, _ = fourblock_model
        left, _ = noise_free_embedding(spec.gram_matrices())
        assert left.shape[1] == latent_structure(model).d

    def test_degree_scaled_rows(self):
        # a node with doubled weight sits at exactly twice the position
        n = 10
        w = np.ones(n)
        w[3] = 2.0
        spec = DsbmSpec(
            block_matrices=[np.array([[0.2]])],
            n_nodes=n,
            memberships=np.zeros(n, dtype=int),
            degree_weights=w,
        )
        _, rights = noise_free_embedding(spec.gram_matrices())
        np.testing.assert_allclose(rights[0][3], 2.0 * rights[0][0], atol=1e-10)

    def test_balanced_map_links_structure_to_embedding(self, fourblock_model):
        # the structure's node positions are the balanced embedding of the
        # expected matrices up to per-column sign
        spec, model, node_seq = fourblock_model
        s = latent_structure(model)
        left, _ = noise_free_embedding(spec.gram_matrices(), d=s.d)
        pred, _ = s.node_points(node_seq)
        for j in range(pred.shape[1]):
            if pred[:, j] @ left[:, j] < 0:
                pred[:, j] = -pred[:, j]
        np.testing.assert_allclose(pred, left, atol=1e-8)

    def test_node_points_match_oracle_on_random_models(self):
        # mostly indefinite kernels, unequal sequence frequencies and states no
        # sequence visits: the expanded expected matrices, embedded by the
        # full SVD, give the structure's positions up to one orthogonal map
        rng = np.random.default_rng(7)
        for trial in range(30):
            t_count = int(rng.integers(1, 4))
            kernels = []
            for _ in range(t_count):
                m = int(rng.integers(2, 5))
                half = rng.random((m, m))
                kernels.append((half + half.T) / 2)
            s_count = int(rng.integers(2, 7))
            seqs = np.column_stack(
                [rng.integers(0, k.shape[0], s_count) for k in kernels]
            )
            counts = rng.integers(1, 6, s_count)
            model = FiniteModel(kernels=kernels, sequences=seqs,
                                probabilities=counts / counts.sum())
            node_seq = np.repeat(np.arange(s_count), counts)
            grams = [
                k[np.ix_(seqs[node_seq, t], seqs[node_seq, t])]
                for t, k in enumerate(kernels)
            ]
            s = latent_structure(model)
            left, rights = s.node_points(node_seq)
            ref_left, ref_rights = noise_free_embedding(grams, d=s.d)
            ours = np.vstack([left] + rights)
            ref = np.vstack([ref_left] + ref_rights)
            fit = procrustes(ours, ref)
            assert np.max(np.abs(ours @ fit.q - ref)) < 1e-12, trial


class TestModelFromDsbm:
    def test_probabilities_are_frequencies(self, fourblock_model):
        _, model, node_seq = fourblock_model
        np.testing.assert_allclose(model.probabilities, 0.25)
        assert len(np.unique(node_seq)) == 4

    def test_rho_and_weights_enter_kernels(self):
        spec = DsbmSpec(
            block_matrices=[np.array([[0.4, 0.2], [0.2, 0.4]])],
            n_nodes=4,
            memberships=np.array([0, 0, 1, 1]),
            degree_weights=np.array([1.0, 1.0, 0.5, 0.5]),
            rho=0.5,
        )
        model, _ = model_from_dsbm(spec)
        # states sorted by (community, weight): (0, 1.0), (1, 0.5)
        kernel = model.kernels[0]
        np.testing.assert_allclose(kernel[0, 0], 0.5 * 0.4)
        np.testing.assert_allclose(kernel[0, 1], 0.5 * 0.2 * 0.5)
        np.testing.assert_allclose(kernel[1, 1], 0.5 * 0.4 * 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteModel(
                kernels=[np.array([[0.5]])],
                sequences=np.array([[0]]),
                probabilities=np.array([0.9]),
            )
        with pytest.raises(ValueError):
            FiniteModel(
                kernels=[np.array([[0.5]])],
                sequences=np.array([[1]]),
                probabilities=np.array([1.0]),
            )

    @pytest.mark.parametrize("fields, message", [
        (dict(kernels=[np.full((1, 2), 0.5)]), "kernels must be square"),
        (dict(kernels=[np.array([[0.1, 0.2], [0.3, 0.1]])]), "kernels must be symmetric"),
        (dict(kernels=[np.array([[1.5]])]), r"kernel values must lie in \[0, 1\]"),
        (dict(sequences=np.array([0])), "sequences must be a 2-d array"),
        (dict(sequences=np.array([[0, 0]])), "sequences must have one column per kernel"),
        (dict(probabilities=np.array([0.5, 0.5])), "need one probability per sequence"),
        (dict(sequences=np.array([[0], [0]]), probabilities=np.array([1.0, 0.0])),
         "sequence probabilities must be positive"),
    ], ids=["non-square", "asymmetric", "out of range", "1-d sequences", "column count",
            "probability count", "zero probability"])
    def test_malformed_model_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            FiniteModel(**{"kernels": [np.array([[0.5]])], "sequences": np.array([[0]]),
                           "probabilities": np.array([1.0]), **fields})

    def test_refused_arguments(self):
        with pytest.raises(ValueError, match="degenerate model: all kernel values are zero"):
            latent_structure(constant_model(0.0, 2))
        structure = latent_structure(constant_model(0.3, 2))
        with pytest.raises(ValueError, match="unknown regime 'medium'"):
            theoretical_error_covariance(structure, 0, 0, regime="medium")
        for state in (-1, 1):
            with pytest.raises(ValueError, match="state out of range"):
                theoretical_error_covariance(structure, 1, state)
        for d in (0, 3):
            with pytest.raises(ValueError, match=f"d={d} out of range"):
                noise_free_embedding([np.full((2, 2), 0.5)], d)
