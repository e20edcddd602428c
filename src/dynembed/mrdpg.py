"""Finite-support multilayer random dot product graph structure.

A dynamic network model whose nodes follow one of finitely many latent state
sequences is summarized here by per-time kernels over the states plus a
distribution over state sequences. As a multilayer random dot product graph
(Jones & Rubin-Delanchy 2020, arXiv:2007.10455), its expected unfolded
adjacency matrix has an exact low-rank factorization. From the model this
module builds

- the balanced spectral structure: the singular values of the expected
  unfolding per node, one left position per state sequence and one right
  position per state and time, all from one SVD of a small coupling matrix;
- asymptotic error covariances for the per-snapshot embedding rows;
- one exchangeability rule deciding when two (state, time) cells are
  indistinguishable, exactly or up to a degree scaling, at one time or
  across times, and the pairs it implies for a stability report.

Everything here is noise free; sampling lives in :mod:`dynembed.models`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import orient_columns
from .models import DsbmSpec

RANK_RTOL = 1e-10
# relative tolerance under which two columns over the sequences count as equal
COLUMN_RTOL = 1e-9


@dataclass
class FiniteModel:
    """Finite-state dynamic latent position model.

    kernels: list with one (m_t, m_t) symmetric matrix per time point, entries
        in [0, 1]; entry (a, b) is the edge probability between a node in
        state a and a node in state b at that time.
    sequences: (S, T) integer array of the state sequences that occur with
        positive probability; sequences[s, t] indexes a state of kernels[t].
    probabilities: (S,) positive weights summing to 1.
    """

    kernels: list
    sequences: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        self.kernels = [np.asarray(k, dtype=float) for k in self.kernels]
        for k in self.kernels:
            if k.ndim != 2 or k.shape[0] != k.shape[1]:
                raise ValueError("kernels must be square")
            if not np.allclose(k, k.T):
                raise ValueError("kernels must be symmetric")
            if np.any(k < 0) or np.any(k > 1):
                raise ValueError("kernel values must lie in [0, 1]")
        self.sequences = np.asarray(self.sequences, dtype=int)
        if self.sequences.ndim != 2:
            raise ValueError("sequences must be a 2-d array")
        if self.sequences.shape[1] != len(self.kernels):
            raise ValueError("sequences must have one column per kernel")
        for t, k in enumerate(self.kernels):
            col = self.sequences[:, t]
            if col.min() < 0 or col.max() >= k.shape[0]:
                raise ValueError(f"sequence states out of range at time {t}")
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        if self.probabilities.shape != (self.sequences.shape[0],):
            raise ValueError("need one probability per sequence")
        if np.any(self.probabilities <= 0):
            raise ValueError("sequence probabilities must be positive")
        if abs(self.probabilities.sum() - 1.0) > 1e-9:
            raise ValueError("sequence probabilities must sum to 1")

    @property
    def n_times(self) -> int:
        return len(self.kernels)

    def realized_states(self, t: int) -> np.ndarray:
        """States occurring with positive probability at time t, sorted."""
        return np.unique(self.sequences[:, t])


@dataclass
class LatentStructure:
    """Balanced spectral structure of a finite-state model.

    n nodes whose sequences occur with the model's probabilities have the
    expected unfolding (P_1 | ... | P_T) = E K F^T, where E (n, S) and F (Tn,
    sum m_t) are the node-to-sequence and node-to-state indicators. Its
    singular values are n * sigma, and its balanced factors (singular vectors
    scaled by the square roots of the singular values) give every node the
    position of its sequence on the left and of its state on the right:

    x: (S, d) left position of each sequence.
    y: per time, (m_t, d) right position of each state, realized or not.
    sigma: (d,) singular values of the expected unfolding divided by n.
    d: the structure rank; dims[t]: the rank of y[t]'s realized rows.

    For every sequence s, time t and state a realized at time t,

        kernels[t][sequences[s, t], a] == x[s] @ y[t][a]

    holds to numerical precision.
    """

    model: FiniteModel
    x: np.ndarray
    y: list
    sigma: np.ndarray
    d: int
    dims: list

    def reconstruction_error(self) -> float:
        """Largest deviation of the bilinear form from the kernel values,
        over sequences, times and realized states."""
        worst = 0.0
        for t, kernel in enumerate(self.model.kernels):
            realized = self.model.realized_states(t)
            rebuilt = self.x @ self.y[t][realized].T
            target = kernel[np.ix_(self.model.sequences[:, t], realized)]
            worst = max(worst, float(np.max(np.abs(rebuilt - target))))
        return worst

    def node_points(self, node_sequences: np.ndarray):
        """Noise-free balanced positions (left, rights) of nodes assigned to
        sequences: left is (n, d) with row i = x[node_sequences[i]], rights[t]
        is (n, d) with row i the time-t state position of node i.

        When the model's probabilities are the sequence frequencies of these
        nodes, as in a model from :func:`model_from_dsbm`, these are the
        positions of :func:`noise_free_embedding` up to one orthogonal map.
        """
        node_sequences = np.asarray(node_sequences, dtype=int)
        left = self.x[node_sequences]
        rights = [
            self.y[t][self.model.sequences[node_sequences, t]]
            for t in range(self.model.n_times)
        ]
        return left, rights


def latent_structure(model: FiniteModel) -> LatentStructure:
    """Build the balanced structure of a finite-state model from one SVD.

    With p the sequence probabilities and q_t the time-t state probabilities,
    the coupling matrix C[s, (t, a)] = sqrt(p_s) K_t[seq_s(t), a] sqrt(q_t(a))
    is the expected unfolding divided by n in orthonormal coordinates, since
    E^T E = n diag(p) and F^T F = n diag(q). So with C = u diag(sigma) v^T,
    x_s = u_s sqrt(sigma) / sqrt(p_s), and y_t = K_t[seq(t)]^T (p * x) / sigma
    places every state, realized or not, on the right.
    """
    p, seqs = model.probabilities, model.sequences
    blocks = []
    for t, kernel in enumerate(model.kernels):
        q = np.bincount(seqs[:, t], weights=p, minlength=kernel.shape[0])
        blocks.append(kernel[seqs[:, t]] * np.sqrt(q))
    coupling = np.sqrt(p)[:, None] * np.hstack(blocks)
    u, s, _ = np.linalg.svd(coupling, full_matrices=False)
    if s[0] == 0.0:
        raise ValueError("degenerate model: all kernel values are zero")
    d = int(np.sum(s > RANK_RTOL * s[0]))
    sigma = s[:d]
    # oriented as noise_free_embedding orients the nodes' left positions
    (x,) = orient_columns(u[:, :d] * np.sqrt(sigma) / np.sqrt(p)[:, None])
    ys, dims = [], []
    for t, kernel in enumerate(model.kernels):
        y = kernel[seqs[:, t]].T @ (x * p[:, None]) / sigma
        sv = np.linalg.svd(y[model.realized_states(t)], compute_uv=False)
        ys.append(y)
        dims.append(int(np.sum(sv > RANK_RTOL * sv[0])))
    return LatentStructure(model=model, x=x, y=ys, sigma=sigma, d=d, dims=dims)


def theoretical_error_covariance(
    structure: LatentStructure,
    t: int,
    state: int,
    *,
    regime: str = "dense",
) -> np.ndarray:
    """Asymptotic covariance of a time-t embedding row for a node in the given
    state, in balanced spectral coordinates: diag(1/sigma) E[g x x^T]
    diag(1/sigma), the expectation over sequences, with g the variance of the
    node's edge indicator to a node on that sequence.

    regime "dense": Bernoulli variance f (1 - f) of each edge indicator is
    used. regime "sparse": the small-probability limit replaces it by f; a
    warning is issued when the kernel values are large enough that this limit
    is a poor description.
    """
    if regime not in ("dense", "sparse"):
        raise ValueError(f"unknown regime {regime!r}")
    model = structure.model
    kernel = model.kernels[t]
    if not 0 <= state < kernel.shape[0]:
        raise ValueError("state out of range")
    f_row = kernel[state, model.sequences[:, t]]
    if regime == "dense":
        g = f_row * (1.0 - f_row)
    else:
        if np.max(kernel) > 0.1:
            warnings.warn(
                "sparse-regime covariance requested but kernel values exceed 0.1; "
                "the dense regime is the better description",
                stacklevel=2,
            )
        g = f_row
    weights = model.probabilities * g
    inner = (structure.x * weights[:, None]).T @ structure.x
    return inner / np.outer(structure.sigma, structure.sigma)


def _columns_equal(col_a: np.ndarray, col_b: np.ndarray) -> bool:
    """Whether two columns agree within COLUMN_RTOL of their largest entry."""
    norm = max(np.max(np.abs(col_a)), np.max(np.abs(col_b)))
    return bool(np.max(np.abs(col_a - col_b)) <= COLUMN_RTOL * norm)


def exchangeable_states(model: FiniteModel, cell_a, cell_b) -> float | None:
    """Decide whether two (state, time) cells (a, t) and (b, u) are exchangeable.

    A cell's column over the sequences, kernels[t][sequences[:, t], a], holds
    its edge probabilities to the nodes of each sequence and alone decides its
    right position, column^T (p * x) / sigma (see :func:`latent_structure`).
    Returns the scale a with col_a = a * col_b, or None when there is none.
    Equal columns are exactly exchangeable, one shared position, and give
    1.0; proportional ones are degree-scaled exchangeable, positions that
    differ by a only, and give the fitted a. The times may differ. A fitted
    a of exactly 1.0 would rerun the equality test that just failed, so 1.0
    always means equal columns.
    """
    (a, t), (b, u) = cell_a, cell_b
    col_a = model.kernels[t][model.sequences[:, t], a]
    col_b = model.kernels[u][model.sequences[:, u], b]
    if _columns_equal(col_a, col_b):
        return 1.0
    denom = float(col_b @ col_b)
    scale = float(col_a @ col_b) / denom if denom else 0.0
    if scale > 0 and _columns_equal(col_a, scale * col_b):
        return scale
    return None


def exchangeability_classes(model: FiniteModel, t: int) -> list:
    """Partition the realized states at time t into groups whose columns over
    the sequences are equal. Returns a list of lists of states."""
    realized = model.realized_states(t).tolist()
    classes: list[list[int]] = []
    for state in realized:
        for group in classes:
            if exchangeable_states(model, (state, t), (group[0], t)) == 1.0:
                group.append(state)
                break
        else:
            classes.append([state])
    return classes


def discover_pairs(model: FiniteModel):
    """All exchangeable (state, time) pairs of a finite-state model.

    Returns (pairs, scales) with pairs ((a, t), (b, u)) in state labels: per
    time, states with equal columns (scale 1), then with proportional ones
    (the fitted scale); then, for each t, the states (a, b) that some
    sequence holds at t and t + 1 whose columns are equal or proportional,
    so that a cross-time pair follows the same nodes. The group labels that
    match them are ``model.sequences[node_sequences].T``.
    """
    candidates = []
    for t in range(model.n_times):
        classes = exchangeability_classes(model, t)
        heads = [g[0] for g in classes]
        candidates += [((g[0], t), (b, t)) for g in classes for b in g[1:]]
        candidates += [((a, t), (b, t)) for i, a in enumerate(heads) for b in heads[i + 1 :]]
    for t in range(model.n_times - 1):
        held = np.unique(model.sequences[:, t : t + 2], axis=0).tolist()
        candidates += [((a, t), (b, t + 1)) for a, b in held]
    scales = [exchangeable_states(model, *pair) for pair in candidates]
    return ([pair for pair, s in zip(candidates, scales) if s is not None],
            [s for s in scales if s is not None])


def model_from_dsbm(spec: DsbmSpec):
    """Summarize a block model as a finite-state model.

    States at time t are the distinct (community, degree weight) pairs present
    there; sequences are the distinct node trajectories with their empirical
    frequencies. Returns (model, node_sequences) where node_sequences[i] is
    the sequence index of node i.
    """
    t_count = spec.n_snapshots
    n = spec.n_nodes
    weights = spec.degree_weights if spec.degree_weights is not None else np.ones(n)

    kernels = []
    state_of_node = np.empty((t_count, n), dtype=int)
    for t in range(t_count):
        states, state_of_node[t] = np.unique(
            np.column_stack([spec.memberships[t], weights]), axis=0, return_inverse=True
        )
        communities, w = states[:, 0].astype(int), states[:, 1]
        base = spec.block_matrices[t][np.ix_(communities, communities)]
        kernels.append(np.clip(spec.rho * base * np.outer(w, w), 0.0, 1.0))

    trajectories = state_of_node.T  # (n, T)
    uniq, node_sequences, counts = np.unique(
        trajectories, axis=0, return_inverse=True, return_counts=True
    )
    model = FiniteModel(
        kernels=kernels,
        sequences=uniq,
        probabilities=counts / n,
    )
    return model, node_sequences


def noise_free_embedding(gram_matrices, d: int | None = None):
    """Balanced spectral embedding of noise-free expected adjacency matrices.

    Concatenates the matrices column-wise, decomposes with a full dense SVD
    and returns (left, rights): left (n, d) sharing square-rooted singular
    value scaling with the per-snapshot right point sets rights[t] (n, d).
    With d omitted, the numerical rank is used.
    """
    mats = [np.asarray(p, dtype=float) for p in gram_matrices]
    n = mats[0].shape[0]
    unfolded = np.hstack(mats)
    u, s, vt = np.linalg.svd(unfolded, full_matrices=False)
    if d is None:
        d = int(np.sum(s > RANK_RTOL * max(s[0], 1.0)))
    if not 1 <= d <= s.shape[0]:
        raise ValueError(f"d={d} out of range")
    u, v = orient_columns(u[:, :d], vt[:d].T)
    scale = np.sqrt(s[:d])
    left = u * scale
    right = v * scale
    rights = [right[t * n : (t + 1) * n] for t in range(len(mats))]
    return left, rights
