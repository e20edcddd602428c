"""Finite-support multilayer random dot product graph structure.

A dynamic network model whose nodes follow one of finitely many latent state
sequences is summarized here by per-time kernels over the states plus a
distribution over state sequences. From that description the module builds

- exact low-rank structure: left positions (one per state sequence), per-time
  middle factors and right positions (one per state), reproducing every
  kernel value through a bilinear form;
- population moment matrices and the change-of-basis maps relating the
  structure coordinates to the balanced spectral coordinates of the unfolded
  expected adjacency matrix;
- asymptotic error covariances for the per-snapshot embedding rows;
- exchangeability predicates deciding when two states are indistinguishable
  at a time point, exactly or up to a degree scaling.

Everything here is noise free; sampling lives in :mod:`dynembed.models`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import orient_columns
from .models import DsbmSpec

RANK_RTOL = 1e-10
# relative tolerance under which two kernel rows count as equal
ROW_RTOL = 1e-9


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
    """Exact factorization of a finite-state model.

    For every sequence s, time t and state a realized at time t,

        kernels[t][sequences[s, t], a] == x[s] @ lambdas[t] @ y[t][a]

    holds to numerical precision. ``d`` is the overall structure rank and
    ``dims[t]`` the time-t rank.
    """

    model: FiniteModel
    x: np.ndarray          # (S, d)
    lambdas: list          # per time: (d, d_t)
    y: list                # per time: (m_t, d_t)
    d: int
    dims: list

    def reconstruction_error(self) -> float:
        """Largest deviation of the bilinear form from the kernel values,
        over sequences, times and realized states."""
        worst = 0.0
        for t, kernel in enumerate(self.model.kernels):
            realized = self.model.realized_states(t)
            rebuilt = self.x @ self.lambdas[t] @ self.y[t][realized].T
            target = kernel[np.ix_(self.model.sequences[:, t], realized)]
            worst = max(worst, float(np.max(np.abs(rebuilt - target))))
        return worst

    def node_points(self, node_sequences: np.ndarray):
        """Per-node structure coordinates for nodes assigned to sequences.

        Returns (left, rights): left is (n, d) with row i = x[node_sequences[i]];
        rights[t] is (n, d_t) with row i the time-t state position of node i.
        """
        node_sequences = np.asarray(node_sequences, dtype=int)
        left = self.x[node_sequences]
        rights = [
            self.y[t][self.model.sequences[node_sequences, t]]
            for t in range(self.model.n_times)
        ]
        return left, rights


def _feature_map(kernel: np.ndarray):
    """Spectral square root of one kernel: rows phi(a) with signs sgn(lambda),
    satisfying kernel[a, b] = phi(a) @ diag(signs) @ phi(b)."""
    w, q = np.linalg.eigh(kernel)
    order = np.lexsort((np.arange(w.shape[0]), -w, -np.abs(w)))
    w, q = w[order], q[:, order]
    scale = np.max(np.abs(w)) if w.size else 0.0
    keep = np.abs(w) > RANK_RTOL * max(scale, 1.0)
    (q,) = orient_columns(q[:, keep])
    w = w[keep]
    phi = q * np.sqrt(np.abs(w))
    return phi, np.sign(w)


def _row_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of a matrix."""
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise ValueError("zero matrix has no row basis")
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return vt[:rank]


def latent_structure(model: FiniteModel) -> LatentStructure:
    """Build the exact low-rank factorization of a finite-state model.

    Steps: spectral square roots of each kernel give per-time state features;
    concatenating a sequence's features over time gives its joint feature
    vector; orthonormal bases of the joint feature span and of each time's
    realized-state feature span reduce the (joint x per-time) coupling to a
    small core matrix whose SVD yields the overall rank d, and whose right
    factor restricted to each time block yields the per-time ranks d_t, the
    middle factors and the state positions.
    """
    t_count = model.n_times
    phis, signs = [], []
    for kernel in model.kernels:
        phi, sign = _feature_map(kernel)
        phis.append(phi)
        signs.append(sign)
    widths = [phi.shape[1] for phi in phis]

    # joint features, one row per positive-probability sequence
    xi = np.hstack(
        [phis[t][model.sequences[:, t]] for t in range(t_count)]
    )
    m_basis = _row_basis(xi)  # (r, sum widths)

    n_bases = []
    for t in range(t_count):
        realized = model.realized_states(t)
        n_bases.append(_row_basis(phis[t][realized]))

    offsets = np.cumsum([0] + widths)
    # core coupling: rows = joint-span basis, columns = per-time span bases
    core_blocks = []
    for t in range(t_count):
        m_t = m_basis[:, offsets[t] : offsets[t + 1]]
        s_t = signs[t]
        core_blocks.append((m_t * s_t) @ n_bases[t].T)
    core = np.hstack(core_blocks)

    u, s, vt = np.linalg.svd(core, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise ValueError("degenerate model: all kernel values are zero")
    d = int(np.sum(s > RANK_RTOL * s[0]))
    u, s, v = u[:, :d], s[:d], vt[:d].T

    block_sizes = [b.shape[0] for b in n_bases]
    v_offsets = np.cumsum([0] + block_sizes)
    lambdas, ys, dims = [], [], []
    for t in range(t_count):
        v_t = v[v_offsets[t] : v_offsets[t + 1]]  # (r_t, d)
        ut, st, wtt = np.linalg.svd(v_t, full_matrices=False)
        d_t = int(np.sum(st > RANK_RTOL * max(st[0], 1.0))) if st.size else 0
        ut, st, wt = ut[:, :d_t], st[:d_t], wtt[:d_t].T
        lambdas.append((s[:, None] * wt) * st)        # diag(s) @ wt @ diag(st)
        ys.append(phis[t] @ n_bases[t].T @ ut)         # all states, projected
        dims.append(d_t)

    x = xi @ m_basis.T @ u
    return LatentStructure(
        model=model,
        x=x,
        lambdas=lambdas,
        y=ys,
        d=d,
        dims=dims,
    )


@dataclass
class MomentMatrices:
    """Population second moments of a structure and derived basis maps.

    delta_x: (d, d) second moment of left positions under the sequence law.
    delta_y: per-time (d_t, d_t) second moments of right positions.
    sigma: (d,) limiting singular values (of the expected unfolding, per node).
    l_map: (d, d) map from structure coordinates to balanced spectral
        coordinates: balanced left positions are x @ l_map.
    r_star: (d, d) the transpose-inverse map; balanced covariance of a
        structure-coordinate covariance C is r_star @ C @ r_star.T.
    """

    delta_x: np.ndarray
    delta_y: list
    sigma: np.ndarray
    l_map: np.ndarray
    r_star: np.ndarray


def _sym_sqrt(mat: np.ndarray):
    w, q = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    root = (q * np.sqrt(w)) @ q.T
    inv_root = (q * (1.0 / np.sqrt(np.where(w > 0, w, 1.0)))) @ q.T
    return root, inv_root


def moment_matrices(structure: LatentStructure) -> MomentMatrices:
    """Second moments and basis maps under the model's sequence probabilities."""
    model = structure.model
    p = model.probabilities
    seqs = model.sequences
    delta_x = (structure.x * p[:, None]).T @ structure.x
    delta_y = []
    for t in range(model.n_times):
        pts = structure.y[t][seqs[:, t]]
        delta_y.append((pts * p[:, None]).T @ pts)

    lam = np.hstack(structure.lambdas)
    dy_block = np.zeros((lam.shape[1], lam.shape[1]))
    off = 0
    for block in delta_y:
        k = block.shape[0]
        dy_block[off : off + k, off : off + k] = block
        off += k
    dx_root, dx_inv_root = _sym_sqrt(delta_x)
    h = dx_root @ lam @ dy_block @ lam.T @ dx_root
    w, v = np.linalg.eigh(h)
    order = np.argsort(-w)
    w = np.clip(w[order], 0.0, None)
    (v,) = orient_columns(v[:, order])
    sigma = np.sqrt(w)
    if np.any(sigma <= 0):
        raise ValueError("rank-deficient moment structure; lower d")
    l_map = dx_inv_root @ v @ np.diag(np.sqrt(sigma))
    r_star = np.diag(1.0 / sigma) @ l_map.T
    return MomentMatrices(
        delta_x=delta_x, delta_y=delta_y, sigma=sigma, l_map=l_map, r_star=r_star
    )


def balanced_node_points(
    structure: LatentStructure, node_sequences: np.ndarray, moments: MomentMatrices
):
    """Noise-free per-node positions (left, rights) in balanced spectral
    coordinates: those of :func:`noise_free_embedding` up to one orthogonal
    transform when the moments use the empirical sequence frequencies of the
    given nodes, as a model from :func:`model_from_dsbm` of those nodes does.
    """
    left_s, rights_s = structure.node_points(node_sequences)
    left = left_s @ moments.l_map
    l_inv_t = np.linalg.inv(moments.l_map).T
    rights = [
        rights_s[t] @ structure.lambdas[t].T @ l_inv_t
        for t in range(structure.model.n_times)
    ]
    return left, rights


def theoretical_error_covariance(
    structure: LatentStructure,
    t: int,
    state: int,
    *,
    regime: str = "dense",
    moments: MomentMatrices | None = None,
) -> np.ndarray:
    """Asymptotic covariance of a time-t embedding row for a node in the given
    state, in balanced spectral coordinates.

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
    if moments is None:
        moments = moment_matrices(structure)
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
    return moments.r_star @ inner @ moments.r_star.T


@dataclass(frozen=True)
class ExchangeabilityResult:
    """Comparison of two states' kernel rows at one time point."""

    exact: bool
    proportional: bool
    scale: float | None
    residual: float


def exchangeable_states(model: FiniteModel, t: int, a: int, b: int) -> ExchangeabilityResult:
    """Decide whether states a and b are exchangeable at time t.

    Exact exchangeability means equal kernel rows, so the states are
    statistically indistinguishable at that time and share one right position.
    Proportional (degree-scaled) exchangeability means row_a = scale * row_b,
    so the positions differ by that scalar only.
    """
    kernel = model.kernels[t]
    row_a, row_b = kernel[a], kernel[b]
    norm = max(np.max(np.abs(row_a)), np.max(np.abs(row_b)), 1e-300)
    exact_res = float(np.max(np.abs(row_a - row_b)))
    if exact_res <= ROW_RTOL * norm:
        return ExchangeabilityResult(True, True, 1.0, exact_res)
    denom = float(row_b @ row_b)
    if denom == 0.0:
        return ExchangeabilityResult(False, False, None, exact_res)
    scale = float(row_a @ row_b) / denom
    prop_res = float(np.max(np.abs(row_a - scale * row_b)))
    if scale > 0 and prop_res <= ROW_RTOL * norm:
        return ExchangeabilityResult(False, True, scale, prop_res)
    return ExchangeabilityResult(False, False, None, exact_res)


def exchangeability_classes(model: FiniteModel, t: int) -> list:
    """Partition the realized states at time t into groups with equal kernel
    rows. Returns a list of lists of states."""
    realized = model.realized_states(t).tolist()
    classes: list[list[int]] = []
    for state in realized:
        for group in classes:
            if exchangeable_states(model, t, state, group[0]).exact:
                group.append(state)
                break
        else:
            classes.append([state])
    return classes


def model_from_dsbm(spec: DsbmSpec):
    """Summarize a block model as a finite-state model.

    States at time t are the distinct (community, degree weight) pairs present
    there; sequences are the distinct node trajectories with their empirical
    frequencies. Returns (model, node_sequences) where node_sequences[i] is
    the sequence index of node i.
    """
    t_count = spec.n_snapshots
    n = spec.n_nodes
    weights = (
        spec.degree_weights
        if spec.degree_weights is not None
        else np.ones(n)
    )

    kernels = []
    state_of_node = np.empty((t_count, n), dtype=int)
    for t in range(t_count):
        pairs = list(
            dict.fromkeys(
                zip(spec.memberships[t].tolist(), weights.tolist())
            )
        )
        pairs.sort()
        index = {pair: i for i, pair in enumerate(pairs)}
        for i in range(n):
            state_of_node[t, i] = index[(spec.memberships[t][i], weights[i])]
        communities = np.array([k for k, _ in pairs])
        w = np.array([wv for _, wv in pairs])
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
