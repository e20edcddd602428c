"""Dynamic stochastic block model specification and sampling.

A model is a sequence of K x K symmetric inter-community probability
matrices, one per time point, together with community memberships (fixed or
time-varying), optional per-node degree weights and a global sparsity factor.
Edge probabilities are

    P_t[i, j] = rho * w_i * w_j * B_t[z_i(t), z_j(t)]

and snapshots are independent Bernoulli draws on the strict upper triangle,
each drawn as the rising keys i n + j, i < j, of its edges: sampling needs
numpy alone.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .netseries import GraphSeries, SymmetricPattern


@dataclass
class DsbmSpec:
    """Parameters of a dynamic stochastic block model.

    block_matrices: list of (K, K) symmetric matrices, entries in [0, 1].
    n_nodes: number of nodes.
    memberships: (T, n) or (n,) integer community labels in [0, K); a 1-d
        array means the same labels at every time. None distributes nodes
        over communities in equal contiguous blocks.
    degree_weights: optional (n,) positive, finite multipliers w_i.
    rho: global sparsity factor in (0, 1].
    """

    block_matrices: list
    n_nodes: int
    memberships: np.ndarray | None = None
    degree_weights: np.ndarray | None = None
    rho: float = 1.0

    n_communities: int = field(init=False)
    n_snapshots: int = field(init=False)

    def __post_init__(self):
        self.block_matrices = [np.asarray(b, dtype=float) for b in self.block_matrices]
        if not self.block_matrices:
            raise ValueError("need at least one block matrix")
        k = self.block_matrices[0].shape[0]
        for b in self.block_matrices:
            if b.shape != (k, k):
                raise ValueError("all block matrices must be K x K with the same K")
            if not np.all(np.isfinite(b)):
                raise ValueError("block probabilities must be finite")
            if not np.allclose(b, b.T):
                raise ValueError("block matrices must be symmetric")
            if np.any(b < 0) or np.any(b > 1):
                raise ValueError("block probabilities must lie in [0, 1]")
        self.n_communities = k
        self.n_snapshots = len(self.block_matrices)
        if not 0 < self.rho <= 1:
            raise ValueError("rho must lie in (0, 1]")

        if self.memberships is None:
            # equal contiguous blocks, remainder spread over the first groups
            base = np.repeat(np.arange(k), self.n_nodes // k)
            extra = np.arange(self.n_nodes - base.shape[0]) % k
            z = np.sort(np.concatenate([base, extra]))
            self.memberships = np.tile(z, (self.n_snapshots, 1))
        else:
            z = np.asarray(self.memberships, dtype=int)
            if z.ndim == 1:
                z = np.tile(z, (self.n_snapshots, 1))
            if z.shape != (self.n_snapshots, self.n_nodes):
                raise ValueError(
                    f"memberships must be ({self.n_snapshots}, {self.n_nodes}), got {z.shape}"
                )
            if z.min() < 0 or z.max() >= k:
                raise ValueError("membership labels out of range")
            self.memberships = z

        if self.degree_weights is not None:
            w = np.asarray(self.degree_weights, dtype=float)
            if w.shape != (self.n_nodes,):
                raise ValueError("degree_weights must have one entry per node")
            if not np.all(np.isfinite(w) & (w > 0)):
                raise ValueError("degree_weights must be positive and finite")
            self.degree_weights = w

    def gram_matrix(self, t: int) -> np.ndarray:
        """Edge probability matrix P_t (dense, zero diagonal kept nonzero:
        the diagonal is defined by the same formula but never sampled)."""
        self._max_probability(t)  # raises when an entry exceeds 1
        i = np.arange(self.n_nodes)
        return self._probability_at(t, i[:, None], i)

    def gram_matrices(self) -> list:
        return [self.gram_matrix(t) for t in range(self.n_snapshots)]

    def _max_probability(self, t: int) -> float:
        """Largest entry of P_t, diagonal included, clipped to 1; ValueError
        when an entry exceeds 1.

        Taken per pair of communities present at t, at the largest weight in
        each: rounded products grow with their factors, so this is the
        largest entry ``_probability_at`` evaluates, bit for bit.
        """
        z = self.memberships[t]
        present = np.unique(z)
        p = self.block_matrices[t][np.ix_(present, present)]
        if self.degree_weights is not None:
            w = np.zeros(self.n_communities)
            np.maximum.at(w, z, self.degree_weights)
            p = p * np.outer(w[present], w[present])
        p_max = float(np.max(p * self.rho, initial=0.0))
        if p_max > 1.0 + 1e-12:
            raise ValueError("edge probabilities exceed 1; lower rho or weights")
        return min(p_max, 1.0)

    def _probability_at(self, t: int, i, j) -> np.ndarray:
        """P_t at the (broadcast) index arrays i, j, clipped to [0, 1]; each
        entry is evaluated by the same operations in the same order wherever
        it is asked for, so a draw at some pairs agrees with the whole P_t."""
        z = self.memberships[t]
        p = self.block_matrices[t][z[i], z[j]]
        if self.degree_weights is not None:
            p *= self.degree_weights[i] * self.degree_weights[j]
        p *= self.rho
        return np.clip(p, 0.0, 1.0, out=p)


# Philox words drawn per slab of rows while sampling; memory per slab is a
# few bytes per word, so a draw needs this plus its edges, not n^2
_SLAB_CELLS = 1 << 18


def _sample_rows(n: int, probability_at, p_max: float, seed: int,
                 stream: int) -> np.ndarray:
    """Bernoulli draw of the strict upper triangle, slab of rows by slab, as
    the rising keys i n + j of its edges (i, j).

    ``probability_at(i, j)`` returns the entries at index arrays i, j of an
    n x n edge probability matrix whose entries are at most ``p_max``. The
    uniforms are those of ``Generator.random`` on the Philox stream keyed by
    (seed, stream), compared with the pairs j > i in row-major order. On
    Philox that uniform is (w >> 11) * 2**-53 of the raw word w (Salmon et
    al., SC 2011, for the counter-based stream), so only a word below
    ceil(p_max * 2**53) << 11 can make an edge: the probabilities are
    evaluated at those pairs alone and compared there exactly as the
    generator would, so the draw is the same bit for bit. A Philox stream
    drawn in pieces equals one draw of the total length, so the slab size
    never changes a sample.
    """
    # a uint64 key: numpy reads a tuple holding a seed past 2**63 - 1 as
    # float64, which rounds it
    words_of = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)).random_raw
    limit = math.ceil(p_max * 2.0**53)  # p_max * 2**53 is exact
    # np.uint64 operands keep the shifts unsigned under numpy 1.x promotion
    below = None if limit >= 1 << 53 else np.uint64(limit << 11)
    step = max(1, _SLAB_CELLS // max(n, 1))
    hits = [np.empty(0, np.intp)]  # i n + j of each edge (i, j)
    for lo in range(0, n, step):
        i = np.arange(lo, min(lo + step, n))
        # start[r]: position of pair (i[r], i[r] + 1) in the slab's pair order
        start = np.concatenate([[0], np.cumsum(n - 1 - i)])
        words = words_of(start[-1])
        at = np.arange(words.shape[0]) if below is None else np.flatnonzero(words < below)
        r = np.searchsorted(start, at, side="right") - 1
        rows = lo + r
        cols = at - start[r] + rows + 1
        uniform = (words[at] >> np.uint64(11)) * 2.0**-53
        hit = uniform < probability_at(rows, cols)
        hits.append(rows[hit] * n + cols[hit])
    return np.concatenate(hits)


def dsbm_snapshots(spec: DsbmSpec, seed: int = 0):
    """Each snapshot's rising edge keys i n + j, i < j, drawn when asked
    for; snapshot t uses stream t. Every P_t's largest entry is taken here,
    so a model whose probabilities exceed 1 raises before any draw.

    Each snapshot evaluates P_t one slab of rows at a time, so memory grows
    with the edges drawn rather than with n^2; the draw equals one
    whole-triangle draw of ``spec.gram_matrix(t)`` from the Philox stream
    keyed by (seed, t).
    """
    limits = [spec._max_probability(t) for t in range(spec.n_snapshots)]
    return (_sample_rows(spec.n_nodes, partial(spec._probability_at, t), p_max, seed, stream=t)
            for t, p_max in enumerate(limits))


def sample_dsbm(spec: DsbmSpec, seed: int = 0) -> GraphSeries:
    """The series of :func:`dsbm_snapshots`, every snapshot held at once; a
    caller that handles one snapshot's keys at a time, as ``dynembed
    simulate`` does, holds no pattern."""
    return GraphSeries(snapshots=[SymmetricPattern.from_upper(upper, spec.n_nodes)
                                  for upper in dsbm_snapshots(spec, seed)])


def _parse_matrix(raw: str) -> np.ndarray:
    rows = [r.strip() for r in raw.strip().splitlines() if r.strip()]
    return np.array([[float(x) for x in r.replace(",", " ").split()] for r in rows])


def load_dsbm_config(path) -> DsbmSpec:
    """Read a model from an ini-style config file.

    Layout::

        [model]
        n_nodes = 1000
        rho = 1.0
        # optional: memberships = 0 0 1 1 2 ...  (one label per node)
        # optional: degree_weights = 1.0 1.0 0.5 ...  (one weight per node)

        [snapshot.1]
        block_matrix =
            0.08 0.02
            0.02 0.20

        [snapshot.2]
        ...

    Snapshot sections are ordered by their numeric suffix. A file that does
    not parse as this layout raises ValueError naming it.
    """
    cp = configparser.ConfigParser()
    try:
        if not cp.read(str(path), encoding="utf-8"):
            raise FileNotFoundError(path)
        if "model" not in cp:
            raise ValueError("config needs a [model] section")
        model = cp["model"]
        n_nodes = model.getint("n_nodes")
        if n_nodes is None or n_nodes <= 0:
            raise ValueError("n_nodes must be a positive integer")
        rho = model.getfloat("rho", fallback=1.0)

        snapshot_sections = []
        for name in cp.sections():
            if name.startswith("snapshot."):
                try:
                    order = int(name.split(".", 1)[1])
                except ValueError:
                    raise ValueError(f"bad snapshot section name {name!r}") from None
                snapshot_sections.append((order, name))
        if not snapshot_sections:
            raise ValueError("config needs at least one [snapshot.N] section")
        snapshot_sections.sort()
        blocks = []
        for _, name in snapshot_sections:
            try:
                blocks.append(_parse_matrix(cp[name]["block_matrix"]))
            except (KeyError, ValueError):
                raise ValueError(f"[{name}] needs a block_matrix of numbers "
                                 "in rows of equal length") from None

        memberships = None
        if "memberships" in model:
            memberships = np.array([int(x) for x in model["memberships"].split()])
        weights = None
        if "degree_weights" in model:
            weights = np.array([float(x) for x in model["degree_weights"].split()])

        return DsbmSpec(
            block_matrices=blocks,
            n_nodes=n_nodes,
            memberships=memberships,
            degree_weights=weights,
            rho=rho,
        )
    except (configparser.Error, ValueError) as exc:
        msg = str(exc).splitlines()[0]
        raise ValueError(msg if str(path) in msg else f"{path}: {msg}") from None


def bundled_config_path(name: str) -> Path:
    """Path of a config file shipped with the package."""
    path = Path(__file__).parent / "configs" / f"{name}.cfg"
    if not path.exists():
        raise FileNotFoundError(f"no bundled config named {name!r}")
    return path
