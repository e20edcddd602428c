"""Numerical primitives: truncated SVD, orthogonal Procrustes, spherical coordinates.

All routines are pure functions of their inputs plus an explicit seed; for a
fixed seed the results are reproducible run to run, and truncated_svd's are
the same bytes at any BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TruncatedSvd:
    """Top-d singular triplets of a matrix.

    u: (m, d) column-orthonormal left vectors.
    s: (d,) singular values, non-increasing.
    v: (p, d) column-orthonormal right vectors.
    gram_products: products Lanczos applied, of the Gram operator or, for a
        symmetric matrix, of the matrix itself.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    gram_products: int = 0


def orient_columns(u: np.ndarray, *partners: np.ndarray):
    """Canonical column signs: the largest-magnitude entry of each column of u
    is made positive (ties resolved by lowest row index).

    Each partner matrix flips its columns with u, so products such as
    u @ diag(s) @ v.T are unchanged. Returns the oriented u followed by the
    oriented partners; values are only multiplied by +-1, so magnitudes stay
    bit-identical.
    """
    rows = np.argmax(np.abs(u), axis=0)
    signs = np.where(u[rows, np.arange(u.shape[1])] < 0, -1.0, 1.0)
    return (u * signs,) + tuple(p * signs for p in partners)


# largest residual |beta s_ki| of a converged Ritz pair, per largest Ritz value
LANCZOS_TOLERANCE = 1e-14


# Long reductions run in numpy's einsum loops (optimize off), which sum in one
# order; threaded BLAS adds a long sum's parts in an order set by thread count.
def _norm(x) -> float:
    return np.sqrt(np.einsum("i,i", x, x))


def _project_off(rows: np.ndarray, w: np.ndarray) -> None:
    """Subtract from w, in place, its projection onto the orthonormal rows."""
    w -= np.einsum("ki,k->i", rows, np.einsum("ki,i->k", rows, w))


def _uniforms(seed: int, stream: int, size: int, skip: int = 0) -> np.ndarray:
    """``size`` uniforms in [-1, 1): SplitMix64's top 53 bits (Steele, Lea &
    Flood 2014) at ``seed``'s counters stream * 2**40 + skip + 1, + 2, ...;
    streams: 0 starts Lanczos, p + 1 follows its product p, 1 fills null rows."""
    x = np.arange(size, dtype=np.uint64) + np.uint64((stream << 40) + skip + 1)
    x *= np.uint64(0x9E3779B97F4A7C15)
    x += np.uint64(seed)  # array arithmetic wraps mod 2**64 without a warning
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= x >> np.uint64(shift)
        x *= np.uint64(factor)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)) * 2.0**-52 - 1.0


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(const: int, mult: int):
    """seed_seq_fe's hash, mod 2**32: xor the constant, step the constant by
    ``mult``, multiply by it and xor-shift; the constant carries over calls."""
    def hashmix(value):
        nonlocal const
        value = (value ^ const) * (const := const * mult & _M32) & _M32
        return value ^ value >> 16
    return hashmix


def seed_words(seed: int, n: int, spawn_key: tuple = ()) -> list:
    """numpy's ``SeedSequence(seed, spawn_key=spawn_key).generate_state(n)``,
    the same uint32 words as ints: O'Neill's seed_seq_fe with a pool of 4.
    Child i of ``spawn(...)`` has spawn key ``spawn_key + (i,)``."""
    def words(value):  # 32-bit words, least significant first
        if value < 0:
            raise ValueError(f"seed={value} is negative")
        return [value & _M32] + (words(value >> 32) if value >> 32 else [])

    entropy, hashmix = words(seed), _hashmix(0x43B0D7E5, 0x931E8875)
    if spawn_key:  # the seed padded to the pool, then the key's words
        entropy += [0] * (4 - len(entropy)) + [w for k in spawn_key for w in words(k)]

    def mix(x, y):
        x = (0xCA01F9DD * x - 0x4973F715 * hashmix(y)) & _M32
        return x ^ x >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], pool[src])
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], word)
    out = _hashmix(0x8B51F9DD, 0x58F38DED)
    return [out(pool[i % 4]) for i in range(n)]


class Pcg64:
    """numpy's ``Generator(PCG64(seed))``, without importing numpy.random:
    the same integers(n), random() and choice(n, p) draws, the last taken as
    choice(p). The state and increment are SeedSequence(seed)'s 8 words as 4
    little-endian uint64s; each 64-bit output is PCG's XSL-RR of the 128-bit
    LCG state after a step (O'Neill 2014), and a 32-bit draw takes the low
    half of one, keeping the high half for the next."""

    def __init__(self, seed: int):
        w = [a | b << 32 for a, b in zip(*[iter(seed_words(seed, 8))] * 2)]
        self.inc = (w[2] << 64 | w[3]) << 1 & _M128 | 1
        self.state = ((self.inc + (w[0] << 64 | w[1])) * _PCG_MULT + self.inc) & _M128
        self.upper = None

    def next64(self) -> int:
        self.state = (self.state * _PCG_MULT + self.inc) & _M128
        x, r = (self.state >> 64 ^ self.state) & _M64, self.state >> 122
        return (x >> r | x << (64 - r)) & _M64

    def next32(self) -> int:
        if self.upper is not None:
            word, self.upper = self.upper, None
            return word
        word = self.next64()
        self.upper = word >> 32
        return word & _M32

    def integers(self, n: int) -> int:
        """Uniform in [0, n), 0 < n <= 2**32: Lemire's multiply with
        rejection (2019); n = 1 draws nothing."""
        if not 0 < n <= 1 << 32:
            raise ValueError(f"n={n} out of range (0, 2**32]")
        while n > 1:
            m = self.next32() * n
            if m & _M32 >= (1 << 32) % n:
                return m >> 32
        return 0

    def random(self) -> float:
        return (self.next64() >> 11) * 2.0**-53

    def choice(self, p: np.ndarray) -> int:
        """An index drawn with probabilities p, as numpy's choice(len(p), p=p)."""
        cdf = np.cumsum(p)
        return int(np.searchsorted(cdf / cdf[-1], self.random(), side="right"))


def _lanczos(apply, side: int, d: int, start: np.ndarray, seed: int = 0):
    """Top-d eigenpairs by magnitude of the symmetric operator x -> apply(x)
    on vectors of length ``side``: Lanczos from ``start``, each new vector
    projected off the whole basis. A step whose residual vanishes has found
    an invariant subspace (the range of an operator of rank below d, say);
    the run goes on from a fresh direction of ``seed`` with a zero coupling.
    Convergence is tested every eighth of the steps so far, since each test
    solves the projected matrix h anew. A basis of 2d + 32 vectors restarts
    thick (Wu & Simon 2000): it keeps the Ritz vectors of the d + 16 largest
    Ritz values, to which the residual stays coupled, so memory stays at 2d +
    32 vectors. Returns the d values by decreasing magnitude, the (side, d)
    orthonormal Ritz vectors and the product count.
    """
    limit = min(side, 2 * d + 32)
    basis = np.empty((min(limit, 32), side))  # one Lanczos vector per row
    h = np.zeros((len(basis), len(basis)))  # the operator in that basis
    q, coupling = start / _norm(start), np.zeros(0)
    k, products, check, scale = 0, 0, 2 * d, 0.0
    while True:
        if k == len(basis):
            # grown on demand: all 2d + 32 rows up front raised the benchmark's
            # dsbm_large_cli peak_rss_mb, set by its omnibus stage, from 61.41
            # to 62.58 MiB (median of 6 alternating runs, 2 cores, all higher)
            grown = min(2 * k, limit)
            basis = np.concatenate([basis, np.empty((grown - k, side))])
            h = np.pad(h, (0, grown - k))
        basis[k], h[k, :k], h[:k, k] = q, coupling, coupling
        w = apply(q)
        products += 1
        h[k, k] = np.einsum("i,i", q, w)
        linked = np.flatnonzero(coupling)  # the previous vector, or all kept ones
        w -= h[k, k] * q + np.einsum("ki,k->i", basis[linked], coupling[linked])
        k += 1
        _project_off(basis[:k], w)  # after the recurrence one pass suffices
        beta = _norm(w)
        if not np.isfinite(beta):
            raise ValueError("operator returned non-finite values")
        scale = max(scale, abs(h[k - 1, k - 1]), beta)
        if k < side and beta <= np.finfo(float).eps * scale:
            beta, w = 0.0, _uniforms(seed, products + 1, side)
            for _ in range(2):  # a random vector needs a second pass
                _project_off(basis[:k], w)
        coupling = np.zeros(k)
        coupling[-1] = beta
        if k == side or k >= check or k == limit:
            values, s = np.linalg.eigh(h[:k, :k])
            order = np.argsort(-np.abs(values), kind="stable")
            residuals = np.abs(beta * s[-1, order[:d]])
            if k == side or np.all(residuals <= LANCZOS_TOLERANCE * np.abs(values).max()):
                ritz = np.einsum("ki,kj->ij", basis[:k], s[:, order[:d]])
                return values[order[:d]], ritz, products
            if k == limit:
                keep = order[:d + 16]
                basis[:keep.size] = np.einsum("kj,ki->ji", s[:, keep], basis[:k])
                h[:k, :k] = np.diag(np.pad(values[keep], (0, k - keep.size)))
                coupling, k = beta * s[-1, keep], keep.size
            check = k + max(1, k // 8)
        q = w / _norm(w)


class SymmetricOperator:
    """The symmetric side x side matrix x -> apply(x), as truncated_svd reads it."""

    def __init__(self, apply, side: int):
        self.apply, self.shape = apply, (side, side)

    def __matmul__(self, x):
        return self.apply(x)

    @property
    def T(self) -> "SymmetricOperator":
        return self


def truncated_svd(m, d: int, seed: int = 0) -> TruncatedSvd:
    """Rank-d truncated SVD with a canonical sign convention.

    ``m`` may be a dense array or any operator with ``.shape``, ``@`` and
    ``.T`` (a sparse matrix, :class:`~dynembed.netseries.Unfolding`). At every
    d, the top-d eigenvectors q of the smaller-side Gram operator x -> a @
    (a.T @ x) come from :func:`_lanczos`, started from a vector drawn with
    ``seed``. The eigenvectors of B B^T, for the d-row projection B = q.T @
    m, turn q into u and B into the rows s_j v_j. An m that is its own
    transpose, ``m.T is m`` (a :class:`SymmetricOperator`, a one-snapshot
    unfolding), is decomposed directly, with half the products: its top-d
    eigenpairs (l, q) by magnitude give u = q, s = |l| and v = sign(l) q, a
    zero counted positive. A zero matrix has zero singular values.

    Raises ValueError when d or the seed is out of range (a seed is an
    integer in [0, 2**64)), the matrix has non-finite entries, or m is
    neither array-like nor an operator with ``.T``.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed={seed} out of range [0, 2**64)")
    if isinstance(m, np.ndarray) or not hasattr(m, "T"):
        try:
            m = np.asarray(m, dtype=float)
        except TypeError:
            raise ValueError(f"m ({type(m).__name__}) is neither array-like nor an operator "
                             "with .shape, @ and .T; a symmetric one can be wrapped as "
                             "SymmetricOperator(lambda x: m @ x, side)") from None
    rows, cols = m.shape
    if not 1 <= d <= min(rows, cols):
        raise ValueError(f"d={d} out of range for {rows}x{cols} matrix")
    # a sparse matrix or weighted pattern holds its entries in .data
    entries = m if isinstance(m, np.ndarray) else getattr(m, "data", None)
    if entries is not None and not np.all(np.isfinite(entries)):
        raise ValueError("matrix contains non-finite entries")
    # a is the wide orientation of m: its rows are the smaller side
    a = m if rows <= cols else m.T
    start = _uniforms(seed, 0, a.shape[0])
    if m.T is m:
        values, u, products = _lanczos(lambda x: m @ x, rows, d, start, seed)
        s, v = np.abs(values), u * np.where(values < 0, -1.0, 1.0)
    else:
        _, q, products = _lanczos(lambda x: a @ (a.T @ x), a.shape[0], d, start, seed)
        # b = B^T; row j of w is s_j v_j, and s_j is its norm: the root of a
        # small eigenvalue of B B^T would keep only half the digits of s_j
        b = a.T @ q
        _, ub = np.linalg.eigh(np.einsum("ia,ib->ab", b, b))
        w = np.einsum("ia,ab->bi", b, ub)
        s = np.sqrt(np.einsum("bi,bi->b", w, w))
        order = np.argsort(-s, kind="stable")
        ub, w, s = ub[:, order], w[order], s[order]
        for j, x in enumerate(w):  # Gram-Schmidt, twice; a null row is filled from the seed
            for _ in range(2):
                _project_off(w[:j], x)
            if not _norm(x) > np.finfo(float).eps * s[0]:  # s_j is 0 or its round-off
                x[:] = _uniforms(seed, 1, x.size, j * x.size)
                for _ in range(2):
                    _project_off(w[:j], x)
            x /= _norm(x)
        small, large = np.einsum("ia,ab->ib", q, ub), w.T
        u, v = (small, large) if rows <= cols else (large, small)
    u, v = orient_columns(u, v)
    return TruncatedSvd(u=u, s=np.asarray(s, dtype=float), v=v, gram_products=products)


@dataclass(frozen=True)
class ProcrustesResult:
    """Solution of min over orthogonal q of ||a @ q - b||_F."""

    q: np.ndarray
    residual: float
    unique: bool


def procrustes(a: np.ndarray, b: np.ndarray) -> ProcrustesResult:
    """Orthogonal Procrustes alignment of a onto b.

    Solved through the SVD of a.T @ b. When that cross-product is rank
    deficient the minimizer is not unique; one minimizer is still returned,
    flagged with unique=False.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries")
    u, s, vt = np.linalg.svd(a.T @ b)
    q = u @ vt
    unique = bool(s.size == 0 or s[-1] > 1e-12 * max(s[0], 1.0))
    residual = float(np.linalg.norm(a @ q - b))
    return ProcrustesResult(q=q, residual=residual, unique=unique)


def spherical_coordinates(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map rows of an n x d matrix (d >= 2) to d-1 angles in [0, 2*pi).

    The first angle is atan2(x2, x1); each later angle j is
    atan2(x_{j+1}, ||x_{1..j}||). Angles depend only on the ray through a row,
    so positively scaled rows map to the same point. Zero rows are excluded:
    the returned mask marks active (nonzero) rows, and the angle matrix
    carries one row per input row with zeros in the inactive ones.

    Returns (angles, active_mask).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] < 2:
        raise ValueError("need an n x d matrix with d >= 2")
    n, d = y.shape
    norms = np.linalg.norm(y, axis=1)
    active = norms > 0
    angles = np.zeros((n, d - 1))
    if np.any(active):
        x = y[active]
        out = np.empty((x.shape[0], d - 1))
        out[:, 0] = np.arctan2(x[:, 1], x[:, 0])
        # cumulative prefix norms ||x_{1..j}||
        prefix = np.sqrt(np.cumsum(x**2, axis=1))
        for j in range(1, d - 1):
            out[:, j] = np.arctan2(x[:, j + 1], prefix[:, j])
        angles[active] = np.mod(out, 2.0 * np.pi)
    return angles, active
