"""Adjacency snapshot sequences and timestamped edge list ingestion.

A snapshot is held as :class:`UpperTriangle`, the CSR pattern of its strict
upper triangle with no data array, in memory and in ``snapshots.npz``. The
embedders apply each snapshot A as a :class:`SymmetricPattern`, the full
symmetric pattern as numpy arrays, and the n x Tn unfolding (A_1 | ... |
A_T) as an :class:`Unfolding` of those, building neither matrix. Everything
here runs on numpy alone; scipy is imported only by the helpers that take or
return scipy matrices (``UpperTriangle.from_matrix``, ``tocsr``,
``GraphSeries.snapshots`` and ``unfold``).
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ingestion enumerates every window of [start, end) before the daily band
# drops any, and builds one snapshot for each window it keeps
MAX_WINDOWS = 2**20

# snapshots.npz layout of GraphSeries.save; format 1, a file with no format
# entry, held both triangles of each snapshot as row_t/col_t
SERIES_FORMAT = 2


class ParseError(ValueError):
    """Malformed edge list input; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(eq=False)
class UpperTriangle:
    """One undirected simple graph on n nodes as the CSR pattern of its strict
    upper triangle U, the adjacency matrix being A = U + U^T.

    indptr: (n + 1,) row pointers.
    indices: column of each edge, above the diagonal and increasing within a
        row. Both are int32, as scipy would index them, unless n or the edge
        count needs int64.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        wide = max(self.indptr.size, self.indices.size) > np.iinfo(np.int32).max
        dtype = np.int64 if wide else np.int32
        self.indptr = np.asarray(self.indptr, dtype=dtype)
        self.indices = np.asarray(self.indices, dtype=dtype)

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.n

    @property
    def edges(self) -> int:
        return self.indices.size

    @classmethod
    def from_pairs(cls, i, j, n: int) -> "UpperTriangle":
        """The graph with edges (i[k], j[k]), given as distinct pairs i < j
        in row-major order."""
        counts = np.bincount(np.asarray(i, dtype=np.int64), minlength=n)
        return cls(np.concatenate([[0], np.cumsum(counts)]), j)

    @classmethod
    def from_matrix(cls, a, t: int) -> "UpperTriangle":
        """The pattern of a dense or scipy n x n matrix, snapshot ``t`` of a
        series. Raises ValueError unless it is square, symmetric and 0/1 with
        a zero diagonal."""
        import scipy.sparse as sp
        a = sp.csr_matrix(a)
        upper = sp.triu(a, k=1, format="csr")
        upper.eliminate_zeros()
        upper.sum_duplicates()
        if (a.shape[0] != a.shape[1] or a.diagonal().any() or np.any(upper.data != 1)
                or (a != a.T).nnz):
            raise ValueError(f"snapshot {t} is not square symmetric 0/1 with a zero diagonal")
        return cls(upper.indptr, upper.indices)

    def rows(self) -> np.ndarray:
        """Row of each edge, aligned with ``indices``."""
        return np.repeat(np.arange(self.n, dtype=self.indices.dtype), np.diff(self.indptr))

    def tocsr(self):
        """A as a symmetric {0,1} scipy CSR matrix."""
        import scipy.sparse as sp
        upper = sp.csr_matrix((np.ones(self.edges), self.indices, self.indptr), shape=self.shape)
        return (upper + upper.T).tocsr()


class SymmetricPattern:
    """A symmetric n x n matrix A, given by its entries in row-major order, as
    numpy CSR arrays: ``cols`` (intp, which a gather takes unconverted),
    ``starts`` of the rows and ``data``, None for a 0/1 matrix. A x is one
    gather and one ``np.add.reduceat``; reduceat cannot sum an empty run, so
    an empty row holds one entry in column n, which reads a zero appended to x.
    """

    def __init__(self, rows, cols, data, n: int):
        counts = np.bincount(rows, minlength=n)
        where = (np.cumsum(counts) - counts)[counts == 0]
        self.n, self.shape = n, (n, n)
        self.cols = np.insert(np.asarray(cols, dtype=np.intp), where, n)
        self.data = None if data is None else np.insert(data, where, 0.0)
        sizes = np.maximum(counts, 1)
        self.starts = np.cumsum(sizes) - sizes

    @classmethod
    def from_triangle(cls, tri: UpperTriangle) -> "SymmetricPattern":
        """The 0/1 matrix A = U + U^T of a snapshot."""
        n, rows = tri.n, tri.rows().astype(np.int64)
        keys = np.concatenate([rows * n + tri.indices, tri.indices.astype(np.int64) * n + rows])
        keys.sort()
        return cls(keys // n, keys % n, None, n)

    @classmethod
    def from_matrix(cls, m) -> "SymmetricPattern":
        """(M + M^T) / 2 for a square dense, nested-list or scipy sparse M,
        which for a symmetric M is M exactly; a sparse M is added by its own
        methods."""
        if not hasattr(m, "tocsr"):
            m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"matrix of shape {m.shape} is not square")
        if isinstance(m, np.ndarray):
            half = (m + m.T) * 0.5
            rows, cols = np.nonzero(half)
            return cls(rows, cols, half[rows, cols], m.shape[0])
        half = ((m + m.T) * 0.5).tocsr()
        half.sum_duplicates()  # sorted columns, no repeats
        half = half.tocoo()
        return cls(half.row, half.col, half.data, m.shape[0])

    @property
    def T(self) -> "SymmetricPattern":
        return self

    def __matmul__(self, x):
        if x.ndim == 2:
            return np.stack([self @ column for column in x.T], axis=1)
        gathered = np.append(x, 0.0).take(self.cols)
        if self.data is not None:
            gathered *= self.data
        return np.add.reduceat(gathered, self.starts)

    def scatter(self, out) -> None:
        """Write A's entries into the n x n array ``out``."""
        rows = np.repeat(np.arange(self.n), np.diff(np.append(self.starts, self.cols.size)))
        real = self.cols < self.n
        out[rows[real], self.cols[real]] = 1.0 if self.data is None else self.data[real]


class Unfolding:
    """The n x (T n) unfolding (A_1 | ... | A_T) of symmetric patterns, or
    its transpose: y -> sum_t A_t y_t for the n-row blocks y_t of y, and x
    -> (A_1 x; ...; A_T x). Nothing is concatenated."""

    def __init__(self, patterns, transposed: bool = False):
        self.patterns, self.transposed = patterns, transposed
        n, width = patterns[0].n, len(patterns) * patterns[0].n
        self.shape = (width, n) if transposed else (n, width)

    @property
    def T(self) -> "Unfolding":
        return Unfolding(self.patterns, not self.transposed)

    def __matmul__(self, x):
        if self.transposed:
            return np.concatenate([a @ x for a in self.patterns])
        n = self.shape[0]
        out = self.patterns[0] @ x[:n]
        for t in range(1, len(self.patterns)):
            out += self.patterns[t] @ x[t * n : (t + 1) * n]
        return out


@dataclass(frozen=True)
class IngestStats:
    """Bookkeeping from edge list ingestion."""

    events_read: int
    events_outside_range: int
    events_masked: int
    self_loops_dropped: int
    duplicate_pairs_collapsed: int


class GraphSeries:
    """A sequence of undirected simple graph snapshots on a shared node set.

    triangles: one :class:`UpperTriangle` per snapshot, the only copy held.
    snapshots: read-only; n x n symmetric {0,1} scipy CSR matrices built from
        the triangles on each access, for library callers that want them.
    node_labels: original labels, index position = node id.
    times: nominal time value per snapshot (window start, or the model time).
    stats: ingestion bookkeeping, or None.

    ``snapshots`` may be given as UpperTriangles or as dense or scipy
    symmetric {0,1} matrices with a zero diagonal; any other matrix raises
    ValueError naming the snapshot.
    """

    def __init__(self, snapshots, node_labels=None, times=None,
                 stats: IngestStats | None = None):
        if not len(snapshots):
            raise ValueError("need at least one snapshot")
        self.triangles = [a if isinstance(a, UpperTriangle) else UpperTriangle.from_matrix(a, t)
                          for t, a in enumerate(snapshots)]
        n = self.n_nodes
        if any(tri.n != n for tri in self.triangles):
            raise ValueError("all snapshots must share the same node set")
        self.node_labels = list(node_labels) if node_labels else list(range(n))
        if len(self.node_labels) != n:
            raise ValueError("node_labels length must match snapshot side")
        self.times = list(times) if times else list(range(self.n_snapshots))
        if len(self.times) != self.n_snapshots:
            raise ValueError("times length must match number of snapshots")
        self.stats = stats

    @property
    def snapshots(self) -> list:
        return [tri.tocsr() for tri in self.triangles]

    @property
    def n_nodes(self) -> int:
        return self.triangles[0].n

    @property
    def n_snapshots(self) -> int:
        return len(self.triangles)

    def unfold(self):
        """Column concatenation (A1 | A2 | ... | AT) as an n x (T*n) scipy CSR
        matrix; the embedders apply an :class:`Unfolding` instead."""
        import scipy.sparse as sp
        return sp.hstack(self.snapshots, format="csr")

    def densities(self) -> np.ndarray:
        """Share of node pairs joined in each snapshot; 0.0 with no pairs."""
        pairs = self.n_nodes * (self.n_nodes - 1) / 2.0
        return np.array([tri.edges / pairs if pairs else 0.0 for tri in self.triangles])

    def save(self, directory) -> None:
        """Write ``labels.txt`` and an uncompressed ``snapshots.npz`` holding
        each snapshot's strict upper triangle as CSR ``indptr_t``/``indices_t``."""
        payload = {"format": np.array(SERIES_FORMAT), "n_nodes": np.array([self.n_nodes]),
                   "times": np.asarray(self.times)}
        for t, tri in enumerate(self.triangles):
            payload[f"indptr_{t}"], payload[f"indices_{t}"] = tri.indptr, tri.indices
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        np.savez(directory / "snapshots.npz", **payload)
        with open(directory / "labels.txt", "w", encoding="utf-8") as fh:
            for label in self.node_labels:
                fh.write(f"{label}\n")

    @classmethod
    def load(cls, directory) -> "GraphSeries":
        """Read the series ``save`` wrote into ``directory``. Raises ValueError
        naming the npz when it cannot be read, is in another format, lacks an
        entry, or holds a snapshot that is not an n-node strict upper triangle
        in CSR order, and naming ``labels.txt`` when it has not n lines."""
        path = Path(directory) / "snapshots.npz"

        def require(ok, what):
            if not ok:
                raise ValueError(f"{path}: {what}")

        try:
            with np.load(path) as payload:
                entries = dict(payload)
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            # np.load takes a file that is neither .npz nor .npy for a pickle
            # and refuses it with a ValueError about unsafe loading
            why = "not an .npz archive" if isinstance(exc, ValueError) else exc
            raise ValueError(f"{path}: unreadable series file: {why}") from None
        version = entries.get("format", np.array(1)).tolist()
        require(version == SERIES_FORMAT, f"series format {version} is not {SERIES_FORMAT}; "
                "re-run `dynembed simulate` to rewrite a series saved by an older version")
        require({"n_nodes", "times"} <= entries.keys(), "no n_nodes or times entry")
        n, times, triangles = int(entries["n_nodes"][0]), entries["times"].tolist(), []
        for t in range(len(times)):
            indptr, indices = entries.get(f"indptr_{t}"), entries.get(f"indices_{t}")
            require(indptr is not None and indices is not None, f"no entries for snapshot {t}")
            require(indptr.dtype.kind in "iu" and indptr.shape == (n + 1,) and indptr[0] == 0
                    and indptr[-1] == indices.size and np.all(np.diff(indptr) >= 0),
                    f"indptr_{t} is not a monotone row pointer of {n} rows")
            rows = np.repeat(np.arange(n), np.diff(indptr))
            require(indices.dtype.kind in "iu" and np.all((rows < indices) & (indices < n)),
                    f"indices_{t} holds an entry outside the strict upper triangle of {n} nodes")
            require(np.all(np.diff(rows * n + indices) > 0),
                    f"indices_{t} repeats or disorders the entries of a row")
            triangles.append(UpperTriangle(indptr, indices))
        labels_path = path.parent / "labels.txt"
        with open(labels_path, encoding="utf-8") as fh:
            labels = [line.rstrip("\n") for line in fh]
        if len(labels) != n:
            raise ValueError(f"{labels_path}: {len(labels)} labels for {n} nodes")
        return cls(snapshots=triangles, node_labels=labels, times=times)


def _in_daily_band(sod, start: float, end: float):
    """Whether seconds of day fall in [start, end); a band with start > end
    wraps midnight, one with start == end is empty."""
    if start <= end:
        return (start <= sod) & (sod < end)
    return (start <= sod) | (sod < end)


def ingest_edge_list(
    path,
    *,
    window_seconds: float,
    start: float | None = None,
    end: float | None = None,
    column_order: str = "time_u_v",
    label_order: str = "first_seen",
    daily_start: float | None = None,
    daily_end: float | None = None,
) -> GraphSeries:
    """Build a snapshot sequence from a whitespace/comma delimited event file.

    Each non-comment line holds a timestamp and two node labels, in the order
    named by ``column_order`` ("time_u_v" or "u_v_time"). Events are binned
    into windows of ``window_seconds`` covering [start, end), by default the
    observed time range. Repeated events for a pair within one window
    collapse to one undirected edge; self loops are dropped. A daily band
    ``daily_start``/``daily_end`` (seconds of day, both or neither) keeps only
    events whose time of day falls in [daily_start, daily_end) and omits the
    windows it never meets, so two 10-hour days binned hourly yield 20
    snapshots; a band with daily_start > daily_end wraps midnight. Nodes are
    numbered by first appearance, or by label with ``label_order="sorted"``.

    Raises ParseError, with a line number, on a malformed line or timestamp
    (non-finite included), and ValueError on a non-finite ``window_seconds``,
    ``start`` or ``end``, half a daily band, a band end outside [0, 86400], a
    band no window meets, more window x n x n cells than int64 keys hold, or
    more than ``MAX_WINDOWS`` windows.
    """
    if column_order not in ("time_u_v", "u_v_time"):
        raise ValueError(f"unknown column_order {column_order!r}")
    if label_order not in ("first_seen", "sorted"):
        raise ValueError(f"unknown label_order {label_order!r}")
    for name, given in (("window_seconds", window_seconds), ("start", start), ("end", end)):
        if given is not None and not math.isfinite(given):
            raise ValueError(f"{name} must be finite, not {given:g}")
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    masked = daily_start is not None or daily_end is not None
    if masked:
        for name, given in (("daily_start", daily_start), ("daily_end", daily_end)):
            if given is None:
                raise ValueError(f"a daily band needs both ends; {name} is missing")
            if not 0 <= given <= 86400:
                raise ValueError(f"{name} {given:g} is outside [0, 86400] seconds of day")

    stamps, ends = [], []  # per event its time, and its two node indices
    index: dict[str, int] = {}  # label -> index, in order of first appearance
    with open(path, encoding="utf-8") as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) < 3:
                raise ParseError(f"expected 3 fields, got {len(parts)}", line_number)
            t_raw, u, v = parts[:3] if column_order == "time_u_v" else parts[2:3] + parts[:2]
            try:
                timestamp = float(t_raw)
            except ValueError:
                raise ParseError(f"bad timestamp {t_raw!r}", line_number) from None
            if not math.isfinite(timestamp):
                raise ParseError(f"non-finite timestamp {t_raw!r}", line_number)
            stamps.append(timestamp)
            ends += index.setdefault(u, len(index)), index.setdefault(v, len(index))
    if not stamps:
        raise ValueError("no events found")

    labels, n = list(index), len(index)
    pairs = np.array(ends, dtype=np.int64).reshape(-1, 2)
    if label_order == "sorted":
        order = sorted(range(n), key=labels.__getitem__)
        pairs = np.argsort(order)[pairs]
        labels = [labels[k] for k in order]

    t = np.array(stamps)
    lo = float(t.min()) if start is None else float(start)
    # the smallest float above the last event keeps it inside [lo, hi) at any
    # magnitude (a fixed offset vanishes below the spacing of epoch seconds)
    hi = float(np.nextafter(t.max(), np.inf)) if end is None else float(end)
    if hi <= lo:
        raise ValueError("empty time range")
    n_windows = np.ceil((hi - lo) / window_seconds)
    if n_windows * n * n >= 2.0 ** 63:  # each (window, i, j) cell is an int64 key
        raise ValueError(f"{n_windows:g} windows of {n} x {n} node pairs overflow int64 keys")
    if n_windows > MAX_WINDOWS:
        raise ValueError(f"{n_windows:g} windows of {window_seconds:g} s exceed "
                         f"the limit of {MAX_WINDOWS} windows")
    n_windows = int(n_windows)
    # one mask per drop reason, each counted among the events the earlier ones
    # keep; with no band, in_band is np.True_ (not True) so that ~in_band is False
    inside = (lo <= t) & (t < hi)
    in_band = _in_daily_band(np.mod(t, 86400.0), daily_start, daily_end) if masked else np.True_
    loop = pairs[:, 0] == pairs[:, 1]
    keep = inside & in_band & ~loop
    day_masked = int(np.count_nonzero(inside & ~in_band))
    w = np.minimum((t[keep] - lo) // window_seconds, n_windows - 1).astype(np.int64)
    cells = np.unique((w * n + pairs[keep].min(axis=1)) * n + pairs[keep].max(axis=1))

    kept = range(n_windows)
    if masked:
        # keep the windows meeting the daily observation band: those starting
        # inside it, and those reaching its next start before they end
        sod = np.mod(lo + np.arange(n_windows) * window_seconds, 86400.0)
        meets = _in_daily_band(sod, daily_start, daily_end) | (
            np.mod(daily_start - sod, 86400.0) < window_seconds)
        kept = np.flatnonzero(meets & (daily_start != daily_end)).tolist()
        if not kept:
            raise ValueError(
                f"no window meets the daily band [{daily_start:g}, {daily_end:g}) s;"
                f" {day_masked} of {t.size} events masked")

    cuts = np.searchsorted(cells, np.arange(n_windows + 1) * (n * n))
    rows, cols = np.divmod(cells % (n * n), n)
    return GraphSeries(
        snapshots=[UpperTriangle.from_pairs(rows[cuts[k]:cuts[k + 1]],
                                            cols[cuts[k]:cuts[k + 1]], n) for k in kept],
        node_labels=labels, times=[lo + k * window_seconds for k in kept],
        stats=IngestStats(
            events_read=t.size,
            events_outside_range=int(t.size - np.count_nonzero(inside)),
            events_masked=day_masked,
            self_loops_dropped=int(np.count_nonzero(inside & in_band & loop)),
            duplicate_pairs_collapsed=int(np.count_nonzero(keep) - cells.size)))
