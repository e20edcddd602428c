"""Adjacency snapshot sequences and timestamped edge list ingestion.

A snapshot A is held in memory as a :class:`SymmetricPattern`, its full
symmetric pattern as numpy arrays, from the sampler and ingestion through
``load`` to the embedders; ``snapshots.npz`` stores its entries above the
diagonal as CSR. The n x Tn unfolding (A_1 | ... | A_T) is applied as an
:class:`Unfolding` of the patterns, never built. Everything here runs on
numpy alone; scipy is imported only by ``SymmetricPattern.tocsr``, which
``GraphSeries.snapshots`` calls.
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
# entry, held each snapshot's entries on both sides of the diagonal as row_t/col_t
SERIES_FORMAT = 2


class ParseError(ValueError):
    """Malformed edge list input; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


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
    def from_upper(cls, rows, cols, n: int) -> "SymmetricPattern":
        """The 0/1 matrix with ones at (i, j) and (j, i) for the distinct
        pairs i = rows[k] < j = cols[k]."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        keys = np.concatenate([rows * n + cols, cols * n + rows])
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

    def entries(self):
        """Row, column and value of each entry in row-major order; the
        values are None for a 0/1 matrix."""
        rows = np.repeat(np.arange(self.n), np.diff(np.append(self.starts, self.cols.size)))
        real = self.cols < self.n
        return rows[real], self.cols[real], None if self.data is None else self.data[real]

    def upper(self):
        """Row and column of each entry above the diagonal, row-major."""
        rows, cols, _ = self.entries()
        above = rows < cols
        return rows[above], cols[above]

    def tocsr(self):
        """A as a scipy CSR matrix."""
        import scipy.sparse as sp
        rows, cols, data = self.entries()
        return sp.csr_matrix((np.ones(rows.size) if data is None else data, (rows, cols)),
                             shape=self.shape)


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


def _snapshot(a, t: int) -> SymmetricPattern:
    """Snapshot ``t`` as a 0/1 pattern: one given as such, or a dense or scipy
    matrix that is square, symmetric and 0/1 with a zero diagonal."""
    if isinstance(a, SymmetricPattern):
        return a
    shape = np.shape(a)
    values = a.tocsr().data if hasattr(a, "tocsr") else np.asarray(a, dtype=float)
    if len(shape) == 2 and shape[0] == shape[1] and np.all((values == 0) | (values == 1)):
        # a 0/1 M has a 0/1 symmetric part (M + M^T) / 2 only where M = M^T
        pattern = SymmetricPattern.from_matrix(a)
        rows, cols, data = pattern.entries()
        if np.all(data == 1) and not np.any(rows == cols):
            pattern.data = None
            return pattern
    raise ValueError(f"snapshot {t} is not square symmetric 0/1 with a zero diagonal")


class GraphSeries:
    """A sequence of undirected simple graph snapshots on a shared node set.

    patterns: one 0/1 :class:`SymmetricPattern` per snapshot, applied by ``unfold()``.
    snapshots: read-only; the patterns as scipy CSR matrices (scipy is a test
        dependency), built on each access for the benchmark's exact scree and
        edge count (``bench/run.py``, ``bench/tracer.py``).
    node_labels: original labels, index position = node id.
    times: nominal time value per snapshot (window start, or the model time).
    stats: ingestion bookkeeping, or None.

    ``snapshots`` may be given as 0/1 patterns (``SymmetricPattern.from_upper``)
    or as dense or scipy symmetric {0,1} matrices with a zero diagonal; any
    other matrix raises ValueError naming the snapshot.
    """

    def __init__(self, snapshots, node_labels=None, times=None,
                 stats: IngestStats | None = None):
        if not len(snapshots):
            raise ValueError("need at least one snapshot")
        self.patterns = [_snapshot(a, t) for t, a in enumerate(snapshots)]
        n = self.n_nodes
        if any(pattern.n != n for pattern in self.patterns):
            raise ValueError("all snapshots must share the same node set")
        self.node_labels = list(range(n)) if node_labels is None else list(node_labels)
        if len(self.node_labels) != n:
            raise ValueError("node_labels length must match snapshot side")
        self.times = list(range(self.n_snapshots)) if times is None else list(times)
        if len(self.times) != self.n_snapshots:
            raise ValueError("times length must match number of snapshots")
        self.stats = stats

    @property
    def snapshots(self) -> list:
        return [pattern.tocsr() for pattern in self.patterns]

    @property
    def n_nodes(self) -> int:
        return self.patterns[0].n

    @property
    def n_snapshots(self) -> int:
        return len(self.patterns)

    def unfold(self) -> Unfolding:
        """The n x (T n) unfolding (A_1 | ... | A_T) that ``embed`` and
        :func:`~dynembed.embedders.uase` decompose, applied to vectors and
        never built."""
        return Unfolding(self.patterns)

    def densities(self) -> np.ndarray:
        """Share of node pairs joined in each snapshot; 0.0 with no pairs."""
        pairs = self.n_nodes * (self.n_nodes - 1) / 2.0
        return np.array([p.upper()[0].size / pairs if pairs else 0.0 for p in self.patterns])

    def save(self, directory) -> None:
        """Write ``labels.txt`` and an uncompressed ``snapshots.npz`` holding
        each snapshot's strict upper triangle as CSR ``indptr_t``/``indices_t``,
        int32 unless n or the edge count needs int64."""
        n = self.n_nodes
        payload = {"format": np.array(SERIES_FORMAT), "n_nodes": np.array([n]),
                   "times": np.asarray(self.times)}
        for t, pattern in enumerate(self.patterns):
            rows, cols = pattern.upper()
            dtype = np.int64 if max(n + 1, cols.size) > np.iinfo(np.int32).max else np.int32
            payload[f"indptr_{t}"] = np.searchsorted(rows, np.arange(n + 1)).astype(dtype)
            payload[f"indices_{t}"] = cols.astype(dtype)
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
        entry, has no snapshot times or an n_nodes that is not one integer, or
        holds a snapshot that is not an n-node strict upper triangle in CSR
        order, and naming ``labels.txt`` when it has not n lines."""
        path = Path(directory) / "snapshots.npz"
        unreadable = (OSError, EOFError, ValueError, zipfile.BadZipFile)

        def require(ok, what):
            if not ok:
                raise ValueError(f"{path}: {what}")

        def entry(name, default=None):
            # one entry at a time: a snapshot's file arrays are freed once converted
            try:
                return payload[name] if name in payload else default
            except unreadable as exc:
                raise ValueError(f"{path}: unreadable series file: {exc}") from None

        try:
            payload = np.load(path)
        except unreadable as exc:
            # np.load takes a file that is neither .npz nor .npy for a pickle
            # and refuses it with a ValueError about unsafe loading
            why = "not an .npz archive" if isinstance(exc, ValueError) else exc
            raise ValueError(f"{path}: unreadable series file: {why}") from None
        # a single .npy array loads as that array
        require(isinstance(payload, np.lib.npyio.NpzFile),
                "unreadable series file: not an .npz archive")
        with payload:
            version = entry("format", np.array(1)).tolist()
            require(version == SERIES_FORMAT, f"series format {version} is not {SERIES_FORMAT}; "
                    "re-run `dynembed simulate` to rewrite a series saved by an older version")
            n, times = entry("n_nodes"), entry("times")
            require(n is not None and times is not None, "no n_nodes or times entry")
            require(n.shape == (1,) and n.dtype.kind in "iu" and n[0] >= 0,
                    f"n_nodes {n.tolist()} is not a list of one non-negative integer")
            require(times.ndim == 1 and times.size, "times is not a non-empty list of times")
            n, times, patterns = int(n[0]), times.tolist(), []
            for t in range(len(times)):
                indptr, indices = entry(f"indptr_{t}"), entry(f"indices_{t}")
                require(indptr is not None and indices is not None, f"no entries for snapshot {t}")
                require(indptr.dtype.kind in "iu" and indptr.shape == (n + 1,) and indptr[0] == 0
                        and indptr[-1] == indices.size and np.all(np.diff(indptr) >= 0),
                        f"indptr_{t} is not a monotone row pointer of {n} rows")
                rows = np.repeat(np.arange(n), np.diff(indptr))
                require(indices.dtype.kind in "iu" and np.all((rows < indices) & (indices < n)),
                        f"indices_{t} holds an entry outside the strict upper triangle of {n} nodes")
                require(np.all(np.diff(rows * n + indices) > 0),
                        f"indices_{t} repeats or disorders the entries of a row")
                patterns.append(SymmetricPattern.from_upper(rows, indices, n))
        labels_path = path.parent / "labels.txt"
        with open(labels_path, encoding="utf-8") as fh:
            labels = [line.rstrip("\n") for line in fh]
        if len(labels) != n:
            raise ValueError(f"{labels_path}: {len(labels)} labels for {n} nodes")
        return cls(snapshots=patterns, node_labels=labels, times=times)


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

    # imported here, so that only a command that ingests loads the extension
    from array import array

    stamps, ends = array("d"), array("q")  # per event its time, and its two node indices
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
            ends.append(index.setdefault(u, len(index)))
            ends.append(index.setdefault(v, len(index)))
    if not stamps:
        raise ValueError("no events found")

    labels, n = list(index), len(index)
    pairs = np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
    if label_order == "sorted":
        order = sorted(range(n), key=labels.__getitem__)
        pairs = np.argsort(order)[pairs]
        labels = [labels[k] for k in order]

    t = np.frombuffer(stamps, dtype=np.float64)
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
    pairs = pairs[keep]
    cells = np.unique((w * n + pairs.min(axis=1)) * n + pairs.max(axis=1))

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
    return GraphSeries(
        snapshots=[SymmetricPattern.from_upper(*np.divmod(cells[cuts[k]:cuts[k + 1]] % (n * n), n),
                                               n) for k in kept],
        node_labels=labels, times=[lo + k * window_seconds for k in kept],
        stats=IngestStats(
            events_read=t.size,
            events_outside_range=int(t.size - np.count_nonzero(inside)),
            events_masked=day_masked,
            self_loops_dropped=int(np.count_nonzero(inside & in_band & loop)),
            duplicate_pairs_collapsed=int(np.count_nonzero(keep) - cells.size)))
