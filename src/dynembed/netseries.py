"""Adjacency snapshot sequences and timestamped edge list ingestion.

A snapshot's edges cross module boundaries as their rising keys i n + j,
i < j, from the sampler and ingestion to ``snapshots.npz``, which stores
them as CSR rows of the strict upper triangle. In memory a snapshot A is a
:class:`SymmetricPattern`, full symmetric CSR arrays that only this module
reads. The n x Tn unfolding (A_1 | ... | A_T) is applied as an
:class:`Unfolding` of the patterns, never built. Everything here runs on
numpy alone; scipy is imported only by ``SymmetricPattern.tocsr``.
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

# snapshots.npz layout of SeriesWriter; format 1, a file with no format
# entry, held each snapshot's entries on both sides of the diagonal as row_t/col_t
SERIES_FORMAT = 2


class ParseError(ValueError):
    """Malformed edge list input; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _key_dtype(n: int):
    """int32 when the keys i n + j of an n x n matrix fit it, else intp."""
    return np.int32 if n * n < 2**31 else np.intp


class SymmetricPattern:
    """A symmetric n x n matrix A as numpy CSR arrays: ``indptr`` (n + 1 row
    bounds), ``cols`` (intp, which a gather takes unconverted) and ``data``,
    None for a 0/1 matrix; an empty row holds no entry. A x is one gather and
    one ``np.add.reduceat`` over the starts of the rows that hold entries,
    scattered into zeros when some row holds none.
    """

    def __init__(self, indptr, cols, data, n: int):
        self.n, self.shape, self.data = n, (n, n), data
        self.indptr, self.cols = np.asarray(indptr, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        # reduceat cannot sum an empty run: A x sums the rows holding entries,
        # and scatters them into zeros unless they are all the rows
        held = np.flatnonzero(np.diff(self.indptr))
        self._held = None if held.size == n else held
        self._starts = self.indptr[:-1] if self._held is None else self.indptr[held]

    @classmethod
    def from_upper(cls, upper, n: int) -> "SymmetricPattern":
        """The 0/1 matrix with ones at (i, j) and (j, i) for the distinct keys
        i n + j, i < j, in ``upper``; the keys of both triangles are sorted in
        one array, the only temporary beside the pattern."""
        m = len(upper)
        keys = np.empty(2 * m, _key_dtype(n))
        # unsafe casting, since an empty list of keys arrives as float64
        np.divmod(upper, n, out=(keys[m:], keys[:m]), casting="unsafe")
        keys[:m] *= n
        keys[:m] += keys[m:]  # j n + i, below the diagonal
        keys[m:] = upper
        keys.sort()
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n)
        np.remainder(keys, n, out=keys)  # the columns
        return cls(indptr, keys, None, n)

    def __matmul__(self, x):
        if x.ndim == 2:
            return np.stack([self @ column for column in x.T], axis=1)
        gathered = x.take(self.cols).astype(float, copy=False)
        if self.data is not None:
            gathered *= self.data
        sums = np.add.reduceat(gathered, self._starts)
        if self._held is None:
            return sums
        out = np.zeros(self.n)
        out[self._held] = sums
        return out

    def _row_blocks(self):
        """Per block of rows, about n entries, the slice of its entries and
        their rows, so no array of every entry's row is held."""
        n, indptr = self.n, self.indptr
        step = max(1, n * n // max(self.cols.size, 1))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            yield (slice(indptr[lo], indptr[hi]),
                   np.repeat(np.arange(lo, hi), np.diff(indptr[lo:hi + 1])))

    def upper(self):
        """The rising keys i n + j, i < j, of the entries above the diagonal,
        which :meth:`from_upper` takes back."""
        keys = [np.empty(0, np.intp)]
        for at, rows in self._row_blocks():
            cols = self.cols[at]
            keys.append((rows * self.n + cols)[rows < cols])
        return np.concatenate(keys)

    def toarray(self, height=None):
        """A as a dense n x n array, or with zero rows below it to ``height`` rows."""
        a = np.zeros((height or self.n, self.n))
        for at, rows in self._row_blocks():
            a[rows, self.cols[at]] = 1.0 if self.data is None else self.data[at]
        return a

    def tocsr(self):
        """A as a scipy CSR matrix; a weighted pattern shares its ``data``."""
        import scipy.sparse as sp
        data = np.ones(self.cols.size) if self.data is None else self.data
        return sp.csr_matrix((data, self.cols, self.indptr), shape=self.shape)


class Unfolding:
    """The n x (T n) unfolding (A_1 | ... | A_T) of symmetric patterns, or
    its transpose: y -> sum_t A_t y_t for the n-row blocks y_t of y, and x
    -> (A_1 x; ...; A_T x). Nothing is concatenated. One snapshot's
    unfolding is the symmetric A_1, so it is its own transpose."""

    def __init__(self, patterns, transposed: bool = False):
        self.patterns, self.transposed = patterns, transposed
        n, width = patterns[0].n, len(patterns) * patterns[0].n
        self.shape = (width, n) if transposed else (n, width)

    @property
    def T(self) -> "Unfolding":
        return self if len(self.patterns) == 1 else Unfolding(self.patterns, not self.transposed)

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


def as_patterns(matrices) -> list:
    """Per snapshot the :class:`SymmetricPattern` A_t that every embedder and
    :class:`GraphSeries` sees: a series' own ``patterns``, or for each item
    of a non-empty list the pattern as given, or the symmetric part (M +
    M^T) / 2 of a square dense, nested-list or scipy matrix M, which for a
    symmetric M is M exactly; a sparse M is added by its own methods.
    Raises ValueError, naming the matrix, unless every matrix is finite and
    n x n for the first one's n."""
    if isinstance(matrices, GraphSeries):
        return matrices.patterns
    if not len(matrices):
        raise ValueError("need at least one snapshot")
    first = np.shape(matrices[0])
    n, patterns = first[0] if len(first) == 2 else "n", []
    for t, m in enumerate(matrices):
        shape = np.shape(m)
        if shape != (n, n):
            size = " x ".join(map(str, shape)) if len(shape) == 2 else f"{len(shape)}-D"
            raise ValueError(f"matrix {t} is {size}, not {n} x {n}")
        if not isinstance(m, SymmetricPattern):
            m = m if hasattr(m, "tocsr") else np.asarray(m, dtype=float)
            half = (m + m.T) * 0.5
            if isinstance(half, np.ndarray):
                rows, cols = np.nonzero(half)
                m = SymmetricPattern(np.searchsorted(rows, np.arange(n + 1)), cols, half[rows, cols], n)
            else:
                half = half.tocsr()
                half.sum_duplicates()  # sorted columns, no repeats
                m = SymmetricPattern(half.indptr, half.indices, half.data, n)
        if m.data is not None and not np.all(np.isfinite(m.data)):
            raise ValueError(f"matrix {t} contains non-finite entries")
        patterns.append(m)
    return patterns


def _require_graph(t: int, pattern, given=np.zeros(0)) -> None:
    """ValueError naming snapshot ``t`` unless ``pattern``, built from a
    matrix with the entries ``given``, is a 0/1 graph with a zero diagonal:
    a 0/1 M has a 0/1 symmetric part (M + M^T) / 2 only where M = M^T."""
    if (any(np.any(pattern.cols[at] == rows) for at, rows in pattern._row_blocks())
            or not np.all((given == 0) | (given == 1))
            or (pattern.data is not None and np.any(pattern.data != 1))):
        raise ValueError(f"snapshot {t} is not square symmetric 0/1 with a zero diagonal")


class SeriesWriter:
    """Writes a series into ``directory`` one snapshot at a time: its
    ``labels.txt``, and an uncompressed ``snapshots.npz`` holding the entries
    ``format``, ``n_nodes`` and ``times``, then per :meth:`append` of a
    snapshot's keys its strict upper triangle as CSR ``indptr_t``/``indices_t``.
    The bytes are those ``np.savez`` writes for the same entries in that order.
    A context manager; the file is complete once it closes. A label holding a
    line break, which ``load`` would read as two, is refused before any file.
    """

    def __init__(self, directory, node_labels, times):
        for k, label in enumerate(map(str, node_labels)):
            if "\n" in label or "\r" in label:
                raise ValueError(f"node label {k} ({label!r}) holds a line break")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "labels.txt", "w", encoding="utf-8") as fh:
            fh.writelines(f"{label}\n" for label in node_labels)
        self.n, self.count = len(node_labels), 0
        # np.savez's settings: stored, with zip64 allowed and forced on each entry
        self.zip = zipfile.ZipFile(directory / "snapshots.npz", "w", zipfile.ZIP_STORED,
                                   allowZip64=True)
        self._put(format=np.array(SERIES_FORMAT), n_nodes=np.array([self.n]),
                  times=np.asarray(times))

    def _put(self, **entries) -> None:
        for name, array in entries.items():
            with self.zip.open(f"{name}.npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, array)

    def append(self, upper) -> None:
        """Write the next snapshot from the rising keys i n + j, i < j, of its
        edges, int32 unless n or the edge count needs int64."""
        n = self.n
        dtype = np.int64 if max(n + 1, upper.size) > np.iinfo(np.int32).max else np.int32
        indptr = np.searchsorted(upper, np.arange(n + 1, dtype=upper.dtype) * n).astype(dtype)
        self._put(**{f"indptr_{self.count}": indptr,
                     f"indices_{self.count}": (upper % n).astype(dtype)})
        self.count += 1

    def __enter__(self) -> "SeriesWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.zip.close()


class GraphSeries:
    """A sequence of undirected simple graph snapshots on a shared node set.

    patterns: one 0/1 :class:`SymmetricPattern` per snapshot, applied by ``unfold()``.
    snapshots: read-only; the patterns as scipy CSR matrices (scipy is a test
        dependency), built on each access for the benchmark's exact scree
        (``bench/run.py``).
    node_labels: original labels, index position = node id.
    times: nominal time value per snapshot (window start, or the model time).
    stats: ingestion bookkeeping, or None.

    ``snapshots``, a list of matrices or patterns, is taken by
    :func:`as_patterns`; each must then be symmetric and 0/1 with a zero
    diagonal, a graph that ``save`` can hold, or ValueError names it.
    """

    def __init__(self, snapshots, node_labels=None, times=None,
                 stats: IngestStats | None = None):
        self.patterns = as_patterns(snapshots)
        for t, (given, pattern) in enumerate(zip(snapshots, self.patterns)):
            _require_graph(t, pattern, np.zeros(0) if isinstance(given, SymmetricPattern) else
                           given.tocsr().data if hasattr(given, "tocsr") else np.asarray(given))
            if pattern.data is not None:
                self.patterns[t] = SymmetricPattern(pattern.indptr, pattern.cols, None, pattern.n)
        n = self.n_nodes
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

    def save(self, directory) -> None:
        """Write ``labels.txt`` and ``snapshots.npz`` into ``directory`` with
        a :class:`SeriesWriter`."""
        with SeriesWriter(directory, self.node_labels, self.times) as writer:
            for pattern in self.patterns:
                writer.append(pattern.upper())

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
                # indices in range, each row's first right of the diagonal, and
                # rising keys i n + j, which from_upper takes: no other per-entry array
                counts = np.diff(indptr)
                rows = np.flatnonzero(counts)
                require(indices.ndim == 1 and indices.dtype.kind in "iu"
                        and indices.min(initial=n) >= 0 and indices.max(initial=-1) < n
                        and np.all(indices[indptr[:-1][rows]] > rows),
                        f"indices_{t} holds an entry outside the strict upper triangle of {n} nodes")
                upper = np.repeat(np.arange(n, dtype=_key_dtype(n)) * n, counts)
                np.add(upper, indices, out=upper, casting="unsafe")
                del indices
                require(np.all(upper[1:] > upper[:-1]),
                        f"indices_{t} repeats or disorders the entries of a row")
                patterns.append(SymmetricPattern.from_upper(upper, n))
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
    t = np.frombuffer(stamps, dtype=np.float64)
    del stamps, ends  # their buffers go with these views
    if label_order == "sorted":
        order = sorted(range(n), key=labels.__getitem__)
        pairs = np.argsort(order)[pairs]
        labels = [labels[k] for k in order]

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
    # count each drop reason among the events the earlier ones keep
    events, keep = t.size, (lo <= t) & (t < hi)
    inside = int(np.count_nonzero(keep))
    keep &= _in_daily_band(np.mod(t, 86400.0), daily_start, daily_end) if masked else True
    in_band = int(np.count_nonzero(keep))
    keep &= pairs[:, 0] != pairs[:, 1]
    distinct_ends = int(np.count_nonzero(keep))
    # every event's key, built in place in the array of its time; the kept
    # keys are then sorted in one array
    t -= lo
    # clipped below too, so that no dropped event's key leaves the int64 range
    np.clip(np.floor_divide(t, window_seconds, out=t), 0, n_windows - 1, out=t)
    cells = t.view(np.int64)
    np.copyto(cells, t, casting="unsafe")  # element for element in place
    for end in (np.minimum, np.maximum):  # (window n + i) n + j with i < j
        cells *= n
        cells += end(*pairs.T)
    cells = cells[keep]
    del t, pairs, keep
    cells.sort()
    cells = cells[np.diff(cells, prepend=-1) > 0]  # each key once
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
                f" {inside - in_band} of {events} events masked")

    cuts = np.searchsorted(cells, np.arange(n_windows + 1) * (n * n))
    return GraphSeries(
        snapshots=[SymmetricPattern.from_upper(cells[cuts[k]:cuts[k + 1]] % (n * n), n)
                   for k in kept],
        node_labels=labels, times=[lo + k * window_seconds for k in kept],
        stats=IngestStats(
            events_read=events,
            events_outside_range=events - inside,
            events_masked=inside - in_band,
            self_loops_dropped=in_band - distinct_ends,
            duplicate_pairs_collapsed=distinct_ends - cells.size))
