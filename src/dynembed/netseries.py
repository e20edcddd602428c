"""Adjacency snapshot sequences and timestamped edge list ingestion."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class ParseError(ValueError):
    """Malformed edge list input; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def unfold(snapshots):
    """Column concatenation (A1 | A2 | ... | AT) of n x n matrices, dense or
    sparse, as an n x (T*n) CSR matrix."""
    import scipy.sparse as sp
    return sp.hstack([sp.csr_matrix(a) for a in snapshots], format="csr")


@dataclass(frozen=True)
class IngestStats:
    """Bookkeeping from edge list ingestion."""

    events_read: int
    events_outside_range: int
    events_masked: int
    self_loops_dropped: int
    duplicate_pairs_collapsed: int


@dataclass
class GraphSeries:
    """A sequence of undirected simple graph snapshots on a shared node set.

    snapshots: list of n x n symmetric {0,1} CSR matrices with zero diagonal.
    node_labels: original labels, index position = node id.
    times: nominal time value per snapshot (window start, or the model time).
    """

    snapshots: list
    node_labels: list = field(default_factory=list)
    times: list = field(default_factory=list)
    stats: IngestStats | None = None

    def __post_init__(self):
        if not self.snapshots:
            raise ValueError("need at least one snapshot")
        n = self.snapshots[0].shape[0]
        for a in self.snapshots:
            if a.shape != (n, n):
                raise ValueError("all snapshots must share the same node set")
        if not self.node_labels:
            self.node_labels = list(range(n))
        if len(self.node_labels) != n:
            raise ValueError("node_labels length must match snapshot side")
        if not self.times:
            self.times = list(range(len(self.snapshots)))
        if len(self.times) != len(self.snapshots):
            raise ValueError("times length must match number of snapshots")

    @property
    def n_nodes(self) -> int:
        return self.snapshots[0].shape[0]

    @property
    def n_snapshots(self) -> int:
        return len(self.snapshots)

    def unfold(self):
        """Column concatenation (A1 | A2 | ... | AT), an n x (T*n) sparse matrix."""
        return unfold(self.snapshots)

    def densities(self) -> np.ndarray:
        n = self.n_nodes
        pairs = n * (n - 1) / 2.0
        return np.array([a.nnz / 2.0 / pairs for a in self.snapshots])

    def permute(self, perm: np.ndarray) -> "GraphSeries":
        """Relabel nodes: new node i is old node perm[i]."""
        import scipy.sparse as sp
        perm = np.asarray(perm)
        if sorted(perm.tolist()) != list(range(self.n_nodes)):
            raise ValueError("perm must be a permutation of range(n_nodes)")
        snaps = [sp.csr_matrix(a)[perm][:, perm] for a in self.snapshots]
        labels = [self.node_labels[i] for i in perm]
        return GraphSeries(snapshots=snaps, node_labels=labels, times=list(self.times))

    def save(self, directory) -> None:
        """Write snapshots as an npz of sparse triplets plus a labels file."""
        import scipy.sparse as sp
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        payload = {"n_nodes": np.array([self.n_nodes]), "times": np.asarray(self.times)}
        for t, a in enumerate(self.snapshots):
            coo = sp.coo_matrix(a)
            payload[f"row_{t}"] = coo.row
            payload[f"col_{t}"] = coo.col
        np.savez_compressed(directory / "snapshots.npz", **payload)
        with open(directory / "labels.txt", "w", encoding="utf-8") as fh:
            for label in self.node_labels:
                fh.write(f"{label}\n")

    @classmethod
    def load(cls, directory) -> "GraphSeries":
        import scipy.sparse as sp
        directory = Path(directory)
        with np.load(directory / "snapshots.npz") as payload:
            n = int(payload["n_nodes"][0])
            times = payload["times"].tolist()
            snaps = []
            for t in range(len(times)):
                row, col = payload[f"row_{t}"], payload[f"col_{t}"]
                data = np.ones(row.shape[0])
                snaps.append(sp.csr_matrix((data, (row, col)), shape=(n, n)))
        with open(directory / "labels.txt", encoding="utf-8") as fh:
            labels = [line.rstrip("\n") for line in fh]
        return cls(snapshots=snaps, node_labels=labels, times=times)


def _seconds_of_day(timestamp: float) -> float:
    return float(timestamp) % 86400.0


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
    into consecutive windows of ``window_seconds`` covering [start, end); the
    range defaults to the observed min/max timestamps. Multiple events for a
    pair within one window collapse to a single undirected edge; self loops
    are dropped. With ``daily_start``/``daily_end`` (seconds of day) set, only
    events whose time of day falls in [daily_start, daily_end) produce edges,
    and windows made entirely of masked-out time are omitted, so e.g. two
    10-hour observation days binned hourly yield 20 snapshots rather than
    covering the overnight gap.

    ``label_order`` picks the label-to-index map: "first_seen" (order of first
    appearance in the file) or "sorted" (lexicographic).

    Raises ParseError, with a line number, on malformed lines.
    """
    import scipy.sparse as sp
    if column_order not in ("time_u_v", "u_v_time"):
        raise ValueError(f"unknown column_order {column_order!r}")
    if label_order not in ("first_seen", "sorted"):
        raise ValueError(f"unknown label_order {label_order!r}")
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")

    events = []  # (timestamp, label_u, label_v)
    first_seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_number, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) < 3:
                raise ParseError(f"expected 3 fields, got {len(parts)}", line_number)
            if column_order == "time_u_v":
                t_raw, u, v = parts[0], parts[1], parts[2]
            else:
                u, v, t_raw = parts[0], parts[1], parts[2]
            try:
                timestamp = float(t_raw)
            except ValueError:
                raise ParseError(f"bad timestamp {t_raw!r}", line_number) from None
            for label in (u, v):
                if label not in first_seen:
                    first_seen[label] = len(first_seen)
            events.append((timestamp, u, v))

    if not events:
        raise ValueError("no events found")

    if label_order == "sorted":
        index = {label: i for i, label in enumerate(sorted(first_seen))}
    else:
        index = first_seen
    n = len(index)

    all_times = np.array([e[0] for e in events])
    lo = float(all_times.min()) if start is None else float(start)
    # the smallest float above the last event keeps it inside [lo, hi) at any
    # magnitude (a fixed offset vanishes below the spacing of epoch seconds)
    hi = float(np.nextafter(all_times.max(), np.inf)) if end is None else float(end)
    if hi <= lo:
        raise ValueError("empty time range")

    n_windows = int(np.ceil((hi - lo) / window_seconds))
    masked = daily_start is not None and daily_end is not None

    outside = 0
    day_masked = 0
    loops = 0
    per_window: dict[int, set] = {}
    for timestamp, u, v in events:
        if not (lo <= timestamp < hi):
            outside += 1
            continue
        if masked:
            sod = _seconds_of_day(timestamp)
            if not (daily_start <= sod < daily_end):
                day_masked += 1
                continue
        if u == v:
            loops += 1
            continue
        w = int((timestamp - lo) // window_seconds)
        w = min(w, n_windows - 1)
        i, j = index[u], index[v]
        per_window.setdefault(w, set()).add((min(i, j), max(i, j)))

    kept = range(n_windows)
    if masked:
        # keep the windows meeting the daily observation band: those starting
        # inside it, and those reaching its next start before they end
        sod = np.mod(lo + np.arange(n_windows) * window_seconds, 86400.0)
        meets = ((daily_start <= sod) & (sod < daily_end)) | (
            np.mod(daily_start - sod, 86400.0) < window_seconds)
        kept = np.flatnonzero(meets & (daily_start < daily_end)).tolist()

    snaps, times = [], []
    for w in kept:
        pairs = per_window.get(w, set())
        if pairs:
            rows = np.array([p[0] for p in pairs] + [p[1] for p in pairs])
            cols = np.array([p[1] for p in pairs] + [p[0] for p in pairs])
            data = np.ones(rows.shape[0])
            a = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        else:
            a = sp.csr_matrix((n, n))
        snaps.append(a)
        times.append(lo + w * window_seconds)

    raw_in_range = len(events) - outside - day_masked - loops
    duplicates = raw_in_range - sum(len(v) for v in per_window.values())

    stats = IngestStats(
        events_read=len(events),
        events_outside_range=outside,
        events_masked=day_masked,
        self_loops_dropped=loops,
        duplicate_pairs_collapsed=max(duplicates, 0),
    )
    labels = [None] * n
    for label, i in index.items():
        labels[i] = label
    series = GraphSeries(snapshots=snaps, node_labels=labels, times=times)
    series.stats = stats
    return series
