import re
import zipfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dynembed.netseries import (
    SERIES_FORMAT,
    GraphSeries,
    IngestStats,
    ParseError,
    SymmetricPattern,
    Unfolding,
    ingest_edge_list,
)
from helpers import permute


def make_series(seed=0, n=12, t=3, p=0.3):
    rng = np.random.default_rng(seed)
    snaps = []
    for _ in range(t):
        upper = np.triu(rng.random((n, n)) < p, k=1).astype(float)
        snaps.append(sp.csr_matrix(upper + upper.T))
    return GraphSeries(snapshots=snaps)


class TestGraphSeries:
    def test_unfold_layout(self):
        # the unfolding is applied over the series' own patterns, never built;
        # its products are those of the dense (A_1 | A_2 | A_3)
        series = make_series()
        unfolded = series.unfold()
        assert isinstance(unfolded, Unfolding)
        assert unfolded.patterns is series.patterns
        assert unfolded.shape == (12, 36)
        dense = np.hstack([a.toarray() for a in series.snapshots])
        rng = np.random.default_rng(0)
        y, x = rng.standard_normal(36), rng.standard_normal(12)
        np.testing.assert_allclose(unfolded @ y, dense @ y, rtol=0, atol=1e-12)
        np.testing.assert_allclose(unfolded.T @ x, dense.T @ x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 13])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pattern_products_match_dense_hstack(self, n, seed):
        # oracle: the dense unfolding; snapshot 1 is empty
        rng = np.random.default_rng(seed)
        dense = []
        for t in range(3):
            upper = np.triu(rng.random((n, n)) < (0.4 if t != 1 else 0.0), k=1)
            dense.append((upper + upper.T).astype(float))
        series = GraphSeries(snapshots=dense)
        assert series.patterns[1].upper()[0].size == 0
        for pattern, a, csr in zip(series.patterns, dense, series.snapshots):
            np.testing.assert_array_equal(pattern.tocsr().toarray(), a)
            np.testing.assert_array_equal(csr.toarray(), a)
        unfolded = np.hstack(dense)
        op = Unfolding(series.patterns)
        assert op.shape == unfolded.shape
        for cols in ((), (4,)):
            y = rng.standard_normal((3 * n, *cols))
            x = rng.standard_normal((n, *cols))
            for got, want in ((op @ y, unfolded @ y), (op.T @ x, unfolded.T @ x),
                              (op @ (op.T @ x), unfolded @ (unfolded.T @ x))):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-12 * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_half_product_is_the_csr_product_bit_for_bit(self, n):
        # a symmetric float matrix with a nonzero diagonal and some zeros,
        # held as the pattern of (M + M^T) / 2, dense or from CSR: halving is
        # exact, so the pattern holds M's entries bit for bit. reduceat sums
        # a row pairwise where scipy sums it in order, so M x agrees within
        # the bound on reordering a sum of n terms, n eps sum_j |M_ij x_j|
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
        m = m + m.T + np.diag(rng.standard_normal(n))
        assert np.all(np.diag(m) != 0)
        csr = sp.csr_matrix(m)
        for pattern in (SymmetricPattern.from_matrix(m), SymmetricPattern.from_matrix(csr)):
            np.testing.assert_array_equal(pattern.cols, csr.indices)
            np.testing.assert_array_equal(pattern.starts, csr.indptr[:-1])
            np.testing.assert_array_equal(pattern.data, csr.data)
            for cols in ((), (3,)):
                x = rng.standard_normal((n, *cols))
                bound = n * np.finfo(float).eps * (abs(csr) @ np.abs(x))
                assert np.all(np.abs(pattern @ x - csr @ x) <= bound)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            GraphSeries(snapshots=[sp.eye(3), sp.eye(4)])

    def test_permute_round_trip(self):
        series = make_series(seed=3)
        perm = np.random.default_rng(1).permutation(12)
        inverse = np.argsort(perm)
        back = permute(permute(series, perm), inverse)
        for a, b in zip(series.snapshots, back.snapshots):
            assert (a != b).nnz == 0

    def test_permute_moves_entries(self):
        a = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0.0]]))
        series = GraphSeries(snapshots=[a], node_labels=["x", "y", "z"])
        moved = permute(series, np.array([2, 0, 1]))
        # new node 1 is old node 0, new node 2 is old node 1
        expected = np.zeros((3, 3))
        expected[1, 2] = expected[2, 1] = 1.0
        np.testing.assert_array_equal(moved.snapshots[0].toarray(), expected)
        assert moved.node_labels == ["z", "x", "y"]

    def test_save_load_round_trip(self, tmp_path):
        for n in (12, 1):
            snaps = make_series(seed=5, n=n).snapshots
            # an empty snapshot keeps its place in the series
            snaps.insert(1, sp.csr_matrix((n, n)))
            # an explicitly stored zero, here on the diagonal, is no edge
            coo = snaps[0].tocoo()
            snaps[2] = sp.csr_matrix((np.append(coo.data, 0.0), (np.append(coo.row, 0),
                                      np.append(coo.col, 0))), shape=(n, n))
            assert snaps[2].nnz == coo.nnz + 1
            # numpy labels and times are taken as given, not tested for truth
            series = GraphSeries(snapshots=snaps, times=np.array([0.5, 1.5, 2.5, 3.5]),
                                 node_labels=np.array([f"v{k}" for k in range(n)]))
            series.save(tmp_path / f"series{n}")
            back = GraphSeries.load(tmp_path / f"series{n}")
            assert back.n_nodes == n
            assert back.times == series.times == [0.5, 1.5, 2.5, 3.5]
            assert back.node_labels == series.node_labels == [f"v{k}" for k in range(n)]
            assert back.n_snapshots == 4 and back.snapshots[1].nnz == 0
            for a, b in zip(series.snapshots, back.snapshots):
                assert b.shape == (n, n) and (a != b).nnz == 0
            assert back.snapshots[2].nnz == snaps[2].nnz - 1

    def test_save_stores_one_triangle_uncompressed(self, tmp_path):
        series = make_series(seed=5)
        series.save(tmp_path)
        with zipfile.ZipFile(tmp_path / "snapshots.npz") as zf:
            assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
        with np.load(tmp_path / "snapshots.npz") as payload:
            assert int(payload["format"]) == SERIES_FORMAT
            for t, a in enumerate(series.snapshots):
                upper = sp.triu(a, k=1, format="csr")
                for name, want in (("indptr", upper.indptr), ("indices", upper.indices)):
                    # int32 at this size, as scipy's triu gives
                    assert payload[f"{name}_{t}"].dtype == want.dtype == np.int32
                    np.testing.assert_array_equal(payload[f"{name}_{t}"], want)

    @pytest.mark.parametrize("dense", [
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],  # one triangle only
        [[1, 1, 0], [1, 0, 0], [0, 0, 0]],  # a self loop
        [[0, 2, 0], [2, 0, 0], [0, 0, 0]],  # a weight other than 1
        [[0, 2, 0], [0, 0, 0], [0, 0, 0]],  # asymmetric, with a 0/1 symmetric part
    ])
    def test_save_refuses_what_one_triangle_cannot_hold(self, tmp_path, dense):
        # a series holds only what one triangle can, so construction refuses it
        with pytest.raises(ValueError, match="snapshot 0"):
            GraphSeries(snapshots=[sp.csr_matrix(np.array(dense, dtype=float))]).save(
                tmp_path / "series")
        assert not (tmp_path / "series").exists()

    @pytest.mark.parametrize("edit", [
        "old format", "missing times", "wrong version", "index out of range",
        "entry below the diagonal", "entry on the diagonal", "repeated entry",
        "non-monotone indptr", "0-d n_nodes", "fractional n_nodes", "0-d times",
        "empty times", "one array",
    ])
    def test_malformed_file_names_itself(self, tmp_path, edit):
        # a saved 3-node path 0-1-2, then one defect
        a = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))
        GraphSeries(snapshots=[a]).save(tmp_path)
        path = tmp_path / "snapshots.npz"
        with np.load(path) as payload:
            entries = dict(payload)
        if edit == "old format":
            coo = a.tocoo()
            entries = {"n_nodes": np.array([3]), "times": np.array([0]),
                       "row_0": coo.row, "col_0": coo.col}
        elif edit == "missing times":
            del entries["times"]
        elif edit == "wrong version":
            entries["format"] = np.array(SERIES_FORMAT + 1)
        elif edit == "index out of range":
            entries["indices_0"] = np.array([1, 5])
        elif edit == "entry below the diagonal":
            entries["indptr_0"], entries["indices_0"] = np.array([0, 0, 1, 2]), np.array([0, 1])
        elif edit == "entry on the diagonal":
            entries["indptr_0"], entries["indices_0"] = np.array([0, 1, 2, 2]), np.array([0, 2])
        elif edit == "repeated entry":
            entries["indptr_0"], entries["indices_0"] = np.array([0, 2, 3, 3]), np.array([1, 1, 2])
        elif edit == "non-monotone indptr":
            entries["indptr_0"] = np.array([0, 2, 1, 2])
        elif edit == "0-d n_nodes":
            entries["n_nodes"] = np.array(3)
        elif edit == "fractional n_nodes":
            # otherwise a 2-node series, which 2.5 must not be read as
            entries["n_nodes"] = np.array([2.5])
            entries["indptr_0"], entries["indices_0"] = np.array([0, 1, 1]), np.array([1])
            (tmp_path / "labels.txt").write_text("0\n1\n")
        elif edit == "0-d times":
            entries["times"] = np.array(0)
        elif edit == "empty times":
            entries["times"] = np.array([])
        if edit == "one array":
            # np.load reads a lone .npy as that array, whatever the file's name
            with open(path, "wb") as fh:
                np.save(fh, np.arange(3))
        else:
            np.savez(path, **entries)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            GraphSeries.load(tmp_path)

    def test_densities(self):
        n = 6
        full = np.ones((n, n)) - np.eye(n)
        series = GraphSeries(snapshots=[sp.csr_matrix(full), sp.csr_matrix((n, n))])
        np.testing.assert_allclose(series.densities(), [1.0, 0.0])
        # one node has no pairs to join
        assert GraphSeries(snapshots=[sp.csr_matrix((1, 1))]).densities().tolist() == [0.0]


def write_events(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngest:
    def test_basic_binning_against_hand_tally(self, tmp_path):
        # oracle: tallied by hand below
        path = tmp_path / "events.txt"
        write_events(
            path,
            [
                "# comment line",
                "0 a b",
                "5 b c",
                "12 a c",
                "13 a b",
                "19 c a",
            ],
        )
        series = ingest_edge_list(path, window_seconds=10.0, start=0.0, end=20.0)
        assert series.n_snapshots == 2
        assert series.node_labels == ["a", "b", "c"]
        first = series.snapshots[0].toarray()
        second = series.snapshots[1].toarray()
        expected_first = np.zeros((3, 3))
        expected_first[0, 1] = expected_first[1, 0] = 1  # a-b
        expected_first[1, 2] = expected_first[2, 1] = 1  # b-c
        expected_second = np.zeros((3, 3))
        expected_second[0, 2] = expected_second[2, 0] = 1  # a-c twice, collapsed
        expected_second[0, 1] = expected_second[1, 0] = 1  # a-b
        np.testing.assert_array_equal(first, expected_first)
        np.testing.assert_array_equal(second, expected_second)
        assert series.stats.duplicate_pairs_collapsed == 1

    def test_column_order_u_v_time(self, tmp_path):
        path = tmp_path / "events.txt"
        write_events(path, ["a b 3", "b c 4"])
        series = ingest_edge_list(path, window_seconds=10.0, column_order="u_v_time")
        assert series.n_snapshots == 1
        assert series.snapshots[0].nnz == 4

    def test_self_loops_and_range_filtering(self, tmp_path):
        path = tmp_path / "events.txt"
        write_events(path, ["1 a a", "2 a b", "99 a b"])
        series = ingest_edge_list(path, window_seconds=5.0, start=0.0, end=10.0)
        assert series.stats.self_loops_dropped == 1
        assert series.stats.events_outside_range == 1
        assert series.snapshots[0].nnz == 2

    def test_last_event_kept_at_epoch_timestamps(self, tmp_path):
        # the default range end must stay above the last event at unix-epoch
        # magnitudes, where a fixed 1e-9 offset rounds away
        for base in (0, 1_500_000_000):
            path = tmp_path / f"events_{base}.txt"
            write_events(path, [f"{base} a b", f"{base + 100} b c", f"{base + 3600} a c"])
            series = ingest_edge_list(path, window_seconds=3600.0)
            assert series.n_snapshots == 2
            assert series.stats.events_outside_range == 0
            assert series.snapshots[1].nnz == 2

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        write_events(path, ["1 a b", "garbage"])
        with pytest.raises(ParseError) as err:
            ingest_edge_list(path, window_seconds=1.0)
        assert err.value.line_number == 2
        assert "line 2" in str(err.value)

    def test_bad_timestamp_reported(self, tmp_path):
        path = tmp_path / "events.txt"
        write_events(path, ["xx a b"])
        with pytest.raises(ParseError) as err:
            ingest_edge_list(path, window_seconds=1.0)
        assert err.value.line_number == 1

    def test_daily_mask_spans_two_days(self, tmp_path):
        # two 10-hour observation days binned hourly: 20 snapshots, none
        # covering the overnight gap
        day = 86400
        h = 3600
        start_of_band = 8 * h
        lines = []
        for d in range(2):
            for hour in range(10):
                ts = d * day + start_of_band + hour * h + 30
                lines.append(f"{ts} n{hour} n{(hour + 1) % 11}")
        lines.append(f"{day - 100} n0 n1")  # 23:58, outside the band
        path = tmp_path / "events.txt"
        write_events(path, lines)
        series = ingest_edge_list(
            path,
            window_seconds=float(h),
            start=float(start_of_band),
            end=float(day + 18 * h),
            daily_start=float(8 * h),
            daily_end=float(18 * h),
        )
        assert series.n_snapshots == 20
        assert series.stats.events_masked == 1
        assert all(a.nnz == 2 for a in series.snapshots)

    def test_daily_mask_keeps_window_meeting_band_between_minutes(self, tmp_path):
        # the last window starts at 23:01:30 and meets the band [61, 119) s of
        # the next day only between two whole minutes after its start
        path = tmp_path / "events.txt"
        write_events(path, ["90 a b", "100 b c", "86462 a c", "86470 c d"])
        series = ingest_edge_list(
            path, window_seconds=3600.0, daily_start=61.0, daily_end=119.0
        )
        assert series.times == [90.0, 90.0 + 23 * 3600]
        assert [a.nnz for a in series.snapshots] == [4, 4]
        assert series.stats.events_masked == 0

    def test_daily_band_wrapping_midnight(self, tmp_path):
        # the 22:00-06:00 night band: hourly windows from 21:00 to 06:00
        # keep the eight that meet it, on both sides of midnight
        day, h = 86400, 3600
        path = tmp_path / "events.txt"
        write_events(path, [
            f"{21 * h + 1800} a b",      # 21:30, before the band
            f"{22 * h + 1800} a b",
            f"{day - 1} b c",            # 23:59:59
            f"{day + 600} c d",          # 00:10 the next day
            f"{day + 6 * h - 1} d e",    # 05:59:59
            f"{day + 6 * h} a e",        # 06:00, the band's open end
            f"{day + 6 * h + 1800} a c",
        ])
        series = ingest_edge_list(
            path, window_seconds=float(h), start=float(21 * h),
            end=float(day + 7 * h), daily_start=float(22 * h),
            daily_end=float(6 * h),
        )
        assert series.times == [float(22 * h), float(23 * h)] + [
            float(day + k * h) for k in range(6)]
        assert [a.nnz for a in series.snapshots] == [2, 2, 2, 0, 0, 0, 0, 2]
        assert series.stats.events_masked == 3

    def test_empty_daily_band_names_itself(self, tmp_path):
        path = tmp_path / "events.txt"
        write_events(path, ["3600 a b", "7300 b c"])
        with pytest.raises(ValueError, match=(
                r"daily band \[3600, 3600\) s; 2 of 2 events masked")):
            ingest_edge_list(path, window_seconds=3600.0,
                             daily_start=3600.0, daily_end=3600.0)

    def test_daily_band_missed_by_every_window(self, tmp_path):
        # hourly windows start at 01:00 and 02:00; the band [0, 60) s falls
        # in neither of them, nor before either one ends
        path = tmp_path / "events.txt"
        write_events(path, ["3600 a b", "3630 b c", "7300 a c"])
        with pytest.raises(ValueError, match=(
                r"daily band \[0, 60\) s; 3 of 3 events masked")):
            ingest_edge_list(path, window_seconds=3600.0,
                             daily_start=0.0, daily_end=60.0)

    @pytest.mark.parametrize("band, message", [
        ({"daily_start": 28800.0}, "daily_end is missing"),
        ({"daily_end": 64800.0}, "daily_start is missing"),
        ({"daily_start": -1.0, "daily_end": 64800.0}, "daily_start -1 is outside"),
        ({"daily_start": 28800.0, "daily_end": 86401.0}, "daily_end 86401 is outside"),
    ])
    def test_daily_band_rejects_half_or_out_of_day(self, tmp_path, band, message):
        path = tmp_path / "events.txt"
        write_events(path, ["30000 a b"])
        with pytest.raises(ValueError, match=message):
            ingest_edge_list(path, window_seconds=3600.0, **band)

    def test_sorted_label_order(self, tmp_path):
        path = tmp_path / "events.txt"
        write_events(path, ["1 zeta alpha", "2 beta zeta"])
        series = ingest_edge_list(path, window_seconds=5.0, label_order="sorted")
        assert series.node_labels == ["alpha", "beta", "zeta"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("# nothing\n", encoding="utf-8")
        with pytest.raises(ValueError):
            ingest_edge_list(path, window_seconds=1.0)

    @pytest.mark.parametrize("stamp", ["inf", "-inf", "nan"])
    def test_non_finite_timestamp_is_a_parse_error(self, tmp_path, stamp):
        path = tmp_path / "events.txt"
        write_events(path, ["1 a b", f"{stamp} b c", "3 a c"])
        with pytest.raises(ParseError, match="non-finite timestamp") as err:
            ingest_edge_list(path, window_seconds=1.0)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("name, value", [
        ("window_seconds", float("nan")), ("window_seconds", float("inf")),
        ("start", float("nan")), ("start", float("-inf")),
        ("end", float("nan")), ("end", float("inf")),
    ])
    def test_non_finite_range_names_the_argument(self, tmp_path, name, value):
        path = tmp_path / "events.txt"
        write_events(path, ["1 a b", "2 b c"])
        kwargs = {"window_seconds": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ingest_edge_list(path, **kwargs)

    def test_cell_keys_beyond_int64_rejected(self, tmp_path):
        # 1e20 windows of 3 x 3 pairs fit no int64 key; the daily band keeps
        # the old per-window route from trying to enumerate them
        path = tmp_path / "events.txt"
        write_events(path, ["0 a b", "1 b c"])
        with pytest.raises(ValueError, match="overflow int64 keys"):
            ingest_edge_list(path, window_seconds=1e-20, daily_start=0.0,
                             daily_end=60.0)

    @pytest.mark.parametrize("band", [{}, {"daily_start": 0.0, "daily_end": 60.0}])
    @pytest.mark.parametrize("window, count", [(1e-15, "2e+15"), (1e-9, "2e+09")])
    def test_window_count_beyond_limit_rejected(self, tmp_path, window, count, band):
        # refused before one array entry per window is allocated
        path = tmp_path / "events.txt"
        write_events(path, ["0 a b", "1 b c", "2 a c"])
        with pytest.raises(ValueError, match=rf"{re.escape(count)} windows .* limit of 1048576"):
            ingest_edge_list(path, window_seconds=window, **band)


def reference_ingest(path, *, window_seconds, start=None, end=None,
                     column_order="time_u_v", label_order="first_seen",
                     daily_start=None, daily_end=None):
    """Per-event dict-of-sets binning, as ingestion worked before it became
    array operations; the oracle for the array route's every output."""
    events, first_seen = [], {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        parts = raw.replace(",", " ").split()
        t_raw, u, v = parts if column_order == "time_u_v" else parts[2:] + parts[:2]
        for label in (u, v):
            first_seen.setdefault(label, len(first_seen))
        events.append((float(t_raw), u, v))
    index = first_seen
    if label_order == "sorted":
        index = {label: i for i, label in enumerate(sorted(first_seen))}
    n = len(index)
    all_times = np.array([e[0] for e in events])
    lo = float(all_times.min()) if start is None else float(start)
    hi = float(np.nextafter(all_times.max(), np.inf)) if end is None else float(end)
    if hi <= lo:
        raise ValueError("empty time range")
    n_windows = int(np.ceil((hi - lo) / window_seconds))
    masked = daily_start is not None

    def in_band(sod):
        if daily_start <= daily_end:
            return (daily_start <= sod) & (sod < daily_end)
        return (daily_start <= sod) | (sod < daily_end)

    outside = day_masked = loops = 0
    per_window = {}
    for timestamp, u, v in events:
        if not (lo <= timestamp < hi):
            outside += 1
        elif masked and not in_band(timestamp % 86400.0):
            day_masked += 1
        elif u == v:
            loops += 1
        else:
            w = min(int((timestamp - lo) // window_seconds), n_windows - 1)
            i, j = index[u], index[v]
            per_window.setdefault(w, set()).add((min(i, j), max(i, j)))
    kept = range(n_windows)
    if masked:
        sod = np.mod(lo + np.arange(n_windows) * window_seconds, 86400.0)
        meets = in_band(sod) | (np.mod(daily_start - sod, 86400.0) < window_seconds)
        kept = np.flatnonzero(meets & (daily_start != daily_end)).tolist()
        if not kept:
            raise ValueError("no window meets the daily band")
    snaps = []
    for w in kept:
        pairs = per_window.get(w, set())
        if pairs:
            rows = np.array([p[0] for p in pairs] + [p[1] for p in pairs])
            cols = np.array([p[1] for p in pairs] + [p[0] for p in pairs])
            a = sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)), shape=(n, n))
        else:
            a = sp.csr_matrix((n, n))
        snaps.append(a)
    stats = IngestStats(
        events_read=len(events),
        events_outside_range=outside,
        events_masked=day_masked,
        self_loops_dropped=loops,
        duplicate_pairs_collapsed=len(events) - outside - day_masked - loops
        - sum(len(p) for p in per_window.values()),
    )
    labels = sorted(index, key=index.get)
    return snaps, labels, [lo + w * window_seconds for w in kept], stats


def random_event_lines(rng, column_order):
    """Contacts over three days at unix-epoch seconds, some fractional, among
    labels whose first appearance differs from their sorted order; small
    label pools give self loops and repeated pairs."""
    pool = [f"n{k}" for k in rng.permutation(int(rng.integers(2, 9)))] + ["10", "9"]
    base = 1_254_384_000.0
    lines = []
    for _ in range(int(rng.integers(1, 300))):
        t = base + int(rng.integers(0, 3 * 86400))
        if rng.random() < 0.3:
            t += float(rng.random())
        u, v = rng.choice(pool, size=2)
        lines.append(f"{t!r} {u} {v}" if column_order == "time_u_v" else f"{u},{v},{t!r}")
    return lines


@pytest.mark.parametrize("seed", range(16))
def test_ingest_matches_per_event_reference(tmp_path, seed):
    # random files through every option: the array route must reproduce the
    # per-event reference array for array, label for label, count for count
    rng = np.random.default_rng(seed)
    column_order = ("time_u_v", "u_v_time")[seed % 2]
    path = tmp_path / "events.txt"
    write_events(path, random_event_lines(rng, column_order))
    base = 1_254_384_000.0
    bands = [{}, {"daily_start": 28800.0, "daily_end": 64800.0},
             {"daily_start": 79200.0, "daily_end": 21600.0}]
    ranges = [{}, {"start": base + 3600.0, "end": base + 2 * 86400.0 + 1800.0}]
    compared = 0
    for band in bands:
        for span in ranges:
            for label_order in ("first_seen", "sorted"):
                kwargs = dict(window_seconds=float(rng.choice([900.0, 3600.0, 5400.5])),
                              column_order=column_order, label_order=label_order,
                              **band, **span)
                try:
                    want = reference_ingest(path, **kwargs)
                except ValueError as err:
                    # an empty range, or no window meets the band
                    with pytest.raises(ValueError, match=str(err)):
                        ingest_edge_list(path, **kwargs)
                    continue
                got = ingest_edge_list(path, **kwargs)
                compared += 1
                snaps, labels, times, stats = want
                assert got.node_labels == labels
                assert got.times == times
                assert got.stats == stats
                assert len(got.snapshots) == len(snaps)
                for a, b in zip(got.snapshots, snaps):
                    for name in ("indptr", "indices", "data"):
                        x, y = getattr(a, name), getattr(b, name)
                        assert x.dtype == y.dtype
                        np.testing.assert_array_equal(x, y)
    assert compared > 0


def edges_strategy():
    labels = st.sampled_from(["a", "b", "c", "d", "e"])
    event = st.tuples(st.integers(min_value=0, max_value=99), labels, labels)
    return st.lists(event, min_size=1, max_size=40).filter(
        lambda evs: any(u != v for _, u, v in evs)
    )


@settings(max_examples=100, deadline=None)
@given(edges_strategy(), st.randoms())
def test_property_ingest_order_independent(tmp_path_factory, events, rnd):
    # with sorted labels and a fixed range, shuffling the file lines cannot
    # change the result
    tmp = tmp_path_factory.mktemp("ingest")
    shuffled = list(events)
    rnd.shuffle(shuffled)
    paths = []
    for tag, evs in (("one", events), ("two", shuffled)):
        path = tmp / f"{tag}.txt"
        write_events(path, [f"{t} {u} {v}" for t, u, v in evs])
        paths.append(path)
    kwargs = dict(window_seconds=25.0, start=0.0, end=100.0, label_order="sorted")
    s1 = ingest_edge_list(paths[0], **kwargs)
    s2 = ingest_edge_list(paths[1], **kwargs)
    assert s1.node_labels == s2.node_labels
    assert s1.n_snapshots == s2.n_snapshots
    for a, b in zip(s1.snapshots, s2.snapshots):
        assert (a != b).nnz == 0
