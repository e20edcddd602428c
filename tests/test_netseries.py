import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dynembed.netseries import GraphSeries, IngestStats, ParseError, ingest_edge_list


def make_series(seed=0, n=12, t=3, p=0.3):
    rng = np.random.default_rng(seed)
    snaps = []
    for _ in range(t):
        upper = np.triu(rng.random((n, n)) < p, k=1).astype(float)
        snaps.append(sp.csr_matrix(upper + upper.T))
    return GraphSeries(snapshots=snaps)


class TestGraphSeries:
    def test_unfold_layout(self):
        series = make_series()
        unfolded = series.unfold()
        assert unfolded.shape == (12, 36)
        for t in range(3):
            block = unfolded[:, t * 12 : (t + 1) * 12].toarray()
            np.testing.assert_array_equal(block, series.snapshots[t].toarray())

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            GraphSeries(snapshots=[sp.eye(3), sp.eye(4)])

    def test_permute_round_trip(self):
        series = make_series(seed=3)
        perm = np.random.default_rng(1).permutation(12)
        inverse = np.argsort(perm)
        back = series.permute(perm).permute(inverse)
        for a, b in zip(series.snapshots, back.snapshots):
            assert (a != b).nnz == 0

    def test_permute_moves_entries(self):
        a = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0.0]]))
        series = GraphSeries(snapshots=[a], node_labels=["x", "y", "z"])
        moved = series.permute(np.array([2, 0, 1]))
        # new node 1 is old node 0, new node 2 is old node 1
        expected = np.zeros((3, 3))
        expected[1, 2] = expected[2, 1] = 1.0
        np.testing.assert_array_equal(moved.snapshots[0].toarray(), expected)
        assert moved.node_labels == ["z", "x", "y"]

    def test_save_load_round_trip(self, tmp_path):
        series = make_series(seed=5)
        series.save(tmp_path / "series")
        back = GraphSeries.load(tmp_path / "series")
        assert back.n_nodes == series.n_nodes
        assert back.n_snapshots == series.n_snapshots
        for a, b in zip(series.snapshots, back.snapshots):
            assert (a != b).nnz == 0

    def test_densities(self):
        n = 6
        full = np.ones((n, n)) - np.eye(n)
        series = GraphSeries(snapshots=[sp.csr_matrix(full), sp.csr_matrix((n, n))])
        np.testing.assert_allclose(series.densities(), [1.0, 0.0])


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
