import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynembed
from dynembed import cli, embedders
from dynembed.cli import DataError, _parse_dims, _parse_grid, _parse_pair
from dynembed.cluster import parameter_count
from dynembed.embedders import uase
from dynembed.linalg import truncated_svd
from dynembed.netseries import GraphSeries
from helpers import write_csv_per_cell

FOURBLOCK_120 = """\
[model]
n_nodes = 120

[snapshot.1]
block_matrix =
    0.08 0.02 0.18 0.10
    0.02 0.20 0.04 0.10
    0.18 0.04 0.02 0.02
    0.10 0.10 0.02 0.06

[snapshot.2]
block_matrix =
    0.16 0.16 0.04 0.10
    0.16 0.16 0.04 0.10
    0.04 0.04 0.09 0.02
    0.10 0.10 0.02 0.06
"""

TWOBLOCK_120 = """\
[model]
n_nodes = 120

[snapshot.1]
block_matrix =
    0.35 0.05
    0.05 0.35

[snapshot.2]
block_matrix =
    0.30 0.10
    0.10 0.30
"""

EMPTY_10 = """\
[model]
n_nodes = 10

[snapshot.1]
block_matrix = 0.0
"""


def run(*words):
    return cli.main([str(w) for w in words])


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_manifest(out_dir):
    return json.loads((Path(out_dir) / "manifest.json").read_text())


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


@pytest.fixture(scope="module")
def sim120(tmp_path_factory):
    base = tmp_path_factory.mktemp("sim120")
    cfg = base / "fourblock120.cfg"
    cfg.write_text(FOURBLOCK_120)
    out = base / "run"
    assert run("simulate", "--config", cfg, "--seed", 1, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def sim120_one(tmp_path_factory):
    # the first snapshot of sim120's model on its own
    base = tmp_path_factory.mktemp("sim120_one")
    cfg = base / "fourblock120_one.cfg"
    cfg.write_text(FOURBLOCK_120.split("[snapshot.2]")[0])
    out = base / "run"
    assert run("simulate", "--config", cfg, "--seed", 1, "--out", out) == 0
    return out


def with_cell(path, tmp_path, line, column, value):
    """A copy of the CSV at ``path`` with one cell replaced; ``line`` is
    1-based and counts the header."""
    lines = Path(path).read_text().splitlines(keepends=True)
    cells = lines[line - 1].split(",")
    cells[column] = value
    lines[line - 1] = ",".join(cells)
    copy = tmp_path / Path(path).name
    copy.write_text("".join(lines))
    return copy


@pytest.fixture(scope="module")
def emb120(sim120, tmp_path_factory):
    out = tmp_path_factory.mktemp("emb120") / "uase4"
    code = run("embed", "--input", sim120 / "series", "--method", "uase",
               "--dim", 4, "--seed", 1, "--out", out)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    # full-size benchmark run, shared by the heavier end-to-end tests
    base = tmp_path_factory.mktemp("bench")
    sim = base / "sim"
    emb = base / "emb"
    assert run("simulate", "--config", "fourblock", "--seed", 0, "--out", sim) == 0
    code = run("embed", "--input", sim / "series", "--method", "uase",
               "--dim", 4, "--seed", 0, "--out", emb)
    assert code == 0
    return sim, emb


class TestSimulate:
    def test_outputs_and_repeatable_digests(self, tmp_path):
        cfg = tmp_path / "two.cfg"
        cfg.write_text(TWOBLOCK_120)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("simulate", "--config", cfg, "--seed", 5, "--out", out) == 0
            outs.append(out)
        for fname in ("edges_1.csv", "edges_2.csv", "truth.csv",
                      "series/labels.txt", "series/snapshots.npz"):
            assert sha(outs[0] / fname) == sha(outs[1] / fname)
        man = read_manifest(outs[0])
        assert man["seed"] == 5
        assert man["details"]["n_nodes"] == 120
        assert man["details"]["n_snapshots"] == 2
        assert str(cfg) in man["input_digests"]
        assert "dynembed" in man["versions"]
        timings = man["timings_seconds"]
        assert timings["total"] > 0
        parts = [timings[k] for k in ("sample", "save", "edges", "truth")]
        assert min(parts) >= 0 and sum(parts) <= timings["total"]
        assert man["peak_rss_mib"] > 0

    def test_seed_changes_edges(self, tmp_path):
        cfg = tmp_path / "two.cfg"
        cfg.write_text(TWOBLOCK_120)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", cfg, "--seed", 1, "--out", a) == 0
        assert run("simulate", "--config", cfg, "--seed", 2, "--out", b) == 0
        assert sha(a / "edges_1.csv") != sha(b / "edges_1.csv")

    def test_empty_model_writes_header_only_edges(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(EMPTY_10)
        out = tmp_path / "run"
        assert run("simulate", "--config", cfg, "--seed", 0, "--out", out) == 0
        assert (out / "edges_1.csv").read_text() == "u,v\n"
        header, rows = read_rows(out / "truth.csv")
        assert header == ["node_label", "time_label", "community"]
        assert [r[2] for r in rows] == ["1"] * 10
        assert read_manifest(out)["details"]["densities"] == [0.0]

    def test_one_node_has_density_zero(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("[model]\nn_nodes = 1\n\n[snapshot.1]\nblock_matrix = 0.5\n")
        out = tmp_path / "run"
        assert run("simulate", "--config", cfg, "--seed", 0, "--out", out) == 0
        assert read_manifest(out)["details"]["densities"] == [0.0]
        assert (out / "edges_1.csv").read_text() == "u,v\n"

    def test_truth_matches_config_labels(self, sim120):
        header, rows = read_rows(sim120 / "truth.csv")
        assert len(rows) == 240
        at_t1 = [r for r in rows if r[1] == "1"]
        # equal contiguous blocks of 30 nodes per community
        assert [r[2] for r in at_t1[:30]] == ["1"] * 30
        assert sorted({r[2] for r in rows}) == ["1", "2", "3", "4"]

    def test_nonfinite_degree_weight_exits_2(self, tmp_path, capsys):
        # a nan weight used to pass and leave node 3 without edges
        cfg = tmp_path / "weights.cfg"
        cfg.write_text("[model]\nn_nodes = 6\ndegree_weights = 1 1 nan 1 1 1\n\n"
                       "[snapshot.1]\nblock_matrix = 0.5\n")
        assert run("simulate", "--config", cfg, "--seed", 0, "--out", tmp_path / "x") == 2
        assert "degree_weights must be positive and finite" in capsys.readouterr().err

    def test_malformed_config_exits_2_naming_file(self, tmp_path, capsys):
        head = "[model]\nn_nodes = 4\n\n[snapshot.1]\n"
        cases = {
            "no_matrix": (head + "rho = 1\n", "[snapshot.1] needs a block_matrix"),
            "no_header": ("n_nodes = 4\n", "no section headers"),
            "two_models": ("[model]\nn_nodes = 4\n" + head + "block_matrix = 0.5\n",
                           "section 'model' already exists"),
            "ragged": (head + "block_matrix =\n    0.5 0.1\n    0.1\n",
                       "[snapshot.1] needs a block_matrix"),
        }
        for name, (text, message) in cases.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            assert run("simulate", "--config", cfg, "--out", tmp_path / "x") == 2, name
            err = capsys.readouterr().err
            assert f"{name}.cfg" in err and message in err, err

    def test_unknown_config_name(self, tmp_path):
        assert run("simulate", "--config", "no_such_model",
                   "--out", tmp_path / "x") == 2

    def test_peak_memory_grows_with_edges_not_pairs(self, tmp_path):
        # n = 4000 has 8.0e6 node pairs per snapshot but about 2.4e5 edges; a
        # dense n x n probability matrix alone would take 122 MiB, so the
        # whole process staying under 200 MiB means sampling is not quadratic
        pytest.importorskip("resource")
        cfg = tmp_path / "two.cfg"
        cfg.write_text(
            "[model]\nn_nodes = 4000\n\n"
            "[snapshot.1]\nblock_matrix =\n    0.05 0.01\n    0.01 0.05\n\n"
            "[snapshot.2]\nblock_matrix =\n    0.01 0.05\n    0.05 0.01\n")
        src = str(Path(dynembed.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = tmp_path / "run"
        # Linux starts a spawned process's ru_maxrss at its parent's peak, so
        # a small launcher stands between this test process and the CLI
        launcher = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
        subprocess.run([sys.executable, "-c", launcher, sys.executable, "-m",
                        "dynembed.cli", "simulate", "--config", str(cfg),
                        "--seed", "0", "--out", str(out)],
                       env=env, capture_output=True, check=True)
        assert 0 < read_manifest(out)["peak_rss_mib"] < 200

    def test_peak_memory_excludes_exec_launcher(self, emb120, tmp_path):
        # a launcher touches 256 MiB and then execs the CLI in its place; the
        # manifest counts the CLI's own peak, not the image it replaced
        src = str(Path(dynembed.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = tmp_path / "clus"
        launcher = ("import os, sys; ballast = b'x' * (256 << 20); "
                    "os.execv(sys.executable, [sys.executable] + sys.argv[1:])")
        subprocess.run([sys.executable, "-c", launcher, "-m", "dynembed.cli",
                        "cluster", "--embedding", str(emb120), "--grid", "1-2",
                        "--restarts", "1", "--out", str(out)],
                       env=env, capture_output=True, check=True)
        assert 0 < read_manifest(out)["peak_rss_mib"] < 200


def random_columns(seed, rows):
    """Columns of every kind the CSV writer is given, ``rows`` long."""
    rng = np.random.default_rng(seed)
    specials = [-0.0, 0.0, 1e-300, 5e-324, np.inf, -np.inf, np.nan, 0.1, 1 / 3]
    return [
        rng.integers(-10**12, 10**12, rows),
        rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
        np.resize(specials, rows),
        np.array([f"node{k}" for k in rng.integers(0, 99, rows)], dtype=object),
        [f"label {k}" for k in rng.integers(0, 99, rows)],
        [int(k) for k in rng.integers(-5, 5, rows)],
        [float(x) for x in rng.standard_normal(rows)],
        tuple(float(x) for x in np.resize(specials[::-1], rows)),
        [bool(k) for k in rng.integers(0, 2, rows)],
    ]


class TestWriteCsv:
    @pytest.mark.parametrize("chunk", [1, 7, None])
    @pytest.mark.parametrize("rows", [0, 1, 7, 50])
    @pytest.mark.parametrize("header", [None, "names"])
    def test_bytes_equal_the_per_cell_writer(self, tmp_path, monkeypatch, chunk, rows, header):
        if chunk is not None:
            monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        columns = random_columns(rows, rows)
        names = None if header is None else [f"c{k}" for k in range(len(columns))]
        assert cli._write_csv(tmp_path / "new.csv", names, columns) == rows
        assert write_csv_per_cell(tmp_path / "old.csv", names, columns) == rows
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_no_columns_writes_the_header_only(self, tmp_path):
        assert cli._write_csv(tmp_path / "a.csv", ["x"], []) == 0
        assert (tmp_path / "a.csv").read_text() == "x\n"

    def test_unequal_columns_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 2)
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "a.csv", None, [[1, 2, 3], [1, 2]])

    def test_labelled_columns_equal_their_lists(self, tmp_path, monkeypatch):
        # 50 rows in chunks of 7; labelled columns first and last, so both
        # separators are folded into labels
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 7)
        rng = np.random.default_rng(3)
        labels = [f"node {k}" for k in range(12)]
        codes = rng.integers(0, 12, 50)
        floats = rng.standard_normal(50)
        listed = [[labels[c] for c in codes], floats, [labels[c] for c in codes[::-1]]]
        labelled = [(labels, codes), floats, (labels, codes[::-1])]
        assert cli._write_csv(tmp_path / "listed.csv", ["a", "b", "c"], listed) == 50
        assert cli._write_csv(tmp_path / "labelled.csv", ["a", "b", "c"], labelled) == 50
        write_csv_per_cell(tmp_path / "old.csv", ["a", "b", "c"], listed)
        assert (tmp_path / "labelled.csv").read_bytes() == (tmp_path / "listed.csv").read_bytes()
        assert (tmp_path / "labelled.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_labelled_column_length_is_its_codes(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "a.csv", None, [(["a", "b"], np.array([0, 1, 1])), [1, 2]])


def read_embedding_rowwise(path):
    """Reference reader: groups the rows of an embedding CSV by time in the
    order the file first names each time, one row at a time."""
    labels, coords = {}, {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            label, t, *y = line.strip().split(",")
            labels.setdefault(float(t), []).append(label)
            coords.setdefault(float(t), []).append([float(x) for x in y])
    return list(coords), [labels[t] for t in coords], [np.array(coords[t]) for t in coords]


class TestReadCsv:
    @pytest.mark.parametrize("first, second, message", [
        ((5, 3, "nan"), (9, 2, "x"), "line 5: bad y_2 'nan'"),
        ((3, 2, "x"), (7, None, None), "line 3: bad y_1 'x'"),
        ((7, 2, "x"), (3, None, None), "line 3: ragged row, 5 cells for 6 columns"),
    ])
    def test_first_bad_line_in_file_order(self, emb120, tmp_path, first, second, message):
        # two defects in one chunk: the error names the earlier line, whichever
        # column or kind of defect comes first; a cell of None drops the line's
        # last cell
        lines = (emb120 / "embedding.csv").read_text().splitlines(keepends=True)
        for line, column, value in (first, second):
            cells = lines[line - 1].rstrip("\n").split(",")
            if value is None:
                cells.pop()
            else:
                cells[column] = value
            lines[line - 1] = ",".join(cells) + "\n"
        path = tmp_path / "embedding.csv"
        path.write_text("".join(lines))
        with pytest.raises(DataError) as info:
            cli._read_embedding_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_bad_cell_in_a_later_chunk(self, tmp_path):
        rows = [f"{k},1,1\n" for k in range(cli.CSV_CHUNK_ROWS + 10)]
        rows[cli.CSV_CHUNK_ROWS + 1] = "x,1,one\n"
        truth = tmp_path / "truth.csv"
        truth.write_text("node_label,time_label,community\n" + "".join(rows))
        with pytest.raises(DataError) as info:
            cli._read_truth(truth)
        assert str(info.value) == f"{truth}: line {cli.CSV_CHUNK_ROWS + 3}: bad community 'one'"

    @pytest.mark.parametrize("chunk", [5, None])
    def test_shuffled_embedding_equals_the_rowwise_reader(self, emb120, tmp_path,
                                                          monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        header, *body = (emb120 / "embedding.csv").read_text().splitlines(keepends=True)
        order = np.random.default_rng(5).permutation(len(body))
        path = tmp_path / "embedding.csv"
        path.write_text(header + "".join(body[k] for k in order))
        emb, labels, times = cli._read_embedding_csv(path)
        want_times, want_labels, want_points = read_embedding_rowwise(path)
        assert times == want_times and labels == want_labels
        for got, want in zip(emb.points, want_points, strict=True):
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, want)

    def test_interleaved_times_give_the_same_report(self, sim120, emb120, tmp_path):
        # time 2 named first and rows alternating between the times: the file
        # holds the same point sets, so the report is the same to the byte
        header, *body = (emb120 / "embedding.csv").read_text().splitlines(keepends=True)
        n = len(body) // 2
        path = tmp_path / "embedding.csv"
        path.write_text(header + "".join(body[n + k] + body[k] for k in range(n)))
        reports = []
        for emb in (emb120, path):
            out = tmp_path / f"rep{len(reports)}"
            run("stability", "--embedding", emb, "--truth", sim120 / "truth.csv",
                *TestStability.PAIRS, "--threshold", 10, "--out", out)
            reports.append((out / "report.csv").read_bytes())
        assert reports[0] == reports[1]


class TestEmbed:
    def test_uase_outputs(self, emb120):
        header, rows = read_rows(emb120 / "embedding.csv")
        assert header == ["node_label", "time_label", "y_1", "y_2", "y_3", "y_4"]
        assert len(rows) == 240
        assert (emb120 / "left.csv").exists()
        _, scree = read_rows(emb120 / "scree.csv")
        assert len(scree) == 4
        values = [float(r[1]) for r in scree]
        assert values == sorted(values, reverse=True)
        man = read_manifest(emb120)
        assert man["details"]["method"] == "uase"
        assert man["details"]["dimensions"] == [4, 4]
        assert man["details"]["embedding_rows"] == 240
        assert man["details"]["auto_dimension"] is False
        residuals = man["details"]["singular_value_residuals"]
        assert len(residuals) == len(man["details"]["singular_values"])
        assert max(residuals) < 1e-8
        assert man["details"]["gram_products"] > 0
        assert any(k.endswith("snapshots.npz") for k in man["input_digests"])
        assert man["peak_rss_mib"] > 0

    def test_npz_input_digests_the_labels_it_reads(self, sim120, tmp_path):
        npz = sim120 / "series" / "snapshots.npz"
        out = tmp_path / "o"
        assert run("embed", "--input", npz, "--method", "uase", "--dim", 2,
                   "--seed", 1, "--out", out) == 0
        assert sorted(read_manifest(out)["input_digests"]) == [
            str(npz.parent / "labels.txt"), str(npz)]

    def test_renamed_npz_is_refused(self, sim120, tmp_path, capsys):
        # a series npz is read with the labels.txt beside it, so only the
        # name the saver writes is accepted, not a sibling loaded in its place
        series = tmp_path / "series"
        shutil.copytree(sim120 / "series", series)
        shutil.copy(series / "snapshots.npz", series / "renamed.npz")
        assert run("embed", "--input", series / "renamed.npz", "--method",
                   "uase", "--dim", 2, "--out", tmp_path / "o") == 2
        assert "renamed.npz" in capsys.readouterr().err

    def test_same_seed_reproduces_csv(self, sim120, emb120, tmp_path):
        out = tmp_path / "again"
        assert run("embed", "--input", sim120 / "series", "--method", "uase",
                   "--dim", 4, "--seed", 1, "--out", out) == 0
        assert sha(out / "embedding.csv") == sha(emb120 / "embedding.csv")

    def test_auto_dimension_two_block(self, tmp_path):
        cfg = tmp_path / "two.cfg"
        cfg.write_text(TWOBLOCK_120)
        sim = tmp_path / "sim"
        assert run("simulate", "--config", cfg, "--seed", 0, "--out", sim) == 0
        out = tmp_path / "emb"
        assert run("embed", "--input", sim / "series", "--method", "uase",
                   "--dim", "auto", "--seed", 0, "--out", out) == 0
        man = read_manifest(out)
        assert man["details"]["dimensions"] == [2, 2]
        assert man["details"]["auto_dimension"] is True
        curve = man["details"]["dimension_curve"]
        assert len(curve) == len(man["details"]["singular_values"]) - 1
        assert int(np.argmax(curve)) + 1 == 2

    def test_independent_dim_list_pads_csv(self, sim120, tmp_path):
        out = tmp_path / "ind"
        assert run("embed", "--input", sim120 / "series", "--method",
                   "independent", "--dim", "3,2", "--seed", 0, "--out", out) == 0
        man = read_manifest(out)
        assert man["details"]["dimensions"] == [3, 2]
        header, rows = read_rows(out / "embedding.csv")
        assert header[2:] == ["y_1", "y_2", "y_3"]
        second = [r for r in rows if r[1] == "2"]
        assert len(second) == 120
        assert all(float(r[4]) == 0.0 for r in second)
        assert any(float(r[4]) != 0.0 for r in rows if r[1] == "1")

    def test_other_methods_run(self, sim120, tmp_path):
        for method in ("omnibus", "separate"):
            out = tmp_path / method
            assert run("embed", "--input", sim120 / "series", "--method",
                       method, "--dim", 2, "--seed", 0, "--out", out) == 0
            assert read_manifest(out)["details"]["embedding_rows"] == 240

    def test_edge_list_input(self, tmp_path):
        events = tmp_path / "events.txt"
        events.write_text(
            "# toy contact events\n"
            "1 a b\n2 b c\n3 a c\n"
            "5 b b\n6 a b\n"
            "12 a d\n13 b d\n14 c d\n"
        )
        out = tmp_path / "emb"
        assert run("embed", "--input", events, "--method", "uase", "--dim", 2,
                   "--window-seconds", 10, "--seed", 0, "--out", out) == 0
        header, rows = read_rows(out / "embedding.csv")
        assert len(rows) == 8
        assert {r[0] for r in rows} == {"a", "b", "c", "d"}
        ingest = read_manifest(out)["details"]["ingest"]
        assert ingest["events_read"] == 8
        assert ingest["self_loops_dropped"] == 1
        assert ingest["duplicate_pairs_collapsed"] == 1

    def test_uase_at_rank_n_minus_one_runs_lanczos(self, tmp_path):
        # d = n - 1 takes the Lanczos route like any other d: the manifest
        # counts its products and every scree triplet is exact
        events = tmp_path / "events.txt"
        events.write_text("1 a b\n2 b c\n3 c d\n4 d e\n5 a e\n"
                          "11 a c\n12 b d\n13 c e\n14 a b\n")
        out = tmp_path / "emb"
        assert run("embed", "--input", events, "--method", "uase", "--dim", 4,
                   "--window-seconds", 10, "--seed", 0, "--out", out) == 0
        details = read_manifest(out)["details"]
        assert len(details["singular_values"]) == 4
        assert details["gram_products"] > 0
        assert max(details["singular_value_residuals"]) <= 1e-12

    def test_empty_series_embeds_to_zeros(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(EMPTY_10)
        sim = tmp_path / "sim"
        assert run("simulate", "--config", cfg, "--out", sim) == 0
        out = tmp_path / "emb"
        assert run("embed", "--input", sim / "series", "--method", "uase",
                   "--dim", 2, "--seed", 0, "--out", out) == 0
        _, rows = read_rows(out / "embedding.csv")
        assert all(float(x) == 0.0 for r in rows for x in r[2:])

    def test_data_errors_exit_2(self, sim120, tmp_path):
        series = sim120 / "series"
        cases = [
            ("embed", "--input", tmp_path / "missing", "--method", "uase",
             "--dim", 2, "--out", tmp_path / "o1"),
            ("embed", "--input", series, "--method", "uase", "--dim", "x",
             "--out", tmp_path / "o2"),
            ("embed", "--input", series, "--method", "uase", "--dim", 0,
             "--out", tmp_path / "o3"),
            ("embed", "--input", series, "--method", "independent",
             "--dim", "1,2,3", "--out", tmp_path / "o4"),
            ("embed", "--input", series, "--method", "uase", "--dim", 500,
             "--out", tmp_path / "o5"),
        ]
        for words in cases:
            assert run(*words) == 2

    @pytest.mark.parametrize("defect", ["old format", "missing times", "truncated",
                                        "not a zip", "short labels"])
    def test_unreadable_series_file_exits_2(self, sim120, tmp_path, capsys, defect):
        series = tmp_path / "series"
        shutil.copytree(sim120 / "series", series)
        npz = series / "snapshots.npz"
        named = npz
        with np.load(npz) as payload:
            entries = dict(payload)
        if defect == "old format":
            # both triangles as row_t/col_t triplets, compressed, no format entry
            entries = {"n_nodes": entries["n_nodes"], "times": entries["times"]}
            for t, a in enumerate(GraphSeries.load(sim120 / "series").snapshots):
                coo = a.tocoo()
                entries[f"row_{t}"], entries[f"col_{t}"] = coo.row, coo.col
            np.savez_compressed(npz, **entries)
        elif defect == "missing times":
            del entries["times"]
            np.savez(npz, **entries)
        elif defect == "truncated":
            npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        elif defect == "not a zip":
            npz.write_text("node,node,time\n")
        else:
            named = series / "labels.txt"
            named.write_text("".join(named.read_text().splitlines(True)[:-1]))
        assert run("embed", "--input", series, "--method", "uase", "--dim", 2,
                   "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert str(named) in err and "Traceback" not in err
        if defect == "old format":
            assert "re-run `dynembed simulate`" in err

    @pytest.mark.parametrize("method", ["uase", "omnibus"])
    def test_joint_methods_reject_dim_list(self, sim120, tmp_path, capsys, method):
        # a list is refused for its kind before its length is checked
        for dims in ("3,3", "3,3,3"):
            assert run("embed", "--input", sim120 / "series", "--method", method,
                       "--dim", dims, "--out", tmp_path / "o") == 2
            assert "takes one dimension" in capsys.readouterr().err

    def test_uase_decomposes_unfolding_once(self, sim120, tmp_path, monkeypatch):
        calls = []

        def counted(m, d, seed=0, **kwargs):
            calls.append(d)
            return truncated_svd(m, d, seed, **kwargs)

        monkeypatch.setattr(cli, "truncated_svd", counted)
        monkeypatch.setattr(embedders, "truncated_svd", counted)
        assert run("embed", "--input", sim120 / "series", "--method", "uase",
                   "--dim", 4, "--seed", 1, "--out", tmp_path / "o") == 0
        assert calls == [4]

    def test_omnibus_decomposes_unfolding_once_at_its_rank(self, sim120, tmp_path,
                                                          monkeypatch):
        # the scree beside a given dimension is the unfolding's top d values,
        # not a long scree that nothing reads
        calls = []

        def counted(m, d, seed=0, **kwargs):
            calls.append((m.shape, d))
            return truncated_svd(m, d, seed, **kwargs)

        monkeypatch.setattr(cli, "truncated_svd", counted)
        monkeypatch.setattr(embedders, "truncated_svd", counted)
        out = tmp_path / "o"
        assert run("embed", "--input", sim120 / "series", "--method", "omnibus",
                   "--dim", 3, "--seed", 1, "--out", out) == 0
        assert [d for shape, d in calls if shape == (120, 240)] == [3]
        assert all(d == 3 for _, d in calls)
        _, scree = read_rows(out / "scree.csv")
        assert len(scree) == 3

    def test_dim_list_scree_has_the_largest_entry(self, sim120, tmp_path):
        # the largest entry comes last, so the first one would be too short
        out = tmp_path / "ind"
        assert run("embed", "--input", sim120 / "series", "--method",
                   "independent", "--dim", "2,3", "--seed", 0, "--out", out) == 0
        _, scree = read_rows(out / "scree.csv")
        assert len(scree) == 3
        assert len(read_manifest(out)["details"]["singular_values"]) == 3

    def test_auto_dimension_scree_is_the_exact_bulk(self, sim120, tmp_path):
        # --dim auto writes the long scree it reads; each value matches the
        # square root of an eigenvalue of sum_t A_t A_t^T
        out = tmp_path / "auto"
        assert run("embed", "--input", sim120 / "series", "--method", "uase",
                   "--dim", "auto", "--seed", 0, "--out", out) == 0
        _, rows = read_rows(out / "scree.csv")
        series = GraphSeries.load(sim120 / "series")
        n = series.n_nodes
        assert len(rows) == min(50, n)
        gram = sum((a @ a.T).toarray() for a in series.snapshots)
        exact = np.sqrt(np.clip(np.linalg.eigvalsh(gram)[::-1][:len(rows)], 0, None))
        got = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(got, exact, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("sim", ["sim120", "sim120_one"])
    def test_library_unfolding_gives_the_auto_scree(self, sim, tmp_path, request):
        # GraphSeries.unfold() is the operator embed decomposes and it says
        # itself whether it is symmetric (one snapshot), so a library caller's
        # rank-50 scree is the manifest's bit for bit at every T
        series_dir = request.getfixturevalue(sim) / "series"
        out = tmp_path / "auto"
        assert run("embed", "--input", series_dir, "--method", "uase",
                   "--dim", "auto", "--seed", 1, "--out", out) == 0
        scree = truncated_svd(GraphSeries.load(series_dir).unfold(), 50, seed=1).s
        assert scree.tolist() == read_manifest(out)["details"]["singular_values"]

    def test_uase_csv_equals_library_rows(self, sim120, emb120):
        # the CLI decomposes the unfolding at rank d: bit for bit what the
        # library's uase gives
        series = GraphSeries.load(sim120 / "series")
        lib = uase(series, 4, seed=1)
        _, rows = read_rows(emb120 / "embedding.csv")
        got = np.array([[float(x) for x in r[2:]] for r in rows])
        left = np.loadtxt(emb120 / "left.csv", delimiter=",")
        np.testing.assert_array_equal(got, np.vstack(lib.points))
        np.testing.assert_array_equal(left, lib.left)

    def test_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        # n = 500, T = 10 at p = 0.05 within and 0.01 between, the third
        # community copying the first from time 6 on: with threaded BLAS
        # reductions this series' rank-50 scree and embedding differed
        # between one and two threads
        blocks = ["0.05 0.01 0.01\n    0.01 0.05 0.01\n    0.01 0.01 0.05",
                  "0.05 0.01 0.05\n    0.01 0.05 0.01\n    0.05 0.01 0.05"]
        cfg = tmp_path / "dsbm500.cfg"
        cfg.write_text("[model]\nn_nodes = 500\n\n" + "".join(
            f"[snapshot.{t}]\nblock_matrix =\n    {blocks[t >= 6]}\n\n" for t in range(1, 11)))
        assert run("simulate", "--config", cfg, "--seed", 1, "--out", tmp_path / "sim") == 0
        src = str(Path(dynembed.__file__).resolve().parents[1])
        children = {}
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            children[threads] = subprocess.Popen(
                [sys.executable, "-m", "dynembed.cli", "embed", "--input",
                 str(tmp_path / "sim" / "series"), "--method", "uase", "--dim", "auto",
                 "--seed", "1", "--out", str(tmp_path / threads)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        for child in children.values():
            _, err = child.communicate()
            assert child.returncode == 0, err.decode()
        for name in ("embedding.csv", "scree.csv", "left.csv"):
            assert sha(tmp_path / "1" / name) == sha(tmp_path / "2" / name), name

    @pytest.mark.parametrize("budget, route", [(None, "dense"), (0, "matrix-free")])
    def test_manifest_names_the_omnibus_route(self, sim120, emb120, tmp_path,
                                              monkeypatch, budget, route):
        if budget is not None:
            monkeypatch.setattr(embedders, "DENSE_OMNIBUS_MAX_ENTRIES", budget)
        out = tmp_path / "omni"
        assert run("embed", "--input", sim120 / "series", "--method", "omnibus",
                   "--dim", 3, "--seed", 1, "--out", out) == 0
        assert read_manifest(out)["details"]["omnibus_route"] == route
        assert "omnibus_route" not in read_manifest(emb120)["details"]

    def test_edge_list_daily_band(self, tmp_path, capsys):
        # 22:00-06:00 wraps midnight; half a band is refused, not ignored
        events = tmp_path / "events.txt"
        events.write_text("79300 a b\n86500 b c\n90000 a c\n")
        base = ("embed", "--input", events, "--method", "uase", "--dim", 1,
                "--window-seconds", 3600)
        assert run(*base, "--daily-start", 79200, "--daily-end", 21600,
                   "--out", tmp_path / "night") == 0
        assert read_manifest(tmp_path / "night")["details"]["ingest"][
            "events_masked"] == 0
        assert run(*base, "--daily-start", 79200, "--out", tmp_path / "half") == 2
        assert "daily_end is missing" in capsys.readouterr().err
        assert run(*base, "--daily-start", 3600, "--daily-end", 3600,
                   "--out", tmp_path / "empty") == 2
        assert "3 of 3 events masked" in capsys.readouterr().err

    def test_edge_list_infinite_end_exits_2(self, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_text("1 a b\n2 b c\n")
        assert run("embed", "--input", events, "--method", "uase", "--dim", 1,
                   "--window-seconds", 10, "--end", "inf",
                   "--out", tmp_path / "o") == 2
        assert "end must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("band", [(), ("--daily-start", 0, "--daily-end", 60)])
    @pytest.mark.parametrize("window", [1e-15, 1e-9])
    def test_edge_list_window_count_exits_2(self, tmp_path, capsys, window, band):
        events = tmp_path / "events.txt"
        events.write_text("0 a b\n1 b c\n2 a c\n")
        assert run("embed", "--input", events, "--method", "uase", "--dim", 1,
                   "--window-seconds", window, *band, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "windows" in err and "limit of" in err
        assert "Traceback" not in err

    def test_saved_series_refuses_edge_list_options(self, sim120, tmp_path, capsys):
        assert run("embed", "--input", sim120 / "series", "--method", "uase",
                   "--dim", 2, "--window-seconds", 5, "--daily-start", 3,
                   "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "--window-seconds, --daily-start apply to a raw edge list" in err
        assert not (tmp_path / "o").exists()

    def test_edge_list_needs_window(self, tmp_path):
        events = tmp_path / "events.txt"
        events.write_text("1 a b\n")
        assert run("embed", "--input", events, "--method", "uase",
                   "--dim", 1, "--out", tmp_path / "o") == 2


class TestStability:
    PAIRS = ("--pair", "1:1/2:1", "--pair", "4:1/4:2")

    def test_generous_threshold_passes(self, sim120, emb120, tmp_path):
        out = tmp_path / "rep"
        code = run("stability", "--embedding", emb120, "--truth",
                   sim120 / "truth.csv", *self.PAIRS, "--threshold", 10,
                   "--out", out)
        assert code == 0
        header, rows = read_rows(out / "report.csv")
        assert header == [
            "group_a", "time_a", "group_b", "time_b", "centroid_gap",
            "separation", "gap_ratio", "cov_gap", "scale", "passed",
            "cov_skipped",
        ]
        assert len(rows) == 2
        assert [r[9] for r in rows] == ["1", "1"]
        for r in rows:
            assert 0.0 < float(r[6]) < 10.0
        text = (out / "report.txt").read_text()
        assert "4:1 vs 4:2" in text and "[pass]" in text
        man = read_manifest(out)
        assert man["details"]["passed"] is True
        assert len(man["details"]["gap_ratios"]) == 2
        assert man["peak_rss_mib"] > 0

    def test_tiny_threshold_fails_with_exit_3(self, sim120, emb120, tmp_path):
        out = tmp_path / "rep"
        code = run("stability", "--embedding", emb120, "--truth",
                   sim120 / "truth.csv", *self.PAIRS, "--threshold", 1e-4,
                   "--out", out)
        assert code == 3
        _, rows = read_rows(out / "report.csv")
        for r in rows:
            assert (float(r[6]) < 1e-4) == (r[9] == "1")
        assert "FAIL" in (out / "report.txt").read_text()

    def test_text_report_has_the_csv_rows(self, sim120, emb120, tmp_path, capsys):
        out = tmp_path / "rep"
        run("stability", "--embedding", emb120, "--truth", sim120 / "truth.csv",
            *self.PAIRS, "--threshold", 0.05, "--out", out)
        _, rows = read_rows(out / "report.csv")
        lines = (out / "report.txt").read_text().splitlines()
        assert lines[0] == "threshold 0.05"
        assert capsys.readouterr().out.splitlines() == lines
        assert len(lines) == len(rows) + 1
        for row, line in zip(rows, lines[1:]):
            verdict = "[pass]" if row[9] == "1" else "[FAIL]"
            assert line.startswith(f"{row[0]}:{float(row[1]):g} vs "
                                   f"{row[2]}:{float(row[3]):g}: ")
            assert line.endswith(verdict)
        assert read_manifest(out)["details"]["gap_ratios"] == [
            float(r[6]) for r in rows]

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "0"])
    def test_threshold_must_be_positive_and_finite(self, emb120, tmp_path, capsys,
                                                   threshold):
        # refused before the (missing) truth file is read
        assert run("stability", "--embedding", emb120, "--truth",
                   tmp_path / "absent.csv", *self.PAIRS, "--threshold", threshold,
                   "--out", tmp_path / "rep") == 2
        assert "--threshold must be positive and finite" in capsys.readouterr().err

    def test_missing_truth_entries(self, emb120, tmp_path):
        truth = tmp_path / "truth.csv"
        truth.write_text("node_label,time_label,community\n1,1,1\n")
        assert run("stability", "--embedding", emb120, "--truth", truth,
                   *self.PAIRS, "--out", tmp_path / "rep") == 2

    def test_empty_group_named_as_written(self, sim120, emb120, tmp_path, capsys):
        assert run("stability", "--embedding", emb120, "--truth", sim120 / "truth.csv",
                   "--pair", "9:1/4:2", "--out", tmp_path / "rep") == 2
        assert "pair group 9:1 has no nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", ["1:1/1:1", "4:2/4:2.0"])
    def test_pair_of_a_group_with_itself_exits_2(self, sim120, emb120, tmp_path, capsys,
                                                 pair):
        # such a pair scored gap_ratio 0 and passed, a verdict that tests nothing
        assert run("stability", "--embedding", emb120, "--truth", sim120 / "truth.csv",
                   "--pair", pair, "--out", tmp_path / "rep") == 2
        assert f"--pair '{pair}' pairs group {pair.split('/')[0]} with itself" in (
            capsys.readouterr().err)
        assert not (tmp_path / "rep").exists()

    def test_bad_pairs(self, sim120, emb120, tmp_path):
        truth = sim120 / "truth.csv"
        assert run("stability", "--embedding", emb120, "--truth", truth,
                   "--pair", "1:5/2:1", "--out", tmp_path / "a") == 2
        assert run("stability", "--embedding", emb120, "--truth", truth,
                   "--pair", "nonsense", "--out", tmp_path / "b") == 2

    @pytest.mark.parametrize("body, line, what", [
        ("1,1,1\n2,1\n", 3, "ragged row"),
        ("1,1,x\n", 2, "bad community 'x'"),
        ("1,1,1\n2,nan,1\n", 3, "bad time_label 'nan'"),
    ])
    def test_bad_truth_row_names_file_and_line(self, emb120, tmp_path, capsys,
                                               body, line, what):
        truth = tmp_path / "truth.csv"
        truth.write_text("node_label,time_label,community\n" + body)
        assert run("stability", "--embedding", emb120, "--truth", truth,
                   *self.PAIRS, "--out", tmp_path / "rep") == 2
        err = capsys.readouterr().err
        assert f"{truth}: line {line}: {what}" in err

    def test_bad_embedding_cell_names_file_and_line(self, sim120, emb120,
                                                    tmp_path, capsys):
        # a nan or inf coordinate is refused too; nan used to drop out of the
        # score's min and pass
        for value in ("abc", "nan", "inf"):
            emb = with_cell(emb120 / "embedding.csv", tmp_path, 5, 3, value)
            assert run("stability", "--embedding", emb, "--truth",
                       sim120 / "truth.csv", *self.PAIRS,
                       "--out", tmp_path / "rep") == 2
            assert f"{emb}: line 5: bad y_2 '{value}'" in capsys.readouterr().err

    def test_rejects_non_embedding_csv(self, sim120, tmp_path):
        assert run("stability", "--embedding", sim120 / "truth.csv", "--truth",
                   sim120 / "truth.csv", *self.PAIRS,
                   "--out", tmp_path / "rep") == 2


class TestManifest:
    def test_every_command_records_blas_and_thread_variables(self, sim120, emb120,
                                                             tmp_path, monkeypatch):
        # the BLAS numpy was built with, and each thread variable as set,
        # None when unset
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        cfg = tmp_path / "fourblock120.cfg"
        cfg.write_text(FOURBLOCK_120)
        outs = {"simulate": ("--config", cfg, "--seed", 1),
                "embed": ("--input", sim120 / "series", "--method", "uase", "--dim", 2),
                "stability": ("--embedding", emb120, "--truth", sim120 / "truth.csv",
                              *TestStability.PAIRS, "--threshold", 10),
                "cluster": ("--embedding", emb120, "--grid", "1-2", "--restarts", 1)}
        for command, words in outs.items():
            assert run(command, *words, "--out", tmp_path / command) == 0
            man = read_manifest(tmp_path / command)
            assert man["versions"]["blas"] == f"{blas['name']} {blas['version']}"
            assert man["blas_threads"] == {"OPENBLAS_NUM_THREADS": "3",
                                           "OMP_NUM_THREADS": "1",
                                           "MKL_NUM_THREADS": None}

    def test_blas_unknown_without_build_record(self, tmp_path, monkeypatch):
        # numpy before 1.26 takes no mode= and has no build dictionary
        def show_config():
            return None

        monkeypatch.setattr(cli.np, "show_config", show_config)
        cli._write_manifest(tmp_path, [], 0)
        assert read_manifest(tmp_path)["versions"]["blas"] == "unknown"


class TestCluster:
    def test_nonfinite_embedding_cell_exits_2(self, emb120, tmp_path, capsys):
        # a nan coordinate used to pool as an isolated node's row
        emb = with_cell(emb120 / "embedding.csv", tmp_path, 5, 3, "nan")
        assert run("cluster", "--embedding", emb, "--grid", "1-2",
                   "--out", tmp_path / "clus") == 2
        assert f"{emb}: line 5: bad y_2 'nan'" in capsys.readouterr().err

    def test_outputs_and_bic_table(self, sim120, tmp_path):
        emb = tmp_path / "emb3"
        assert run("embed", "--input", sim120 / "series", "--method", "uase",
                   "--dim", 3, "--seed", 1, "--out", emb) == 0
        out = tmp_path / "clus"
        assert run("cluster", "--embedding", emb, "--grid", "1-3",
                   "--restarts", 3, "--seed", 0, "--out", out) == 0
        header, rows = read_rows(out / "assignments.csv")
        assert header == ["node_label", "time_label", "cluster", "max_posterior"]
        assert len(rows) == 240
        assert {int(r[2]) for r in rows} <= {1, 2, 3}
        assert all(0.0 < float(r[3]) <= 1.0 for r in rows)
        _, bic_rows = read_rows(out / "bic.csv")
        assert [int(r[0]) for r in bic_rows] == [1, 2, 3]
        man = read_manifest(out)
        best_g = min(bic_rows, key=lambda r: float(r[1]))[0]
        assert man["details"]["selected_components"] == int(best_g)
        assert man["details"]["pooled_rows"] == 240
        assert man["peak_rss_mib"] > 0
        g = man["details"]["selected_components"]
        # the selected fit explains itself: its BIC follows from its loglik
        details = man["details"]
        assert isinstance(details["converged"], bool)
        assert details["regularized"] is False
        assert isinstance(details["n_iter"], int) and details["n_iter"] >= 1
        penalty = parameter_count(g, 2) * np.log(240)
        assert -2.0 * details["loglik"] + penalty == pytest.approx(
            min(float(r[1]) for r in bic_rows), rel=1e-12)
        # one row per grid count, each the kept fit behind its bic.csv row
        grid_fits = details["grid_fits"]
        assert [[f["components"], f["bic"]] for f in grid_fits] == [
            [int(r[0]), float(r[1])] for r in bic_rows] == details["bic_table"]
        for fit in grid_fits:
            assert isinstance(fit["n_iter"], int) and fit["n_iter"] >= 1
            assert isinstance(fit["converged"], bool)
            assert isinstance(fit["regularized"], bool)
            assert -2.0 * fit["loglik"] + parameter_count(fit["components"], 2) * np.log(
                240) == pytest.approx(fit["bic"], rel=1e-12)
        assert grid_fits[g - 1]["loglik"] == details["loglik"]
        header, props = read_rows(out / "proportions.csv")
        assert header == ["cluster", "1", "2"]
        assert len(props) == g
        for col in (1, 2):
            assert np.isclose(sum(float(r[col]) for r in props), 1.0)
            # each share is the exact tally of assignments.csv at that time
            at_t = [int(r[2]) for r in rows if r[1] == header[col]]
            assert [float(r[col]) for r in props] == [
                at_t.count(c) / len(at_t) for c in range(1, g + 1)]

    def test_single_blob_selects_one_component(self, tmp_path):
        rng = np.random.default_rng(7)
        pts = rng.normal([2.0, 2.0], 0.05, size=(50, 2))
        csv = tmp_path / "embedding.csv"
        with open(csv, "w", encoding="utf-8") as fh:
            fh.write("node_label,time_label,y_1,y_2\n")
            for i, (a, b) in enumerate(pts):
                fh.write(f"n{i},1,{float(a)},{float(b)}\n")
        out = tmp_path / "clus"
        assert run("cluster", "--embedding", csv, "--grid", "1-3",
                   "--restarts", 3, "--seed", 0, "--out", out) == 0
        assert read_manifest(out)["details"]["selected_components"] == 1

    def test_grid_larger_than_data_exits_2(self, sim120, tmp_path):
        emb = tmp_path / "emb"
        assert run("embed", "--input", sim120 / "series", "--method", "uase",
                   "--dim", 3, "--seed", 1, "--out", emb) == 0
        assert run("cluster", "--embedding", emb, "--grid", "150",
                   "--out", tmp_path / "clus") == 2

    def test_zero_restarts_names_the_option(self, emb120, tmp_path, capsys):
        assert run("cluster", "--embedding", emb120, "--grid", "1-2",
                   "--restarts", 0, "--out", tmp_path / "clus") == 2
        assert "restarts must be at least 1" in capsys.readouterr().err

    def test_benchmark_merge_and_conflation_structure(self, bench, tmp_path):
        # Angle-space clustering of the four-community benchmark. Pilot runs
        # over ten simulation seeds all show the same structure: communities
        # 1 and 2 land in near-identical cluster mixes at the second snapshot
        # (they have merged), community 3 sits in clusters of its own, and
        # community 4 shares clusters with the merged pair because its ray
        # points within a few hundredths of a radian of the merged ray, so
        # direction alone cannot separate them. The mixture grid tops out
        # because clouds near angle 0 wrap across the 0/2pi seam and need
        # extra components.
        sim, emb = bench
        out = tmp_path / "clus"
        assert run("cluster", "--embedding", emb, "--grid", "2-8",
                   "--restarts", 5, "--seed", 0, "--out", out) == 0
        man = read_manifest(out)
        g = man["details"]["selected_components"]
        assert g == 8

        truth = {}
        _, rows = read_rows(sim / "truth.csv")
        for node, t, comm in rows:
            truth[(node, t)] = int(comm)
        _, arows = read_rows(out / "assignments.csv")
        profiles = {c: np.zeros(g) for c in (1, 2, 3, 4)}
        for node, t, cluster, _conf in arows:
            if t == "2":
                profiles[truth[(node, t)]][int(cluster) - 1] += 1.0
        for c in profiles:
            profiles[c] /= profiles[c].sum()
        merged = (profiles[1] + profiles[2]) / 2.0

        def tv(a, b):
            return 0.5 * float(np.abs(a - b).sum())

        assert tv(profiles[1], profiles[2]) < 0.15
        assert tv(profiles[4], merged) < 0.15
        # community 3 occupies clusters where it forms the local majority
        counts = {c: np.zeros(g) for c in (1, 2, 3, 4)}
        for node, t, cluster, _conf in arows:
            if t == "2":
                counts[truth[(node, t)]][int(cluster) - 1] += 1.0
        total = sum(counts.values())
        own = np.where(counts[3] / np.maximum(total, 1.0) >= 0.5)[0]
        cover = counts[3][own].sum() / counts[3].sum()
        others = counts[1] + counts[2] + counts[4]
        leak = others[own].sum() / others.sum()
        assert cover > 0.9
        assert leak < 0.05


class TestParsers:
    def test_parse_grid(self):
        assert _parse_grid("2-8:2") == [2, 4, 6, 8]
        assert _parse_grid("1,3,5") == [1, 3, 5]
        assert _parse_grid("3-3") == [3]
        assert _parse_grid("2-4") == [2, 3, 4]
        for bad in ("5-2", "2-8:0", "0", "-3", "x", ""):
            with pytest.raises(DataError):
                _parse_grid(bad)

    def test_parse_pair(self):
        assert _parse_pair("4:1/4:2") == ((4, 1.0), (4, 2.0))
        for bad in ("4:1", "a:b/c:d", "1/2"):
            with pytest.raises(DataError):
                _parse_pair(bad)

    def test_parse_dims(self):
        assert _parse_dims("auto", 2) is None
        assert _parse_dims("4", 2) == 4
        assert _parse_dims("3,2", 2) == [3, 2]
        for bad in ("x", "0", "1,2,3"):
            with pytest.raises(DataError):
                _parse_dims(bad, 2)


class TestDigestVerify:
    def test_match_and_mismatch(self, tmp_path, capsys):
        f = tmp_path / "blob.bin"
        f.write_bytes(b"contact events")
        digest = sha(f)
        assert run("digest-verify", "--path", f) == 0
        assert digest in capsys.readouterr().out
        assert run("digest-verify", "--path", f,
                   "--expected", digest.upper()) == 0
        assert "digest matches" in capsys.readouterr().out
        assert run("digest-verify", "--path", f, "--expected", "0" * 64) == 2
        assert "MISMATCH" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run("digest-verify", "--path", tmp_path / "nope") == 2


@pytest.mark.parametrize("command", ["digest-verify", "stability", "embed", "simulate"])
def test_os_errors_exit_2(command, sim120, emb120, tmp_path, capsys):
    # a directory where a file is read, or a file where a directory is
    # written, is a data error, as a missing file is
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    words = {
        "digest-verify": ["--path", tmp_path],
        "stability": ["--embedding", emb120, "--truth", tmp_path, *TestStability.PAIRS,
                      "--out", tmp_path / "rep"],
        "embed": ["--input", sim120 / "series", "--method", "uase", "--dim", 3,
                  "--out", blocker],
        "simulate": ["--config", sim120.parent / "fourblock120.cfg", "--out", blocker],
    }[command]
    assert run(command, *words) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


class TestUsage:
    def test_usage_errors_exit_1(self, capsys):
        assert cli.main([]) == 1
        assert run("embed", "--frobnicate") == 1
        assert run("embed", "--input", "x", "--method", "bogus",
                   "--out", "y") == 1
        capsys.readouterr()

    def test_help_and_version_exit_0(self, capsys):
        assert run("--help") == 0
        assert "simulate" in capsys.readouterr().out
        assert run("--version") == 0
        assert "dynembed" in capsys.readouterr().out


def test_no_module_reads_the_environment():
    # every setting is an option or a constant; an environment variable would
    # be a knob no manifest records. The one reader is the manifest writer,
    # which records the BLAS thread variables and decides nothing by them.
    import ast

    src = Path(dynembed.__file__).resolve().parent
    readers = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        recorder = {id(node) for f in ast.walk(tree) if path.name == "cli.py"
                    and isinstance(f, ast.FunctionDef) and f.name == "_write_manifest"
                    for node in ast.walk(f)}
        for node in ast.walk(tree):
            if id(node) in recorder:
                continue
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                readers.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    a.name in ("environ", "getenv") for a in node.names):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_embedders_tell_series_from_lists_in_one_place():
    # every embedder sees its input through embedders.as_patterns, the only
    # isinstance(..., GraphSeries) test in the module
    import ast

    tree = ast.parse(Path(embedders.__file__).read_text(encoding="utf-8"))
    found = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                        and "GraphSeries" in ast.unparse(node.args[1])):
                    found.append(func.name)
    assert found == ["as_patterns"]


def test_only_interop_helpers_import_scipy():
    # the program runs on numpy alone; scipy is imported only by the helpers
    # that return scipy matrices, never at module level; the list is exact,
    # so a deleted helper cannot stay on it
    import ast

    src = Path(dynembed.__file__).resolve().parent
    helpers = {"SymmetricPattern.tocsr"}
    importers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(".".join(scope) or f"{path.name} module level")
            visit(child, scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [])
    assert set(importers) == helpers, importers


def test_cli_import_skips_scipy_stats():
    # scipy.stats takes most of a second to import and no subcommand needs it
    src = str(Path(dynembed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, dynembed.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_scoring_commands_load_no_scipy(sim120, emb120, tmp_path):
    # every command runs on numpy alone: --version, simulate, embed by each
    # method and with --dim auto, stability and cluster; so the manifest
    # names no scipy version. The probe blocks scipy before dynembed is
    # imported, so that any scipy import raises, as without scipy installed
    src = str(Path(dynembed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    sim, rep, clus = tmp_path / "sim", tmp_path / "rep", tmp_path / "clus"
    embeds = {method: tmp_path / method
              for method in ("uase", "omnibus", "independent", "separate", "auto")}
    calls = [
        ["embed", "--input", str(sim120 / "series"), "--seed", "1", "--out", str(out),
         "--method", method if method != "auto" else "uase",
         "--dim", "3" if method != "auto" else "auto"]
        for method, out in embeds.items()
    ] + [
        ["--version"],
        ["simulate", "--config", str(sim120.parent / "fourblock120.cfg"), "--seed", "1",
         "--out", str(sim)],
        ["stability", "--embedding", str(emb120), "--truth",
         str(sim120 / "truth.csv"), *TestStability.PAIRS, "--threshold", "10",
         "--out", str(rep)],
        ["cluster", "--embedding", str(emb120), "--grid", "1-2",
         "--restarts", "1", "--out", str(clus)],
    ]
    probe = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from dynembed import cli\n"
        f"codes = [cli.main(words) for words in {calls!r}]\n"
        "loaded = sorted(k for k, m in sys.modules.items() if k.startswith('scipy') and m is not None)\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    codes, loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(calls)
    assert loaded == []
    for d in (sim, rep, clus, *embeds.values()):
        assert "scipy" not in read_manifest(d)["versions"]
