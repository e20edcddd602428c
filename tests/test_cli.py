import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynembed
from dynembed import cli, embedders
from dynembed.cli import DataError, _parse_dims, _parse_grid, _parse_pair
from dynembed.cluster import parameter_count
from dynembed.embedders import uase, uase_from_svd
from dynembed.linalg import truncated_svd
from dynembed.netseries import GraphSeries

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
                      "series/labels.txt"):
            assert sha(outs[0] / fname) == sha(outs[1] / fname)
        assert (outs[0] / "series" / "snapshots.npz").exists()
        man = read_manifest(outs[0])
        assert man["seed"] == 5
        assert man["details"]["n_nodes"] == 120
        assert man["details"]["n_snapshots"] == 2
        assert str(cfg) in man["input_digests"]
        assert "dynembed" in man["versions"]
        assert man["timings_seconds"]["total"] > 0

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

    def test_truth_matches_config_labels(self, sim120):
        header, rows = read_rows(sim120 / "truth.csv")
        assert len(rows) == 240
        at_t1 = [r for r in rows if r[1] == "1"]
        # equal contiguous blocks of 30 nodes per community
        assert [r[2] for r in at_t1[:30]] == ["1"] * 30
        assert sorted({r[2] for r in rows}) == ["1", "2", "3", "4"]

    def test_unknown_config_name(self, tmp_path):
        assert run("simulate", "--config", "no_such_model",
                   "--out", tmp_path / "x") == 2


class TestEmbed:
    def test_uase_outputs(self, emb120):
        header, rows = read_rows(emb120 / "embedding.csv")
        assert header == ["node_label", "time_label", "y_1", "y_2", "y_3", "y_4"]
        assert len(rows) == 240
        assert (emb120 / "left.csv").exists()
        _, scree = read_rows(emb120 / "scree.csv")
        assert len(scree) == 50
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
        assert any(k.endswith("snapshots.npz") for k in man["input_digests"])

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
        assert calls == [50]

    def test_uase_csv_equals_library_rows(self, sim120, emb120):
        # the CLI slices its rank-50 scree decomposition to d triplets: bit
        # for bit what the library gives for that decomposition, and equal to
        # a separate rank-d run up to round-off
        series = GraphSeries.load(sim120 / "series")
        lib = uase_from_svd(truncated_svd(series.unfold(), 50, seed=1), 4, 2)
        _, rows = read_rows(emb120 / "embedding.csv")
        got = np.array([[float(x) for x in r[2:]] for r in rows])
        left = np.loadtxt(emb120 / "left.csv", delimiter=",")
        np.testing.assert_array_equal(got, np.vstack(lib.points))
        np.testing.assert_array_equal(left, lib.left)
        direct = uase(series, 4, seed=1)
        # entries near zero get an absolute floor at round-off of the largest
        atol = 1e-13 * np.abs(got).max()
        np.testing.assert_allclose(got, np.vstack(direct.points), rtol=1e-10, atol=atol)
        np.testing.assert_allclose(left, direct.left, rtol=1e-10, atol=atol)

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

    def test_missing_truth_entries(self, emb120, tmp_path):
        truth = tmp_path / "truth.csv"
        truth.write_text("node_label,time_label,community\n1,1,1\n")
        assert run("stability", "--embedding", emb120, "--truth", truth,
                   *self.PAIRS, "--out", tmp_path / "rep") == 2

    def test_bad_pairs(self, sim120, emb120, tmp_path):
        truth = sim120 / "truth.csv"
        assert run("stability", "--embedding", emb120, "--truth", truth,
                   "--pair", "1:5/2:1", "--out", tmp_path / "a") == 2
        assert run("stability", "--embedding", emb120, "--truth", truth,
                   "--pair", "nonsense", "--out", tmp_path / "b") == 2

    def test_rejects_non_embedding_csv(self, sim120, tmp_path):
        assert run("stability", "--embedding", sim120 / "truth.csv", "--truth",
                   sim120 / "truth.csv", *self.PAIRS,
                   "--out", tmp_path / "rep") == 2


class TestCluster:
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
        g = man["details"]["selected_components"]
        # the selected fit explains itself: its BIC follows from its loglik
        details = man["details"]
        assert isinstance(details["converged"], bool)
        assert details["regularized"] is False
        assert isinstance(details["n_iter"], int) and details["n_iter"] >= 1
        penalty = parameter_count(g, 2) * np.log(240)
        assert -2.0 * details["loglik"] + penalty == pytest.approx(
            min(float(r[1]) for r in bic_rows), rel=1e-12)
        header, props = read_rows(out / "proportions.csv")
        assert header == ["cluster", "1", "2"]
        assert len(props) == g
        for col in (1, 2):
            assert np.isclose(sum(float(r[col]) for r in props), 1.0)

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


def test_cli_import_skips_scipy_stats():
    # scipy.stats takes most of a second to import and no subcommand needs it
    src = str(Path(dynembed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, dynembed.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_scoring_commands_load_no_scipy(sim120, emb120, tmp_path):
    # --version, stability and cluster run on numpy alone; the manifest still
    # names the installed scipy
    import scipy

    src = str(Path(dynembed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    rep, clus = tmp_path / "rep", tmp_path / "clus"
    calls = [
        ["--version"],
        ["stability", "--embedding", str(emb120), "--truth",
         str(sim120 / "truth.csv"), *TestStability.PAIRS, "--threshold", "10",
         "--out", str(rep)],
        ["cluster", "--embedding", str(emb120), "--grid", "1-2",
         "--restarts", "1", "--out", str(clus)],
    ]
    probe = (
        "import json, sys\n"
        "from dynembed import cli\n"
        f"codes = [cli.main(words) for words in {calls!r}]\n"
        "loaded = sorted(k for k in sys.modules if k.startswith('scipy'))\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    codes, loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0]
    assert loaded == []
    for d in (rep, clus):
        assert read_manifest(d)["versions"]["scipy"] == scipy.__version__
