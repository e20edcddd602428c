"""Command line front end for reproducible embedding experiments.

Subcommands cover the full pipeline: ``simulate`` draws a snapshot series
from a block model config, ``embed`` turns a series (saved or raw edge list)
into per-snapshot point sets, ``stability`` scores group pairs of an
embedding against ground-truth labels, ``cluster`` fits a Gaussian mixture
to pooled spherical coordinates, and ``digest-verify`` checks a downloaded
file against an expected checksum. Every command writes its outputs plus a
``manifest.json`` recording the command, seed, input digests and timings
into one output directory; reruns with identical inputs reproduce the CSVs
byte for byte.

Exit codes: 0 success, 1 usage error, 2 unreadable or inconsistent data,
3 a requested stability threshold failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import assign, fit_gmm_bic, pool_spherical
from .embedders import (
    Embedding,
    independent_ase,
    omnibus_embed,
    select_dimension,
    separate_embed,
    uase_from_svd,
)
from .linalg import MemoryBudgetError, save_matrix_csv, truncated_svd
from .models import bundled_config_path, load_dsbm_config, sample_dsbm
from .netseries import GraphSeries, ingest_edge_list
from .stability import DEFAULT_GAP_THRESHOLD, stability_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_THRESHOLD = 3

SCREE_LENGTH = 50


class DataError(Exception):
    """Input exists but cannot be used as requested."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; 2 is reserved for data errors
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _scipy_version() -> str:
    # stability and cluster never import scipy; its installed metadata is
    # cheaper to read than the package is to import
    if "scipy" in sys.modules:
        return sys.modules["scipy"].__version__
    from importlib.metadata import version
    return version("scipy")


def _write_manifest(out_dir, args_list, seed, *, inputs=(), outputs=(),
                    timings=None, details=None):
    manifest = {
        "command": list(args_list),
        "seed": seed,
        "versions": {
            "dynembed": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": _scipy_version(),
        },
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "outputs": sorted(str(o) for o in outputs),
        "timings_seconds": timings or {},
        "details": details or {},
    }
    path = Path(out_dir) / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _resolve_config(name_or_path) -> Path:
    p = Path(name_or_path)
    if p.exists():
        return p
    try:
        return bundled_config_path(str(name_or_path))
    except FileNotFoundError:
        raise DataError(
            f"config {name_or_path!r} is neither a file nor a bundled name"
        ) from None


def _write_embedding_csv(path, emb: Embedding, node_labels, times) -> int:
    """Single CSV with one row per (node, snapshot); short point sets are
    zero padded to the widest dimension. Returns the row count."""
    d = max(emb.dims)
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_label,time_label," + ",".join(f"y_{j + 1}" for j in range(d)) + "\n")
        for t, pts in enumerate(emb.points):
            tl = _fmt(float(times[t]))
            for i in range(pts.shape[0]):
                coords = [_fmt(v) for v in pts[i]]
                coords += ["0"] * (d - pts.shape[1])
                fh.write(f"{node_labels[i]},{tl}," + ",".join(coords) + "\n")
                rows += 1
    return rows


def _read_embedding_csv(path):
    """Rebuild (Embedding, per-time node labels, time labels) from the CSV."""
    times: list = []
    labels: dict = {}
    coords: dict = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        d = len(header) - 2
        expected = ["node_label", "time_label"] + [f"y_{j + 1}" for j in range(d)]
        if d < 1 or header != expected:
            raise DataError(f"{path}: not an embedding CSV")
        for raw in fh:
            parts = raw.strip().split(",")
            if len(parts) != d + 2:
                raise DataError(f"{path}: ragged row {raw.strip()!r}")
            t = float(parts[1])
            if t not in coords:
                times.append(t)
                labels[t] = []
                coords[t] = []
            labels[t].append(parts[0])
            coords[t].append([float(x) for x in parts[2:]])
    if not times:
        raise DataError(f"{path}: no embedding rows")
    points = [np.array(coords[t]) for t in times]
    emb = Embedding(points=points, method="file")
    return emb, [labels[t] for t in times], times


def _locate_embedding_csv(path) -> Path:
    p = Path(path)
    if p.is_dir():
        p = p / "embedding.csv"
    if not p.exists():
        raise DataError(f"no embedding CSV at {p}")
    return p


def _load_series(input_path, args) -> GraphSeries:
    p = Path(input_path)
    if p.is_dir():
        if not (p / "snapshots.npz").exists():
            raise DataError(f"{p} holds no snapshots.npz")
        return GraphSeries.load(p)
    if p.suffix == ".npz":
        return GraphSeries.load(p.parent)
    if not p.exists():
        raise DataError(f"no such input {p}")
    if args.window_seconds is None:
        raise DataError(
            "raw edge list input needs --window-seconds to define snapshots"
        )
    return ingest_edge_list(
        p,
        window_seconds=args.window_seconds,
        start=args.start,
        end=args.end,
        column_order=args.column_order,
        label_order=args.label_order,
        daily_start=args.daily_start,
        daily_end=args.daily_end,
    )


def _parse_dims(text, n_snapshots):
    if text == "auto":
        return None
    try:
        dims = [int(x) for x in text.split(",")]
    except ValueError:
        raise DataError(f"bad --dim value {text!r}") from None
    if any(d <= 0 for d in dims):
        raise DataError("--dim entries must be positive")
    if len(dims) == 1:
        return dims[0]
    if len(dims) != n_snapshots:
        raise DataError(
            f"--dim lists {len(dims)} dimensions for {n_snapshots} snapshots"
        )
    return dims


def _parse_pair(text):
    """'G:T/G2:T2' with group labels and time labels as written in the
    truth and embedding files."""
    try:
        left, right = text.split("/")
        out = []
        for half in (left, right):
            g, t = half.split(":")
            out.append((int(g), float(t)))
        return out[0], out[1]
    except ValueError:
        raise DataError(
            f"bad --pair {text!r}; expected 'group:time/group:time'"
        ) from None


def _parse_grid(text):
    values = []
    for part in text.split(","):
        part = part.strip()
        try:
            if "-" in part[1:]:
                body, _, step_text = part.partition(":")
                lo_text, hi_text = body.split("-", 1)
                lo, hi = int(lo_text), int(hi_text)
                step = int(step_text) if step_text else 1
                if step <= 0 or hi < lo:
                    raise DataError(f"bad --grid range {part!r}")
                values.extend(range(lo, hi + 1, step))
            else:
                values.append(int(part))
        except ValueError:
            raise DataError(f"bad --grid entry {part!r}") from None
    if not values:
        raise DataError("empty --grid")
    if min(values) < 1:
        raise DataError("--grid component counts must be at least 1")
    return values


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    config = _resolve_config(args.config)
    spec = load_dsbm_config(config)
    series = sample_dsbm(spec, seed=args.seed)
    # human-facing labels and times start at 1
    series = GraphSeries(
        snapshots=series.snapshots,
        node_labels=[str(i + 1) for i in range(spec.n_nodes)],
        times=list(range(1, spec.n_snapshots + 1)),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series.save(out / "series")
    outputs = [out / "series" / "snapshots.npz", out / "series" / "labels.txt"]
    for t, a in enumerate(series.snapshots):
        path = out / f"edges_{t + 1}.csv"
        coo = a.tocoo()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("u,v\n")
            for i, j in zip(coo.row, coo.col):
                if i < j:
                    fh.write(f"{series.node_labels[i]},{series.node_labels[j]}\n")
        outputs.append(path)
    truth = out / "truth.csv"
    with open(truth, "w", encoding="utf-8") as fh:
        fh.write("node_label,time_label,community\n")
        for t in range(spec.n_snapshots):
            for i in range(spec.n_nodes):
                fh.write(f"{i + 1},{t + 1},{spec.memberships[t][i] + 1}\n")
    outputs.append(truth)
    _write_manifest(
        out, args.argv, args.seed,
        inputs=[config],
        outputs=[p.relative_to(out) for p in outputs],
        timings={"total": time.perf_counter() - t0},
        details={
            "n_nodes": spec.n_nodes,
            "n_snapshots": spec.n_snapshots,
            "densities": [float(x) for x in series.densities()],
        },
    )
    print(f"wrote {spec.n_snapshots} snapshots of {spec.n_nodes} nodes to {out}")
    return EXIT_OK


def cmd_embed(args) -> int:
    t0 = time.perf_counter()
    series = _load_series(args.input, args)
    load_time = time.perf_counter() - t0
    n = series.n_nodes

    t1 = time.perf_counter()
    if args.method in ("uase", "omnibus") and "," in args.dim:
        raise DataError(f"--method {args.method} takes one dimension, not a list")
    dims = _parse_dims(args.dim, series.n_snapshots)
    if isinstance(dims, int) and dims > n:
        raise DataError(f"dimension {dims} out of range for {n} nodes")
    # one decomposition of the unfolding serves both the scree and, for uase,
    # the embedding (its top-d triplets)
    scree_len = min(SCREE_LENGTH, n, series.n_snapshots * n)
    rank = scree_len
    if args.method == "uase" and dims is not None:
        rank = max(scree_len, dims)
    unfolded = series.unfold()
    svd = truncated_svd(unfolded, rank, seed=args.seed)
    scree = svd.s[:scree_len]
    # ||A v_j - s_j u_j|| / s_1 for each scree triplet
    residuals = np.linalg.norm(
        unfolded @ svd.v[:, :scree_len] - svd.u[:, :scree_len] * scree, axis=0)
    if scree[0] > 0:
        residuals /= scree[0]
    if dims is None:
        dims, _ = select_dimension(scree)

    if args.method == "uase":
        emb = uase_from_svd(svd, dims, series.n_snapshots)
    elif args.method == "omnibus":
        emb = omnibus_embed(series, dims, seed=args.seed)
    elif args.method == "independent":
        emb = independent_ase(series, dims, seed=args.seed)
    else:
        emb = separate_embed(
            series, dims, seed=args.seed,
            scheme=args.scheme, forgetting=args.forgetting,
            window=args.window,
        )
    embed_time = time.perf_counter() - t1

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = _write_embedding_csv(out / "embedding.csv", emb, series.node_labels, series.times)
    with open(out / "scree.csv", "w", encoding="utf-8") as fh:
        fh.write("rank,singular_value\n")
        for j, s in enumerate(scree):
            fh.write(f"{j + 1},{_fmt(s)}\n")
    outputs = [out / "embedding.csv", out / "scree.csv"]
    if emb.left is not None:
        save_matrix_csv(out / "left.csv", emb.left)
        outputs.append(out / "left.csv")
    inputs = []
    p_in = Path(args.input)
    if p_in.is_dir():
        inputs = [p_in / "snapshots.npz", p_in / "labels.txt"]
    elif p_in.exists():
        inputs = [p_in]
    details = {
        "method": args.method,
        "dimensions": emb.dims,
        "embedding_rows": rows,
        "singular_values": [float(s) for s in scree],
        "singular_value_residuals": [float(r) for r in residuals],
        "auto_dimension": args.dim == "auto",
    }
    if series.stats is not None:
        details["ingest"] = dataclasses.asdict(series.stats)
    if emb.signatures is not None:
        details["eigenvalue_signatures"] = [list(s) for s in emb.signatures]
    _write_manifest(
        out, args.argv, args.seed,
        inputs=inputs,
        outputs=[p.relative_to(out) for p in outputs],
        timings={"load": load_time, "embed": embed_time,
                 "total": time.perf_counter() - t0},
        details=details,
    )
    print(
        f"{args.method} embedding: {rows} rows, dimensions {emb.dims}, "
        f"written to {out}"
    )
    return EXIT_OK


def _read_truth(path):
    table = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != ["node_label", "time_label", "community"]:
            raise DataError(f"{path}: not a truth CSV")
        for raw in fh:
            node, t, comm = raw.strip().split(",")
            table[(node, float(t))] = int(comm)
    if not table:
        raise DataError(f"{path}: empty truth file")
    return table


def cmd_stability(args) -> int:
    t0 = time.perf_counter()
    emb_path = _locate_embedding_csv(args.embedding)
    emb, labels_per_time, times = _read_embedding_csv(emb_path)
    truth = _read_truth(args.truth)

    memberships = []
    for t, labels in zip(times, labels_per_time):
        try:
            memberships.append([truth[(lab, t)] for lab in labels])
        except KeyError as missing:
            raise DataError(
                f"truth file lacks node/time {missing.args[0]}"
            ) from None
    memberships = np.asarray(memberships)

    pairs = []
    for text in args.pair:
        (ga, ta), (gb, tb) = _parse_pair(text)
        for tv in (ta, tb):
            if tv not in times:
                raise DataError(
                    f"pair time {tv:g} not among embedding times "
                    f"{[f'{x:g}' for x in times]}"
                )
        pairs.append(((ga, times.index(ta)), (gb, times.index(tb))))

    report = stability_report(emb, memberships, pairs, threshold=args.threshold)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.csv", "w", encoding="utf-8") as fh:
        fh.write(
            "group_a,time_a,group_b,time_b,centroid_gap,separation,"
            "gap_ratio,cov_gap,scale,passed,cov_skipped\n"
        )
        for p in report.pairs:
            fh.write(
                f"{p.group_a[0]},{_fmt(times[p.group_a[1]])},"
                f"{p.group_b[0]},{_fmt(times[p.group_b[1]])},"
                f"{_fmt(p.centroid_gap)},{_fmt(p.separation)},"
                f"{_fmt(p.gap_ratio)},{_fmt(p.cov_gap)},{_fmt(p.scale)},"
                f"{int(p.passed)},{int(p.cov_skipped)}\n"
            )
    lines = [f"threshold {args.threshold:g}"]
    for p in report.pairs:
        verdict = "pass" if p.passed else "FAIL"
        lines.append(
            f"{p.group_a[0]}:{times[p.group_a[1]]:g} vs "
            f"{p.group_b[0]}:{times[p.group_b[1]]:g}: "
            f"gap_ratio={p.gap_ratio:.4f} cov_gap={p.cov_gap:.4f} [{verdict}]"
        )
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(
        out, args.argv, None,
        inputs=[emb_path, Path(args.truth)],
        outputs=["report.csv", "report.txt"],
        timings={"total": time.perf_counter() - t0},
        details={
            "threshold": args.threshold,
            "passed": report.passed,
            "gap_ratios": [float(p.gap_ratio) for p in report.pairs],
        },
    )
    for line in lines:
        print(line)
    return EXIT_OK if report.passed else EXIT_THRESHOLD


def cmd_cluster(args) -> int:
    t0 = time.perf_counter()
    emb_path = _locate_embedding_csv(args.embedding)
    emb, labels_per_time, times = _read_embedding_csv(emb_path)
    theta, index = pool_spherical(emb)
    grid = _parse_grid(args.grid)
    try:
        best, table = fit_gmm_bic(
            theta, grid, restarts=args.restarts, seed=args.seed
        )
    except ValueError as exc:
        raise DataError(str(exc)) from None
    labels, resp = assign(best, theta)
    confidence = resp[np.arange(resp.shape[0]), labels]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "assignments.csv", "w", encoding="utf-8") as fh:
        fh.write("node_label,time_label,cluster,max_posterior\n")
        for m in range(theta.shape[0]):
            node, t = index[m]
            fh.write(
                f"{labels_per_time[t][node]},{_fmt(times[t])},"
                f"{labels[m] + 1},{_fmt(confidence[m])}\n"
            )
    with open(out / "bic.csv", "w", encoding="utf-8") as fh:
        fh.write("components,bic\n")
        for g, bic in table:
            fh.write(f"{g},{_fmt(bic)}\n")
    # share of each snapshot's active nodes landing in each cluster
    with open(out / "proportions.csv", "w", encoding="utf-8") as fh:
        fh.write("cluster," + ",".join(_fmt(t) for t in times) + "\n")
        for g in range(best.n_components):
            shares = []
            for t in range(len(times)):
                at_t = index[:, 1] == t
                total = int(at_t.sum())
                hit = int(np.sum(labels[at_t] == g))
                shares.append(hit / total if total else 0.0)
            fh.write(f"{g + 1}," + ",".join(_fmt(s) for s in shares) + "\n")
    _write_manifest(
        out, args.argv, args.seed,
        inputs=[emb_path],
        outputs=["assignments.csv", "bic.csv", "proportions.csv"],
        timings={"total": time.perf_counter() - t0},
        details={
            "selected_components": best.n_components,
            "bic_table": [[g, float(b)] for g, b in table],
            "converged": best.converged,
            "loglik": best.loglik,
            "n_iter": best.n_iter,
            "regularized": best.regularized,
            "pooled_rows": int(theta.shape[0]),
            "grid": grid,
            "restarts": args.restarts,
        },
    )
    print(
        f"selected {best.n_components} components over grid {grid}; "
        f"{theta.shape[0]} pooled rows; results in {out}"
    )
    return EXIT_OK


def cmd_digest_verify(args) -> int:
    p = Path(args.path)
    if not p.exists():
        raise DataError(f"no such file {p}")
    digest = _sha256(p)
    print(f"sha256  {digest}  {p}")
    if args.expected is not None:
        if digest.lower() != args.expected.lower():
            print(
                f"MISMATCH: expected {args.expected.lower()}", file=sys.stderr
            )
            return EXIT_DATA
        print("digest matches")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dynembed",
        description="Stable spectral embedding of dynamic networks.",
    )
    parser.add_argument(
        "--version", action="version", version=f"dynembed {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="draw a snapshot series from a block model config")
    p.add_argument("--config", required=True,
                   help="config file path or bundled config name (e.g. fourblock)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("embed", help="embed a saved series or raw edge list")
    p.add_argument("--input", required=True,
                   help="series directory, snapshots.npz, or timestamped edge list")
    p.add_argument("--method", required=True,
                   choices=["uase", "omnibus", "independent", "separate"])
    p.add_argument("--dim", default="auto",
                   help="'auto', one integer, or comma list with one entry per snapshot")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--window-seconds", type=float, default=None,
                   help="snapshot width for raw edge list input")
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--end", type=float, default=None)
    p.add_argument("--column-order", default="time_u_v",
                   choices=["time_u_v", "u_v_time"])
    p.add_argument("--label-order", default="first_seen",
                   choices=["first_seen", "sorted"])
    p.add_argument("--daily-start", type=float, default=None,
                   help="seconds of day; with --daily-end, keeps only in-band events")
    p.add_argument("--daily-end", type=float, default=None)
    p.add_argument("--scheme", default="exponential",
                   choices=["constant", "exponential", "window"],
                   help="history smoothing for method=separate")
    p.add_argument("--forgetting", type=float, default=0.5)
    p.add_argument("--window", type=int, default=3)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("stability", help="score group pairs of an embedding")
    p.add_argument("--embedding", required=True,
                   help="embedding.csv or the directory holding it")
    p.add_argument("--truth", required=True,
                   help="truth CSV (node_label,time_label,community)")
    p.add_argument("--pair", action="append", required=True,
                   help="'group:time/group:time', repeatable; labels as written "
                        "in the truth and embedding files")
    p.add_argument("--threshold", type=float, default=DEFAULT_GAP_THRESHOLD)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("cluster", help="mixture-model clustering of pooled angles")
    p.add_argument("--embedding", required=True)
    p.add_argument("--grid", required=True,
                   help="component counts: 'a-b', 'a-b:step' or comma list")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("digest-verify", help="sha256-check a downloaded file")
    p.add_argument("--path", required=True)
    p.add_argument("--expected", default=None,
                   help="expected hex digest; omit to just print the digest")
    p.set_defaults(func=cmd_digest_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    words = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(words)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv = words
    try:
        return args.func(args)
    except (DataError, ValueError, FileNotFoundError, MemoryBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
