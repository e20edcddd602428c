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
import itertools
import json
import math
import os
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
from .linalg import truncated_svd
from .models import bundled_config_path, load_dsbm_config, sample_dsbm
from .netseries import GraphSeries, ingest_edge_list
from .stability import DEFAULT_GAP_THRESHOLD, stability_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_THRESHOLD = 3

SCREE_LENGTH = 50
# rows per _write_csv join and per _read_csv parse; larger chunks raised the
# embed stage's peak memory
CSV_CHUNK_ROWS = 1 << 10


class DataError(Exception):
    """Input exists but cannot be used as requested."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; 2 is reserved for data errors
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _peak_rss_mib() -> float | None:
    """Peak resident memory of this process so far, in MiB.

    Reads ``VmHWM`` from /proc/self/status where it exists (Linux), since
    ``ru_maxrss`` there carries the peak of the image the process was exec'd
    from; elsewhere ``ru_maxrss``, or None without a ``resource`` module.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # reported in kB
    except OSError:
        pass
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _blas() -> str:
    """The BLAS numpy was built with, as "name version", or "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return "unknown"


def _write_manifest(out_dir, args_list, seed, *, inputs=(), outputs=(),
                    timings=None, details=None):
    manifest = {
        "command": list(args_list),
        "seed": seed,
        "versions": {
            "dynembed": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
        },
        "blas_threads": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "outputs": sorted(str(o) for o in outputs),
        "timings_seconds": timings or {},
        "peak_rss_mib": _peak_rss_mib(),
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


def _write_csv(path, header, columns) -> int:
    """Write equal-length columns as CSV rows; returns the row count.

    A column is an array, a list or a tuple of cells, or a ``(labels,
    codes)`` pair with ``codes`` an integer array, which writes
    ``labels[codes[r]]`` in row r. A column whose first cell is a float
    (Python or numpy) is written at 17 significant digits, integers and
    labels as text. ``header`` lists the column names, or is None for no
    header line. Each label gets its separator once per file; each stretch
    of other columns is formatted row by row through one template with the
    separators folded in. Rows are gathered CSV_CHUNK_ROWS at a time into
    one array of cells that is written with a single join, so no whole
    column of strings is ever held.
    """
    columns = list(columns)
    lengths = {len(c[1]) if _is_labelled(c) else len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    rows = lengths.pop() if lengths else 0
    # (suffixed labels, codes) of a labelled column, or (template, columns)
    # of a stretch of other columns
    runs = []
    for k, column in enumerate(columns):
        end = "," if k + 1 < len(columns) else "\n"
        if _is_labelled(column):
            labels, codes = column
            runs.append((np.array([f"{label}{end}" for label in labels], dtype=object), codes))
            continue
        first = column[:1].tolist() if isinstance(column, np.ndarray) else column[:1]
        cell = ("%.17g" if first and isinstance(first[0], float) else "%s") + end
        if runs and isinstance(runs[-1][0], str):
            runs[-1] = (runs[-1][0] + cell, runs[-1][1] + [column])
        else:
            runs.append((cell, [column]))
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for lo in range(0, rows, CSV_CHUNK_ROWS):
            fh.write(_csv_text(runs, lo, min(lo + CSV_CHUNK_ROWS, rows)))
    return rows


def _csv_text(runs, lo, hi) -> str:
    """Rows lo..hi-1 of ``_write_csv``'s runs as one string; the cells are
    freed on return, before the string is written."""
    cells = np.empty((hi - lo, len(runs)), dtype=object)
    for k, (form, data) in enumerate(runs):
        if isinstance(form, str):
            parts = [c[lo:hi].tolist() if isinstance(c, np.ndarray) else c[lo:hi] for c in data]
            cells[:, k] = list(map(form.__mod__, zip(*parts)))
        else:
            cells[:, k] = form[data[lo:hi]]
    return "".join(cells.ravel().tolist())


def _is_labelled(column) -> bool:
    """Whether a ``_write_csv`` column is a (labels, codes) pair."""
    return (isinstance(column, tuple) and len(column) == 2
            and isinstance(column[1], np.ndarray))


def _finite_float(cell: str) -> float:
    """A CSV cell as a finite float; ValueError for nan, inf or a non-number.
    ``_read_csv`` parses columns without it and calls it only to name the
    first bad cell of a chunk that failed."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(cell)
    return value


def _read_csv(path, kind, columns, repeat=None):
    """Read a CSV in the format ``_write_csv`` writes; returns one column
    per name, a float array for ``_finite_float`` and a list of parsed
    cells for any other parser.

    ``columns`` lists the leading (name, parser) pairs; ``repeat``, a
    (stem, parser) pair, admits one or more further columns named stem1,
    stem2, ... CSV_CHUNK_ROWS lines at a time, each line's commas are
    counted and each column is converted whole, a float column by one
    ``np.fromiter`` and one ``np.isfinite``. Only a chunk that fails is
    parsed again row by row, so the DataError names the file and the 1-based
    line of the first wrong header, ragged row or cell that does not parse in
    file order; it is raised also when the file has no rows.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        names = [name for name, _ in columns]
        parsers = [parse for _, parse in columns]
        if repeat is not None:
            stem, parse = repeat
            extra = max(len(header) - len(columns), 1)
            names += [f"{stem}{j + 1}" for j in range(extra)]
            parsers += [parse] * extra
        if header != names:
            raise DataError(f"{path}: line 1: not a {kind} CSV")
        parts = [[] for _ in names]
        line_number = 1
        while chunk := list(map(str.strip, itertools.islice(fh, CSV_CHUNK_ROWS))):
            for part, column in zip(parts, _csv_columns(path, names, parsers, chunk,
                                                        line_number + 1)):
                part.append(column)
            line_number += len(chunk)
    if line_number == 1:
        raise DataError(f"{path}: no {kind} rows")
    return [np.concatenate(part) if parse is _finite_float else
            list(itertools.chain.from_iterable(part))
            for parse, part in zip(parsers, parts)]


def _csv_columns(path, names, parsers, lines, first_line_number) -> list:
    """The cells of ``lines`` parsed column by column, a float array for
    ``_finite_float``; when that fails, the lines are checked row by row so
    that the DataError names the first ragged row or bad cell."""
    width = len(names)
    try:
        if set(map(str.count, lines, itertools.repeat(","))) != {width - 1}:
            raise ValueError("ragged")
        cells = ",".join(lines).split(",")
        columns = []
        for k, parse in enumerate(parsers):
            column = cells[k::width]
            if parse is _finite_float:
                column = np.fromiter(map(float, column), float, len(column))
                if not np.isfinite(column).all():
                    raise ValueError("not finite")
            else:
                column = list(map(parse, column))
            columns.append(column)
        return columns
    except ValueError:
        for line_number, line in enumerate(lines, start=first_line_number):
            cells = line.split(",")
            if len(cells) != width:
                raise DataError(
                    f"{path}: line {line_number}: ragged row, {len(cells)} "
                    f"cells for {width} columns"
                ) from None
            for name, parse, cell in zip(names, parsers, cells):
                try:
                    parse(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: line {line_number}: bad {name} {cell!r}"
                    ) from None
        raise


def _write_embedding_csv(path, emb: Embedding, node_labels, times) -> int:
    """Single CSV with one row per (node, snapshot); short point sets are
    zero padded to the widest dimension. Returns the row count."""
    d = max(emb.dims)
    n = len(node_labels)
    snapshots = len(emb.points)
    coords = np.vstack([np.pad(p, ((0, 0), (0, d - p.shape[1]))) for p in emb.points])
    time_labels = [f"{t:.17g}" for t in np.asarray(times, dtype=float).tolist()]
    return _write_csv(
        path, ["node_label", "time_label"] + [f"y_{j + 1}" for j in range(d)],
        [(node_labels, np.tile(np.arange(n), snapshots)),
         (time_labels, np.repeat(np.arange(snapshots), n)), *coords.T],
    )


def _read_embedding_csv(path):
    """Rebuild (Embedding, per-time node labels, time labels) from the CSV;
    times keep the order in which the file first names them."""
    labels, times, *coords = _read_csv(
        path, "embedding", [("node_label", str), ("time_label", _finite_float)],
        repeat=("y_", _finite_float))
    _, first, inverse = np.unique(times, return_index=True, return_inverse=True)
    order = np.argsort(first)
    coords = np.column_stack(coords)
    labels = np.array(labels, dtype=object)
    rows = [np.flatnonzero(inverse == k) for k in order]
    emb = Embedding(points=[coords[r] for r in rows], method="file")
    return emb, [labels[r].tolist() for r in rows], times[first[order]].tolist()


def _locate_embedding_csv(path) -> Path:
    p = Path(path)
    if p.is_dir():
        p = p / "embedding.csv"
    if not p.exists():
        raise DataError(f"no embedding CSV at {p}")
    return p


def _load_series(input_path, args) -> tuple[GraphSeries, list[Path]]:
    """The series ``--input`` names, and the files read to build it."""
    p = Path(input_path)
    if p.is_dir():
        p = p / "snapshots.npz"
    if not p.exists():
        raise DataError(f"no such input {p}")
    band = {name: getattr(args, name) for name in
            ("window_seconds", "start", "end", "daily_start", "daily_end")}
    if p.suffix == ".npz":
        if p.name != "snapshots.npz":
            raise DataError(f"{p}: a saved series is read from a snapshots.npz "
                            "and the labels.txt beside it")
        given = [f"--{name.replace('_', '-')}" for name, value in band.items()
                 if value is not None]
        if given:
            raise DataError(f"{p}: {', '.join(given)} apply to a raw edge list, "
                            "not to a saved series")
        return GraphSeries.load(p.parent), [p, p.parent / "labels.txt"]
    if args.window_seconds is None:
        raise DataError("raw edge list input needs --window-seconds to define snapshots")
    return ingest_edge_list(p, column_order=args.column_order,
                            label_order=args.label_order, **band), [p]


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
    series.node_labels = [str(i + 1) for i in range(spec.n_nodes)]
    series.times = list(range(1, spec.n_snapshots + 1))
    t1 = time.perf_counter()
    out = Path(args.out)
    series.save(out / "series")
    outputs = [out / "series" / "snapshots.npz", out / "series" / "labels.txt"]
    t2 = time.perf_counter()
    for t, pattern in enumerate(series.patterns):
        path = out / f"edges_{t + 1}.csv"
        _write_csv(path, ["u", "v"], [(series.node_labels, ends) for ends in pattern.upper()])
        outputs.append(path)
    t3 = time.perf_counter()
    truth = out / "truth.csv"
    _write_csv(truth, ["node_label", "time_label", "community"], [
        (series.node_labels, np.tile(np.arange(spec.n_nodes), spec.n_snapshots)),
        (series.times, np.repeat(np.arange(spec.n_snapshots), spec.n_nodes)),
        (range(1, spec.n_communities + 1), np.asarray(spec.memberships).ravel()),
    ])
    outputs.append(truth)
    _write_manifest(
        out, args.argv, args.seed,
        inputs=[config],
        outputs=[p.relative_to(out) for p in outputs],
        timings={"sample": t1 - t0, "save": t2 - t1, "edges": t3 - t2,
                 "truth": time.perf_counter() - t3, "total": time.perf_counter() - t0},
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
    series, inputs = _load_series(args.input, args)
    load_time = time.perf_counter() - t0
    n = series.n_nodes

    t1 = time.perf_counter()
    if args.method in ("uase", "omnibus") and "," in args.dim:
        raise DataError(f"--method {args.method} takes one dimension, not a list")
    dims = _parse_dims(args.dim, series.n_snapshots)
    # one decomposition of the unfolding gives the scree and, for uase, the
    # embedding. Only --dim auto reads a long scree (the n x Tn unfolding has
    # rank at most n); past the signal rank Lanczos converges slowly in the
    # noise bulk, so a given dimension is decomposed at its own rank.
    rank = min(SCREE_LENGTH, n) if dims is None else int(np.max(dims))
    if rank > n:
        raise DataError(f"dimension {rank} out of range for {n} nodes")
    unfolded = series.unfold()
    svd = truncated_svd(unfolded, rank, seed=args.seed)
    # ||A v_j - s_j u_j|| / s_1 for each scree triplet
    residuals = np.linalg.norm(unfolded @ svd.v - svd.u * svd.s, axis=0)
    if svd.s[0] > 0:
        residuals /= svd.s[0]
    curve = None
    if dims is None:
        dims, curve = select_dimension(svd.s)

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
    _write_csv(out / "scree.csv", ["rank", "singular_value"],
               [np.arange(1, rank + 1), svd.s])
    outputs = [out / "embedding.csv", out / "scree.csv"]
    if emb.left is not None:
        _write_csv(out / "left.csv", None, emb.left.T)
        outputs.append(out / "left.csv")
    details = {
        "method": args.method,
        "dimensions": emb.dims,
        "embedding_rows": rows,
        "singular_values": [float(s) for s in svd.s],
        "singular_value_residuals": [float(r) for r in residuals],
        "gram_products": svd.gram_products,
        "auto_dimension": args.dim == "auto",
    }
    if curve is not None:
        details["dimension_curve"] = [float(c) for c in curve]
    if series.stats is not None:
        details["ingest"] = dataclasses.asdict(series.stats)
    if emb.signatures is not None:
        details["eigenvalue_signatures"] = [list(s) for s in emb.signatures]
    if emb.route is not None:
        details["omnibus_route"] = emb.route
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
    nodes, times, communities = _read_csv(
        path, "truth", [("node_label", str), ("time_label", _finite_float),
                        ("community", int)])
    return dict(zip(zip(nodes, times.tolist()), communities))


def cmd_stability(args) -> int:
    t0 = time.perf_counter()
    if not (np.isfinite(args.threshold) and args.threshold > 0):
        raise DataError(f"--threshold must be positive and finite, not {args.threshold:g}")
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
        if (ga, ta) == (gb, tb):
            raise DataError(f"--pair {text!r} pairs group {ga}:{ta:g} with itself")
        for g, tv in ((ga, ta), (gb, tb)):
            if tv not in times:
                raise DataError(
                    f"pair time {tv:g} not among embedding times "
                    f"{[f'{x:g}' for x in times]}"
                )
            if not np.any(memberships[times.index(tv)] == g):
                raise DataError(f"pair group {g}:{tv:g} has no nodes in {args.truth}")
        pairs.append(((ga, times.index(ta)), (gb, times.index(tb))))

    report = stability_report(emb, memberships, pairs, threshold=args.threshold)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [(p.group_a[0], times[p.group_a[1]], p.group_b[0], times[p.group_b[1]],
             p.centroid_gap, p.separation, p.gap_ratio, p.cov_gap, p.scale,
             int(p.passed), int(p.cov_skipped)) for p in report.pairs]
    _write_csv(out / "report.csv", [
        "group_a", "time_a", "group_b", "time_b", "centroid_gap", "separation",
        "gap_ratio", "cov_gap", "scale", "passed", "cov_skipped",
    ], zip(*rows))
    lines = [f"threshold {args.threshold:g}"] + [
        f"{ga}:{ta:g} vs {gb}:{tb:g}: gap_ratio={ratio:.4f} cov_gap={cov:.4f} "
        f"[{'pass' if passed else 'FAIL'}]"
        for ga, ta, gb, tb, _, _, ratio, cov, _, passed, _ in rows
    ]
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(
        out, args.argv, None,
        inputs=[emb_path, Path(args.truth)],
        outputs=["report.csv", "report.txt"],
        timings={"total": time.perf_counter() - t0},
        details={
            "threshold": args.threshold,
            "passed": report.passed,
            "gap_ratios": [float(row[6]) for row in rows],
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
        best, fits = fit_gmm_bic(
            theta, grid, restarts=args.restarts, seed=args.seed
        )
    except ValueError as exc:
        raise DataError(str(exc)) from None
    labels, resp = assign(best, theta)
    confidence = resp[np.arange(resp.shape[0]), labels]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "assignments.csv",
               ["node_label", "time_label", "cluster", "max_posterior"], [
                   [labels_per_time[t][node] for node, t in index.tolist()],
                   np.asarray(times)[index[:, 1]], labels + 1, confidence,
               ])
    _write_csv(out / "bic.csv", ["components", "bic"],
               [[m.n_components for m in fits], [m.bic for m in fits]])
    # share of each snapshot's active nodes landing in each cluster
    g_count = best.n_components
    shares = np.zeros((g_count, len(times)))
    for t in range(len(times)):
        at_t = labels[index[:, 1] == t]
        if at_t.size:
            shares[:, t] = np.bincount(at_t, minlength=g_count) / at_t.size
    _write_csv(out / "proportions.csv", ["cluster"] + [f"{t:.17g}" for t in times],
               [np.arange(1, g_count + 1), *shares.T])
    _write_manifest(
        out, args.argv, args.seed,
        inputs=[emb_path],
        outputs=["assignments.csv", "bic.csv", "proportions.csv"],
        timings={"total": time.perf_counter() - t0},
        details={
            "selected_components": best.n_components,
            "bic_table": [[m.n_components, m.bic] for m in fits],
            # the kept fit of each grid count, so a count's BIC can be audited
            "grid_fits": [{"components": m.n_components, "bic": m.bic, "loglik": m.loglik,
                           "n_iter": m.n_iter, "converged": m.converged,
                           "regularized": m.regularized} for m in fits],
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
                   help="seconds of day; with --daily-end, keeps only in-band "
                        "events (a start after the end wraps midnight)")
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
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
