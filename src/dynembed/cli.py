"""Command line front end for reproducible embedding experiments.

Subcommands cover the full pipeline: ``simulate`` draws a snapshot series
from a block model config, ``embed`` turns a series (saved or raw edge list)
into per-snapshot point sets, ``stability`` scores group pairs of an
embedding against ground-truth labels, and ``cluster`` fits a Gaussian
mixture to pooled spherical coordinates. Every command writes its outputs
plus a ``manifest.json`` recording the command, seed, input digests and
timings into one output directory; reruns with identical inputs reproduce
the CSVs byte for byte.

Exit codes: 0 success, 1 usage error, 2 unreadable or inconsistent data,
3 a requested stability threshold failed.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .models import bundled_config_path, dsbm_snapshots, load_dsbm_config
from .netseries import GraphSeries, SeriesWriter, ingest_edge_list
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
    try:  # the built-in module first, as random.py does: hashlib loads OpenSSL
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    # read into one buffer: a new chunk per read would hold two at a time
    h, chunk = sha256(), bytearray(1 << 16)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(chunk):
            h.update(memoryview(chunk)[:size])
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


class _Run:
    """What one command's ``manifest.json`` records, kept as the run goes:
    the files written, each recorded as its path is handed out; the inputs
    read; and the named part timings. The output directory is made with the
    first file, so a refused run leaves none. ``--seed`` is checked here."""

    def __init__(self, args):
        self.args, self.out = args, Path(args.out)
        self.seed = getattr(args, "seed", None)
        if self.seed is not None and not 0 <= self.seed < 1 << 64:  # a Philox key word
            raise DataError(f"--seed must be in [0, 2**64), not {self.seed}")
        self.inputs, self.outputs, self.timings = [], [], {}
        self.start = self.mark = time.perf_counter()

    def path(self, name, files=()) -> Path:
        """Output file ``name``, or the output directory ``name`` that holds
        ``files``, recorded as written; its directory is made here."""
        path = self.out / name
        (path if files else path.parent).mkdir(parents=True, exist_ok=True)
        self.outputs += [f"{name}/{f}" for f in files] or [name]
        return path

    def lap(self, part) -> None:
        """Time since the previous lap, or the start, added to part ``part``."""
        now = time.perf_counter()
        self.timings[part], self.mark = self.timings.get(part, 0.0) + now - self.mark, now

    def finish(self, details) -> None:
        """Write ``manifest.json``, with the run's total time."""
        self.timings["total"] = time.perf_counter() - self.start
        manifest = {
            "command": list(self.args.argv),
            "seed": self.seed,
            "versions": {
                "dynembed": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": _blas(),
            },
            "blas_threads": {var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "input_digests": {str(p): _sha256(p) for p in self.inputs},
            "outputs": sorted(str(o) for o in self.outputs),
            "timings_seconds": self.timings,
            "peak_rss_mib": _peak_rss_mib(),
            "details": details,
        }
        with open(self.out / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


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


def _load_embedding(args, run):
    """``_read_embedding_csv`` of ``--embedding``, the CSV or the directory
    holding it; the file read goes to ``run``."""
    p = Path(args.embedding)
    if p.is_dir():
        p = p / "embedding.csv"
    if not p.exists():
        raise DataError(f"no embedding CSV at {p}")
    run.inputs.append(p)
    return _read_embedding_csv(p)


def _refuse_given(args, names, where) -> None:
    """DataError naming those of the options ``names`` that were given
    (argparse leaves an option not given None): they apply only ``where``."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise DataError(f"{', '.join(given)} {'apply' if given[1:] else 'applies'} {where}")


def _load_series(args, run) -> GraphSeries:
    """The series ``--input`` names; the files read for it go to ``run``."""
    p = Path(args.input)
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
        _refuse_given(args, band, f"to a raw edge list, not to the saved series {p}")
        run.inputs += [p, p.parent / "labels.txt"]
        return GraphSeries.load(p.parent)
    if args.window_seconds is None:
        raise DataError("raw edge list input needs --window-seconds to define snapshots")
    run.inputs.append(p)
    return ingest_edge_list(p, column_order=args.column_order,
                            label_order=args.label_order, **band)


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
    if min(values) < 1:
        raise DataError("--grid component counts must be at least 1")
    return values


def cmd_simulate(args, run):
    config = _resolve_config(args.config)
    run.inputs.append(config)
    spec = load_dsbm_config(config)
    n = spec.n_nodes
    snapshots = dsbm_snapshots(spec, seed=args.seed)
    # human-facing labels and times start at 1
    labels, times = [str(i + 1) for i in range(n)], list(range(1, spec.n_snapshots + 1))
    pairs, densities = n * (n - 1) / 2.0, []
    # one snapshot's edge keys at a time: drawn, appended to the series file
    # and written as edges_t.csv, then freed
    with SeriesWriter(run.path("series", files=("snapshots.npz", "labels.txt")),
                      labels, times) as series:
        for t, upper in enumerate(snapshots):
            run.lap("sample")
            series.append(upper)
            run.lap("save")
            densities.append(upper.size / pairs if pairs else 0.0)
            rows = upper // n
            np.remainder(upper, n, out=upper)  # the columns
            _write_csv(run.path(f"edges_{t + 1}.csv"), ["u", "v"],
                       [(labels, rows), (labels, upper)])
            del upper, rows
            run.lap("edges")
    _write_csv(run.path("truth.csv"), ["node_label", "time_label", "community"], [
        (labels, np.tile(np.arange(n), spec.n_snapshots)),
        (times, np.repeat(np.arange(spec.n_snapshots), n)),
        (range(1, spec.n_communities + 1), np.asarray(spec.memberships).ravel()),
    ])
    run.lap("truth")
    return ({"n_nodes": n, "n_snapshots": spec.n_snapshots, "densities": densities},
            [f"wrote {spec.n_snapshots} snapshots of {n} nodes to {run.out}"], EXIT_OK)


def cmd_embed(args, run):
    # a smoothing option not given keeps separate_embed's default
    smoothing = {name: getattr(args, name) for name in ("scheme", "forgetting", "window")
                 if getattr(args, name) is not None}
    if args.method != "separate":
        _refuse_given(args, smoothing, "to --method separate only")
    elif args.scheme not in (None, "exponential"):  # separate_embed's default scheme
        _refuse_given(args, ["forgetting"], "to --scheme exponential only")
    if args.scheme != "window":
        _refuse_given(args, ["window"], "to --scheme window only")
    series = _load_series(args, run)
    run.lap("load")
    n = series.n_nodes

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
        emb = separate_embed(series, dims, seed=args.seed, **smoothing)
    run.lap("embed")

    rows = _write_embedding_csv(run.path("embedding.csv"), emb, series.node_labels, series.times)
    _write_csv(run.path("scree.csv"), ["rank", "singular_value"],
               [np.arange(1, rank + 1), svd.s])
    if emb.left is not None:
        _write_csv(run.path("left.csv"), None, emb.left.T)
    run.lap("write")
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
        details["omnibus_route"], details["omnibus_products"] = emb.route, emb.products
    distinct = list(dict.fromkeys(emb.dims))  # each once, in order of first appearance
    return details, [f"{args.method} embedding: {rows} rows, dimensions {distinct}, "
                     f"written to {run.out}"], EXIT_OK


def _read_truth(path):
    nodes, times, communities = _read_csv(
        path, "truth", [("node_label", str), ("time_label", _finite_float),
                        ("community", int)])
    return dict(zip(zip(nodes, times.tolist()), communities))


def cmd_stability(args, run):
    if not (np.isfinite(args.threshold) and args.threshold > 0):
        raise DataError(f"--threshold must be positive and finite, not {args.threshold:g}")
    emb, labels_per_time, times = _load_embedding(args, run)
    truth = _read_truth(args.truth)
    run.inputs.append(Path(args.truth))

    memberships = []
    for t, labels in zip(times, labels_per_time):
        try:
            memberships.append([truth[(lab, t)] for lab in labels])
        except KeyError as missing:
            raise DataError(f"truth file lacks node/time {missing.args[0]}") from None
    memberships = np.asarray(memberships)

    pairs = []
    for text in args.pair:
        (ga, ta), (gb, tb) = _parse_pair(text)
        if (ga, ta) == (gb, tb):
            raise DataError(f"--pair {text!r} pairs group {ga}:{ta:g} with itself")
        for g, tv in ((ga, ta), (gb, tb)):
            if tv not in times:
                raise DataError(f"pair time {tv:g} not among embedding times "
                                f"{[f'{x:g}' for x in times]}")
            if not np.any(memberships[times.index(tv)] == g):
                raise DataError(f"pair group {g}:{tv:g} has no nodes in {args.truth}")
        pairs.append(((ga, times.index(ta)), (gb, times.index(tb))))
    run.lap("load")

    report = stability_report(emb, memberships, pairs, threshold=args.threshold)
    run.lap("score")
    results = report.pairs
    columns = {  # report.csv's columns in order, each read from PairResult fields by name
        "group_a": [r.group_a[0] for r in results],
        "time_a": [times[r.group_a[1]] for r in results],
        "group_b": [r.group_b[0] for r in results],
        "time_b": [times[r.group_b[1]] for r in results],
        **{name: [getattr(r, name) for r in results]
           for name in ("centroid_gap", "separation", "gap_ratio", "cov_gap", "scale")},
        **{name: [int(getattr(r, name)) for r in results] for name in ("passed", "cov_skipped")},
    }
    _write_csv(run.path("report.csv"), list(columns), columns.values())
    lines = [f"threshold {args.threshold:g}"] + [
        f"{r.group_a[0]}:{times[r.group_a[1]]:g} vs {r.group_b[0]}:{times[r.group_b[1]]:g}: "
        f"gap_ratio={r.gap_ratio:.4f} cov_gap={r.cov_gap:.4f} [{'pass' if r.passed else 'FAIL'}]"
        for r in results
    ]
    run.path("report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    run.lap("write")
    return ({"threshold": args.threshold, "passed": report.passed,
             "gap_ratios": [float(r.gap_ratio) for r in results]},
            lines, EXIT_OK if report.passed else EXIT_THRESHOLD)


def cmd_cluster(args, run):
    emb, labels_per_time, times = _load_embedding(args, run)
    run.lap("load")
    theta, index = pool_spherical(emb)
    grid = _parse_grid(args.grid)
    best, fits = fit_gmm_bic(theta, grid, restarts=args.restarts, seed=args.seed)
    labels, resp = assign(best, theta)
    confidence = resp[np.arange(resp.shape[0]), labels]
    run.lap("fit")

    _write_csv(run.path("assignments.csv"),
               ["node_label", "time_label", "cluster", "max_posterior"], [
                   [labels_per_time[t][node] for node, t in index.tolist()],
                   np.asarray(times)[index[:, 1]], labels + 1, confidence,
               ])
    _write_csv(run.path("bic.csv"), ["components", "bic"],
               [[m.n_components for m in fits], [m.bic for m in fits]])
    # share of each snapshot's active nodes landing in each cluster
    g_count = best.n_components
    shares = np.zeros((g_count, len(times)))
    for t in range(len(times)):
        at_t = labels[index[:, 1] == t]
        if at_t.size:
            shares[:, t] = np.bincount(at_t, minlength=g_count) / at_t.size
    _write_csv(run.path("proportions.csv"), ["cluster"] + [f"{t:.17g}" for t in times],
               [np.arange(1, g_count + 1), *shares.T])
    run.lap("write")
    return {
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
    }, [f"selected {best.n_components} components over grid {grid}; "
        f"{theta.shape[0]} pooled rows; results in {run.out}"], EXIT_OK


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
    p.add_argument("--scheme", choices=["constant", "exponential", "window"],
                   help="history smoothing for method=separate (default exponential)")
    p.add_argument("--forgetting", type=float, help="for --scheme exponential (default 0.5)")
    p.add_argument("--window", type=int, help="for --scheme window (default 3)")
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
        # each command writes its own files and hands back the manifest's
        # details, the lines to print and its exit code
        run = _Run(args)
        details, lines, code = args.func(args, run)
        run.finish(details)
        print(*lines, sep="\n")
        return code
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
