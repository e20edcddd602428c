"""Run one ``dynembed`` CLI call with span recorders on every layer.

Usage::

    python bench/tracer.py SPANS_JSON RUN_ID CLI_ARG...

Before calling ``dynembed.cli.main`` this script rebinds the public
functions of each layer, as ``dynembed.cli``, ``dynembed.embedders`` and
``dynembed.cluster`` imported them, to wrappers that record a span (name,
start, end, parent) and, where a layer's return value carries them, counts.
Spans stay in memory and are written to SPANS_JSON when the call ends. The
program's own files are not touched; a name a later version no longer has is
simply not traced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import warnings


class Recorder:
    """In-memory spans and counters of one CLI call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.stack: list = []
        self.counters: dict = {}

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result

        return traced

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "import_s": import_s,
                       "spans": self.spans, "counters": self.counters}, fh)


def _rebind(rec: Recorder, module, attr: str, span: str, after=None) -> None:
    fn = getattr(module, attr, None)
    if fn is not None:
        setattr(module, attr, rec.wrap(span, fn, after))


def install(rec: Recorder) -> None:
    import dynembed.cli as cli
    import dynembed.cluster as cluster
    import dynembed.embedders as embedders
    import dynembed.linalg as linalg
    from dynembed.netseries import GraphSeries

    def edges(args, series):
        rec.count("models.edges", sum(a.nnz for a in series.snapshots) // 2)

    def ingest(args, series):
        stats = getattr(series, "stats", None)
        for field in ("events_read", "events_outside_range",
                      "duplicate_pairs_collapsed"):
            rec.count(f"netseries.{field}", getattr(stats, field, 0))

    def svd(args, result):
        rec.count("linalg.truncated_svd.calls")
        limit = getattr(linalg, "DENSE_SVD_MAX_ENTRIES", None)
        rows, cols = args[0].shape
        if limit is not None and rows * cols > limit:
            rec.count("linalg.truncated_svd.randomized_calls")

    def eigh(args, result):
        if args and args[0] is None:
            rec.count("embedders.omnibus_matrix_free")

    _rebind(rec, cli, "sample_dsbm", "models.sample_dsbm", edges)
    _rebind(rec, cli, "ingest_edge_list", "netseries.ingest_edge_list", ingest)
    _rebind(rec, cli, "truncated_svd", "linalg.truncated_svd", svd)
    _rebind(rec, embedders, "truncated_svd", "linalg.truncated_svd", svd)
    _rebind(rec, embedders, "truncated_eigh", "linalg.truncated_eigh", eigh)
    for attr in ("uase", "omnibus_embed"):
        _rebind(rec, cli, attr, f"embedders.{attr}")
    _rebind(rec, cli, "stability_report", "stability.stability_report")
    for attr in ("pool_spherical", "fit_gmm_bic", "assign"):
        _rebind(rec, cli, attr, f"cluster.{attr}")

    load = GraphSeries.__dict__.get("load")
    if isinstance(load, classmethod):
        GraphSeries.load = classmethod(rec.wrap("netseries.load", load.__func__))
    for attr in ("save", "unfold"):
        _rebind(rec, GraphSeries, attr, f"netseries.{attr}")

    fit = getattr(cluster, "fit_gmm", None)
    if fit is not None:
        cluster.fit_gmm = _counted_fit(rec, fit, cluster)


def _counted_fit(rec: Recorder, fit, cluster):
    """Counts EM fits, iterations, convergence and ridge warnings; no span,
    so the grid search's self time is the EM time."""

    @functools.wraps(fit)
    def counted(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = fit(*args, **kwargs)
        # re-emit through the module's registry so stderr matches an
        # untraced run
        registry = cluster.__dict__.setdefault("__warningregistry__", {})
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                                   registry=registry)
        rec.count("cluster.fits")
        rec.count("cluster.em_iterations", int(getattr(model, "n_iter", 0)))
        rec.count("cluster.converged", int(bool(getattr(model, "converged", False))))
        rec.count("cluster.ridge_warnings",
                  sum("ridge" in str(w.message) for w in caught))
        return model

    return counted


def main(argv) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    rec = Recorder(run_id)
    t0 = time.perf_counter()
    import dynembed.cli

    import_s = time.perf_counter() - t0
    install(rec)
    try:
        return rec.wrap("cli.main", dynembed.cli.main)(cli_args)
    finally:
        rec.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
