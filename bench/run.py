"""End-to-end and per-layer benchmark of the ``dynembed`` CLI pipeline.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark writes its inputs from the seed,
sets up SETUP_REPEATS times (input generation plus one discarded CLI call
that imports every module, so ``.pyc`` compilation stays out of the
samples), then runs the workload's stage chain as child processes
(``python -m dynembed.cli ...`` with ``PYTHONPATH=src``) until S seconds have
passed, at least MIN_REPS times. Interpreter start-up and import stay in the
timings, because users pay them on every CLI call.

Every stage is checked against the expected-outcome table in
``workloads.py``; same-seed repetitions must write byte-identical
``embedding.csv`` and ``assignments.csv``. The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
With ``--trace 1`` untraced and traced repetitions alternate; traced stages
run under ``tracer.py``, and the difference of the two median pipeline
times is ``trace.overhead_s``. Each result, stamped with the machine and
library versions, is also appended to ``bench/results/<workload>.jsonl`` for
``bench/summary.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_REPS = 2
STAGE_TIMEOUT_S = 150
# Scree errors below the accuracy asked of the bulk singular values read as
# this value; the dense path's round-off (about 1e-14) is noise, not signal.
SCREE_REL_TOL = 1e-6

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "scree_rel_err_max": "ratio",
}

STAGES = ("simulate", "embed", "stability", "cluster")
PER_LAYER = {"cli.import_s": "s"}
for _stage in STAGES:
    PER_LAYER.update({f"cli.{_stage}.wall_s": "s", f"cli.{_stage}.self_s": "s",
                      f"cli.{_stage}.peak_rss_mb": "MiB"})
PER_LAYER.update({
    "models.sample_dsbm_s": "s",
    "models.edges": "count",
    "netseries.ingest_edge_list_s": "s",
    "netseries.events_read": "count",
    "netseries.events_outside_range": "count",
    "netseries.duplicate_pairs_collapsed": "count",
    "netseries.load_s": "s",
    "netseries.save_s": "s",
    "netseries.unfold_s": "s",
    "linalg.truncated_svd_s": "s",
    "linalg.truncated_svd.calls": "count",
    "linalg.truncated_svd.randomized_calls": "count",
    "linalg.truncated_eigh_s": "s",
    "embedders.uase_s": "s",
    "embedders.omnibus_embed_s": "s",
    "embedders.omnibus_matrix_free": "count",
    "stability.stability_report_s": "s",
    "stability.gap_ratio_max": "ratio",
    "cluster.pool_spherical_s": "s",
    "cluster.fit_gmm_bic_s": "s",
    "cluster.fits": "count",
    "cluster.em_iterations": "count",
    "cluster.em_iter_ms": "ms",
    "cluster.converged_ratio": "ratio",
    "cluster.ridge_warnings": "count",
    "cluster.assign_s": "s",
    "cluster.bic": "1",
    "trace.overhead_s": "s",
})


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, cwd: Path, log: Path, env: dict):
    """Run one child to completion; returns (wall seconds, exit code, peak
    RSS in MiB). The peak comes from ``wait4`` on this child alone."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> list:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def check_stage(stage, rep_dir: Path, rc: int, traced: bool):
    """Expected-outcome check of one stage; returns (ok, facts)."""
    out = rep_dir / stage.out
    files = workloads.OUTPUTS[stage.name]
    if rc != stage.expect_rc or not all((out / f).is_file() for f in files):
        return False, {}
    if traced and not (rep_dir / f"{stage.out}.spans.json").is_file():
        return False, {}
    facts = {"digests": {f"{stage.out}/{f}": sha256(out / f) for f in stage.digest}}
    if stage.name == "embed":
        facts["scree"] = [float(r[1]) for r in read_csv(out / "scree.csv")]
    elif stage.name == "stability":
        rows = read_csv(out / "report.csv")
        # columns: group_a,time_a,group_b,time_b,...,gap_ratio(6),...,passed(9)
        cross = [r[1] == r[3] for r in rows]
        passed = [r[9] == "1" for r in rows]
        if stage.expect == "pass":
            ok = all(passed)
            facts["gap_ratios"] = [float(r[6]) for r in rows]
        else:  # "cross_fails": the paper's omnibus contrast
            ok = all(p != c for p, c in zip(passed, cross)) and any(cross)
        if not ok:
            return False, facts
    elif stage.name == "cluster":
        facts["bic"] = min(float(r[1]) for r in read_csv(out / "bic.csv"))
    return True, facts


def run_pipeline(wl, seed: int, rep_dir: Path, traced: bool, env: dict):
    """One pass over the stage chain; returns a dict describing it."""
    rep_dir.mkdir(parents=True)
    stages = []
    start = time.perf_counter()
    for k, stage in enumerate(wl.stages(seed)):
        cli_args = [stage.name, *stage.args, "--out", stage.out]
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"),
                    f"{stage.out}.spans.json", f"{rep_dir.name}/{k}", *cli_args]
        else:
            argv = [sys.executable, "-m", "dynembed.cli", *cli_args]
        wall, rc, rss = run_child(argv, rep_dir, rep_dir / f"{stage.out}.log", env)
        ok, facts = check_stage(stage, rep_dir, rc, traced)
        stages.append({"stage": stage, "wall": wall, "rc": rc, "rss": rss,
                       "ok": ok, **facts})
    return {"wall": time.perf_counter() - start, "stages": stages,
            "dir": rep_dir, "traced": traced}


def exact_scree(wl, workdir: Path, rep_dir: Path, length: int) -> list:
    """Square roots of the top eigenvalues of sum_t A_t A_t^T for the series
    the CLI embedded, cached by the digest of its input file."""
    source, key_extra = wl.series_input(workdir, rep_dir)
    key = hashlib.sha256((sha256(source) + key_extra + str(length)).encode()).hexdigest()
    cache = BENCH / "cache" / f"scree-{key[:32]}.json"
    if cache.is_file():
        return json.loads(cache.read_text())
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy.linalg
    import scipy.sparse as sp

    series = wl.load_series(workdir, rep_dir)
    unfolded = sp.hstack([sp.csr_matrix(a) for a in series.snapshots], format="csr")
    gram = (unfolded @ unfolded.T).toarray()
    n = gram.shape[0]
    top = scipy.linalg.eigh(gram, eigvals_only=True,
                            subset_by_index=[n - length, n - 1])[::-1]
    values = np.sqrt(np.clip(top, 0.0, None)).tolist()
    cache.parent.mkdir(exist_ok=True)
    cache.write_text(json.dumps(values))
    return values


def scree_rel_err(reps, wl, workdir: Path):
    """Largest relative scree error over every embed stage of every rep."""
    worst = 0.0
    reference = {}
    for rep in reps:
        for s in rep["stages"]:
            if "scree" not in s:
                continue
            if rep["dir"] not in reference:
                reference[rep["dir"]] = exact_scree(wl, workdir, rep["dir"], len(s["scree"]))
            exact = reference[rep["dir"]]
            worst = max(worst, max(abs(a - b) / b for a, b in zip(s["scree"], exact)))
    return worst


def self_times(spans: list) -> list:
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def layer_metrics(rep) -> dict:
    """Per-layer metrics of one traced pass, from its span files."""
    m = {name: 0.0 for name in PER_LAYER}
    converged = 0
    imports = []
    for s in rep["stages"]:
        name = s["stage"].name
        m[f"cli.{name}.wall_s"] += s["wall"]
        m[f"cli.{name}.peak_rss_mb"] = max(m[f"cli.{name}.peak_rss_mb"], s["rss"])
        spans = rep["dir"] / f"{s['stage'].out}.spans.json"
        if not spans.is_file():  # the stage failed and is counted as such
            continue
        doc = json.loads(spans.read_text())
        imports.append(doc["import_s"])
        for (span, *_), own in zip(doc["spans"], self_times(doc["spans"])):
            key = f"cli.{name}.self_s" if span == "cli.main" else f"{span}_s"
            m[key] += own
        for counter, value in doc["counters"].items():
            if counter == "cluster.converged":
                converged += value
            else:
                m[counter] += value
        if "gap_ratios" in s:
            m["stability.gap_ratio_max"] = max(m["stability.gap_ratio_max"],
                                               *s["gap_ratios"])
        if "bic" in s:
            m["cluster.bic"] = s["bic"]
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    if m["cluster.em_iterations"]:
        m["cluster.em_iter_ms"] = 1000.0 * m["cluster.fit_gmm_bic_s"] / m["cluster.em_iterations"]
    if m["cluster.fits"]:
        m["cluster.converged_ratio"] = converged / m["cluster.fits"]
    return m


def stamp() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dynembed" / "cli.py").is_file():
        print(f"error: no dynembed sources under {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = child_env()
    workdir = BENCH / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setups = []
        for k in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.prepare(workdir, args.seed)
            _, rc, _ = run_child([sys.executable, "-m", "dynembed.cli", "--version"],
                                 workdir, workdir / f"warmup{k}.log", env)
            setups.append(time.perf_counter() - start)
            if rc != 0:
                print("error: warm-up CLI call failed", file=sys.stderr)
                return 2

        reps = []
        begin = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - begin < args.seconds:
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(run_pipeline(wl, args.seed, workdir / f"rep{len(reps)}",
                                     traced, env))
        result = summarize(wl, args, reps, setups, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def summarize(wl, args, reps, setups, workdir: Path) -> dict:
    first = {}
    attempted = failed = 0
    for rep in reps:
        for s in rep["stages"]:
            attempted += 1
            same = all(first.setdefault(p, d) == d for p, d in s.get("digests", {}).items())
            failed += not (s["ok"] and same)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    gaps = [g for s in untraced[0]["stages"] for g in s.get("gap_ratios", [])]
    bics = [s["bic"] for s in untraced[0]["stages"] if "bic" in s]
    scree_err = scree_rel_err(reps, wl, workdir)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "stamp": stamp(),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "samples": {
            "wall_s": [r["wall"] for r in untraced],
            "setup_s": setups,
            "peak_rss_mb": [max(s["rss"] for s in r["stages"]) for r in untraced],
        },
        "scree_rel_err_raw": scree_err,
        "gap_ratio_max": max(gaps) if gaps else None,
        "cluster_bic": bics[0] if bics else None,
    }
    if args.trace:
        per_rep = [layer_metrics(r) for r in traced]
        values = {k: statistics.median(m[k] for m in per_rep) for k in PER_LAYER}
        values["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                      - statistics.median(r["wall"] for r in untraced))
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(record["samples"]["wall_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(record["samples"]["peak_rss_mb"]),
            "scree_rel_err_max": max(scree_err, SCREE_REL_TOL),
        }
        units = END_TO_END
    record["metrics"] = values
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("workload", "seed", "stamp", "fail_ratio",
                                              "scree_rel_err_raw", "gap_ratio_max",
                                              "cluster_bic")}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
