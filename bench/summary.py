"""Print every benchmark metric recorded in ``bench/results/*.jsonl``.

Usage::

    python3 bench/summary.py

For each workload and metric: unit, sample count, median and the highest
percentile of 50/90/95/99/99.9 that has at least ten samples beyond it
("-" when there are too few). Wall, set-up and peak-RSS samples are single
pipeline passes or set-ups; every other metric has one sample per run.
Figures that no gate bounds (failure ratio, UASE gap ratio, selected BIC) are
listed after the gated ones.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

from run import END_TO_END, PER_LAYER

RESULTS = Path(__file__).resolve().parent / "results"
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
UNGATED = {"fail_ratio": "ratio", "scree_rel_err_raw": "ratio",
           "gap_ratio_max": "ratio", "cluster_bic": "1"}


def tail(values: list) -> str:
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return f"p{p:g}={ordered[math.ceil(p / 100.0 * n) - 1]:.6g}"
    return "-"


def rows(records: list, trace: int):
    runs = [r for r in records if r["trace"] == trace]
    if not runs:
        return
    units = PER_LAYER if trace else {**END_TO_END, **UNGATED}
    for name, unit in units.items():
        if trace == 0 and name in runs[0]["samples"]:
            values = [v for r in runs for v in r["samples"][name]]
        elif name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
        else:
            values = [r[name] for r in runs if r.get(name) is not None]
        if values:
            yield name, unit, len(values), statistics.median(values), tail(values)


def main() -> int:
    files = sorted(RESULTS.glob("*.jsonl"))
    if not files:
        print(f"no results under {RESULTS}; run bench/run.py first")
        return 1
    for path in files:
        records = [json.loads(line) for line in path.read_text().splitlines() if line]
        print(f"== {path.stem}  ({len(records)} runs; stamp of the last: "
              f"{json.dumps(records[-1]['stamp'], sort_keys=True)})")
        for trace, title in ((0, "end to end"), (1, "per layer (traced)")):
            table = list(rows(records, trace))
            if table:
                print(f"  -- {title}")
                for name, unit, n, median, high in table:
                    print(f"  {name:42s} {unit:6s} n={n:<4d} median={median:<14.6g} {high}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
