"""Input generators, stage chains and expected outcomes of the CLI workloads.

Every input is a pure function of the workload seed and is written with the
standard library only, so the same seed writes byte-identical files. Paths in
stage arguments are relative to one repetition's directory; inputs written
at set-up live one level up.

Why each workload:

- ``fourblock_cli``: the README chain on the bundled ``fourblock`` config
  (n=1000, T=2). Six interpreter starts make import most of its time, and it
  is the one workload on the dense paths: full LAPACK SVD, materialized
  omnibus matrix, many small-G mixture fits.
- ``dsbm_large_cli``: a generated three-community model, large enough that
  the quadratic sampler, the randomized scree SVD, the matrix-free omnibus
  product and big CSVs dominate. No cluster stage.
- ``school_contacts_cli``: a generated two-day school contact list at
  unix-epoch seconds; the only raw-ingestion path, then one q=9 mixture fit
  on the 4840 pooled rows. Fits at G=30 and G=50 take anywhere from 10 to
  the 500-iteration cap on this data, which swings the run time by more
  than any bound, so the fit is at G=15.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# dsbm_large_cli: three communities at p = 0.05 within / 0.01 between; from
# snapshot DSBM_SWITCH on, community 3 takes community 1's connection row.
DSBM_NODES = 2000
DSBM_SNAPSHOTS = 10
DSBM_SWITCH = 6
P_IN, P_OUT = 0.05, 0.01

# school_contacts_cli: 10 classes with one teacher each, two school days of
# 08:00-18:00 at 20-second ticks, timestamps in unix-epoch seconds (day one
# is 2009-10-01 UTC). Each hour of the day the timetable pairs every class c
# with partner class (c + offset) % 10; offset 0 keeps classes apart.
SCHOOL_CLASSES = 10
SCHOOL_STUDENTS = (23, 23, 23, 23, 23, 23, 24, 24, 23, 23)
SCHOOL_DAY0 = 1254355200
SCHOOL_OPEN, SCHOOL_CLOSE = 8 * 3600, 18 * 3600
SCHOOL_TICK = 20
SCHOOL_EVENTS_PER_TICK = (25, 45)
SCHOOL_PARTNER_OFFSET = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
P_OWN_CLASS, P_PARTNER_CLASS = 0.55, 0.40
SCHOOL_INGEST = {"window_seconds": 3600.0, "daily_start": 28800.0,
                 "daily_end": 64800.0}


def dsbm_config_text() -> str:
    def block(switched: bool) -> str:
        rows = [[P_IN, P_OUT, P_OUT], [P_OUT, P_IN, P_OUT], [P_OUT, P_OUT, P_IN]]
        if switched:
            rows[2] = list(rows[0])
            for r in rows:
                r[2] = r[0]
        return "\n".join("    " + " ".join(f"{x:g}" for x in r) for r in rows)

    parts = [f"[model]\nn_nodes = {DSBM_NODES}\nrho = 1.0\n"]
    for t in range(1, DSBM_SNAPSHOTS + 1):
        parts.append(f"[snapshot.{t}]\nblock_matrix =\n{block(t >= DSBM_SWITCH)}\n")
    return "\n".join(parts)


def write_school_contacts(path: Path, seed: int) -> None:
    """Write ``timestamp u v`` contact lines.

    A contact starts from a random student of a random class and meets its
    own class, the hour's partner class or the class teacher. Every tick
    carries events, including the last one of the second day.
    """
    rng = random.Random(seed)
    members, node = [], 0
    for size in SCHOOL_STUDENTS:
        members.append(range(node, node + size))
        node += size
    teacher = node  # teachers take the last SCHOOL_CLASSES node ids
    badge = rng.sample(range(1000, 2000), node + SCHOOL_CLASSES)
    lines = []
    for day in range(2):
        for sod in range(SCHOOL_OPEN, SCHOOL_CLOSE, SCHOOL_TICK):
            stamp = SCHOOL_DAY0 + day * 86400 + sod
            offset = SCHOOL_PARTNER_OFFSET[(sod - SCHOOL_OPEN) // 3600]
            for _ in range(rng.randint(*SCHOOL_EVENTS_PER_TICK)):
                c = rng.randrange(SCHOOL_CLASSES)
                r = rng.random()
                u = rng.choice(members[c])
                if r < P_OWN_CLASS:
                    v = rng.choice(members[c])
                elif r < P_OWN_CLASS + P_PARTNER_CLASS:
                    v = rng.choice(members[(c + offset) % SCHOOL_CLASSES])
                else:
                    v = teacher + c
                if u != v:
                    lines.append(f"{stamp} {badge[u]} {badge[v]}\n")
    path.write_text("".join(lines), encoding="ascii")


# Files every stage must leave in its output directory.
OUTPUTS = {
    "simulate": ("series/snapshots.npz", "truth.csv", "manifest.json"),
    "embed": ("embedding.csv", "scree.csv", "manifest.json"),
    "stability": ("report.csv", "manifest.json"),
    "cluster": ("assignments.csv", "bic.csv", "manifest.json"),
}


@dataclass(frozen=True)
class Stage:
    """One CLI call. The expected-outcome table is ``expect_rc`` plus
    ``expect``: "pass" (every stability pair passes) or "cross_fails" (the
    cross-sectional pair fails and every longitudinal pair passes, the
    paper's omnibus contrast). ``digest`` names outputs that must be
    byte-identical between same-seed repetitions."""

    name: str
    args: tuple
    out: str
    expect_rc: int = 0
    expect: str = "pass"
    digest: tuple = ()


class SimulatedSeries:
    """simulate, embed with uase and omnibus, stability of both embeddings
    on the same pairs, then the cluster arguments, if any, on the uase
    embedding. ``config_text`` is written at set-up; without it ``config``
    names a bundled config."""

    def __init__(self, config, dims, pairs, cluster=(), config_text=None):
        self.config, self.dims, self.pairs = config, dims, pairs
        self.cluster, self.config_text = cluster, config_text

    def prepare(self, workdir: Path, seed: int) -> None:
        if self.config_text is not None:
            (workdir / self.config).write_text(self.config_text, encoding="ascii")

    def stages(self, seed: int) -> list:
        s = str(seed)
        config = self.config if self.config_text is None else f"../{self.config}"
        embed = ("--input", "sim/series", "--seed", s, "--method")
        score = ("--truth", "sim/truth.csv") + tuple(
            x for p in self.pairs for x in ("--pair", p))
        chain = [
            Stage("simulate", ("--config", config, "--seed", s), "sim"),
            Stage("embed", embed + ("uase", "--dim", str(self.dims[0])), "emb",
                  digest=("embedding.csv",)),
            Stage("embed", embed + ("omnibus", "--dim", str(self.dims[1])), "omni",
                  digest=("embedding.csv",)),
            Stage("stability", ("--embedding", "emb") + score, "rep"),
            Stage("stability", ("--embedding", "omni") + score, "orep",
                  expect_rc=3, expect="cross_fails"),
        ]
        if self.cluster:
            chain.append(Stage("cluster", ("--embedding", "emb", "--seed", s) + self.cluster,
                               "clus", digest=("assignments.csv",)))
        return chain

    def series_input(self, workdir: Path, rep_dir: Path):
        return rep_dir / "sim" / "series" / "snapshots.npz", ""

    def load_series(self, workdir: Path, rep_dir: Path):
        from dynembed.netseries import GraphSeries

        return GraphSeries.load(rep_dir / "sim" / "series")


class SchoolContacts:
    """embed the raw contact list with uase, then cluster it."""

    def prepare(self, workdir: Path, seed: int) -> None:
        write_school_contacts(workdir / "contacts.txt", seed)

    def stages(self, seed: int) -> list:
        s = str(seed)
        ingest = tuple(x for k, v in SCHOOL_INGEST.items()
                       for x in (f"--{k.replace('_', '-')}", f"{v:g}"))
        return [
            Stage("embed", ("--input", "../contacts.txt", "--method", "uase",
                            "--dim", "10", "--seed", s) + ingest,
                  "emb", digest=("embedding.csv",)),
            Stage("cluster", ("--embedding", "emb", "--grid", "15",
                              "--restarts", "1", "--seed", s),
                  "clus", digest=("assignments.csv",)),
        ]

    def series_input(self, workdir: Path, rep_dir: Path):
        return workdir / "contacts.txt", repr(sorted(SCHOOL_INGEST.items()))

    def load_series(self, workdir: Path, rep_dir: Path):
        from dynembed.netseries import ingest_edge_list

        return ingest_edge_list(workdir / "contacts.txt", **SCHOOL_INGEST)


WORKLOADS = {
    "fourblock_cli": SimulatedSeries(
        "fourblock", (4, 7), ("4:1/4:2", "1:2/2:2"),
        cluster=("--grid", "2-8", "--restarts", "5")),
    "dsbm_large_cli": SimulatedSeries(
        "dsbm.cfg", (3, 3),
        (f"2:1/2:{DSBM_SNAPSHOTS}", f"1:{DSBM_SNAPSHOTS}/3:{DSBM_SNAPSHOTS}"),
        config_text=dsbm_config_text()),
    "school_contacts_cli": SchoolContacts(),
}
