"""The benchmark's workloads: the CLI command lists each one runs, built
from the run's seed, with the answers the correctness gate expects.
Why each workload exists is in BENCHMARK.json and README.md.

The sparse base graph has a fixed, checked-in structure so that its
alpha is known; the seed relabels its vertices.  Relabeling keeps alpha
but changes the solver's search order, so every seed is a different input.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("family-sweep", "frontier-budget", "path-union-sweep", "lemma-check")

FAMILY_GRIDS = (("fan", 1, 6, 2, 12), ("wheel", 1, 6, 3, 12))
PATH_UNION_TOTALS = (2, 12)
DENSE_BUDGET = 100_000
SPARSE_COPIES = 8
SPARSE_BUDGET = 100
LEMMA_RUNS = (("path", 6, 14, 1000), ("cycle", 5, 15, 500))

TABLE_PATH = Path(__file__).with_name("expected_alpha.json")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must show.

    TSV commands list their rows in order as (row key, expected alpha);
    a row key is the first four TSV cells joined by spaces.  A lemma-check
    command instead names the number of trials that must all pass.
    """

    argv: tuple[str, ...]
    rows: tuple[tuple[str, int], ...] = ()
    may_abort: bool = False
    trials: int | None = None


def load_table() -> dict:
    with open(TABLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def compositions(total: int):
    """All compositions of total, in the order the sweep emits them."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def path_union_key(parts) -> str:
    return ",".join(map(str, sorted(parts, reverse=True)))


def _family_sweeps(table: dict) -> list[Command]:
    out = []
    for family, n_lo, n_hi, m_lo, m_hi in FAMILY_GRIDS:
        rows = tuple((f"{family} {n} {m} -", table[family][f"{n},{m}"])
                     for n in range(n_lo, n_hi + 1) for m in range(m_lo, m_hi + 1))
        out.append(Command(("sweep", "--family", family, "--n-range", f"{n_lo}..{n_hi}",
                            "--m-range", f"{m_lo}..{m_hi}"), rows))
    return out


def _path_union_sweep(table: dict) -> list[Command]:
    lo, hi = PATH_UNION_TOTALS
    rows = tuple((f"path_union - - {','.join(map(str, parts))}",
                  table["path_union"][path_union_key(parts)])
                 for total in range(lo, hi + 1) for parts in compositions(total))
    return [Command(("sweep", "--family", "path-union", "--m-range", f"{lo}..{hi}"), rows)]


def write_sparse_copies(table: dict, seed: int, workdir: Path) -> list[Path]:
    """Write SPARSE_COPIES relabelings of the checked-in sparse graph as
    native edge-list files, with vertex labels and edge order drawn from seed."""
    sparse = table["sparse"]
    order = sparse["order"]
    rng = random.Random(f"sparse:{seed}")
    paths = []
    for copy in range(SPARSE_COPIES):
        label = list(range(order))
        rng.shuffle(label)
        edges = [(label[u], label[v]) for u, v in sparse["edges"]]
        rng.shuffle(edges)
        path = workdir / f"sparse-{copy}.txt"
        lines = [f"p {order} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def _frontier(table: dict, seed: int, workdir: Path) -> list[Command]:
    out = [
        Command(("alpha", "--family", "split", "--n", "4", "--m", "11"),
                (("split 4 11 -", table["split"]["4,11"]),)),
        Command(("alpha", "--family", "split", "--n", "5", "--m", "14",
                 "--budget", str(DENSE_BUDGET)),
                (("split 5 14 -", table["split"]["5,14"]),), may_abort=True),
        Command(("alpha", "--family", "complete", "--m", "20", "--budget", str(DENSE_BUDGET)),
                (("complete - 20 -", table["complete"]["20"]),), may_abort=True),
    ]
    for path in write_sparse_copies(table, seed, workdir):
        out.append(Command(
            ("alpha", "--input", str(path), "--budget", str(SPARSE_BUDGET)),
            ((f"file:{path.name} - - -", table["sparse"]["alpha"]),), may_abort=True))
    return out


def _lemma(seed: int) -> list[Command]:
    rng = random.Random(f"lemma:{seed}")
    return [Command(("lemma-check", "--n", str(n), "--family", family, "--m", str(m),
                     "--trials", str(trials), "--seed", str(rng.randrange(2**31))),
                    trials=trials)
            for family, n, m, trials in LEMMA_RUNS]


def build(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Commands for one run of workload; writes any input files into workdir."""
    table = load_table()
    if workload == "family-sweep":
        return _family_sweeps(table)
    if workload == "frontier-budget":
        return _frontier(table, seed, workdir)
    if workload == "path-union-sweep":
        return _path_union_sweep(table)
    if workload == "lemma-check":
        return _lemma(seed)
    raise ValueError(f"unknown workload {workload!r}")
