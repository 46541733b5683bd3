"""Correctness gate: checks one command's exit code and report against the
checked-in expected alphas.

A TSV row passes when every alpha it shows (formula, construction,
solver) equals the expected one and its verdict is AGREE, or ABORTED on a
command run at a node budget that is allowed to abort.  An AGREE row must
carry a solver value.  DISAGREE fails, and so does an invalid construction,
which the program reports as DISAGREE.  The rows must be exactly the
expected ones, in order, and the exit code must be 3 when a row aborted
and 0 otherwise.  A lemma-check must pass every trial and exit 0.  The
nodes and millis columns are never compared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from workloads import Command

COLUMNS = ("family", "n", "m", "parts", "formula", "exceptional",
           "construction", "solver", "nodes", "millis", "verdict")
ALPHA_COLUMNS = ((4, "formula"), (6, "construction"), (7, "solver"))
LEMMA_SUMMARY = re.compile(r"^lemma-check .* trials=(\d+) ok=(\d+) ")


@dataclass
class GateResult:
    attempted: int = 0
    aborted: int = 0
    problems: list[str] = field(default_factory=list)


def check(cmd: Command, code: int, text: str) -> GateResult:
    if cmd.trials is not None:
        return _check_lemma(cmd, code, text)
    return _check_rows(cmd, code, text)


def _check_rows(cmd: Command, code: int, text: str) -> GateResult:
    name = " ".join(cmd.argv)
    result = GateResult()
    problems = result.problems
    lines = text.splitlines()
    if len(lines) < 2 or tuple(lines[0].split("\t")) != COLUMNS:
        problems.append(f"{name}: exit {code}, no TSV report")
        return result
    expected = dict(cmd.rows)
    keys = []
    counts = {"AGREE": 0, "DISAGREE": 0, "ABORTED": 0}
    for line in lines[1:-1]:
        cells = line.split("\t")
        if len(cells) != len(COLUMNS):
            problems.append(f"{name}: malformed row {line!r}")
            continue
        key = " ".join(cells[:4])
        verdict = cells[10]
        keys.append(key)
        result.attempted += 1
        if verdict in counts:
            counts[verdict] += 1
        want = expected.get(key)
        if want is None:
            problems.append(f"{name}: unexpected row {key}")
            continue
        for index, column in ALPHA_COLUMNS:
            if cells[index] != "-" and cells[index] != str(want):
                problems.append(f"{key}: {column} {cells[index]} != expected alpha {want}")
        if verdict == "ABORTED":
            result.aborted += 1
            if not cmd.may_abort:
                problems.append(f"{key}: ABORTED without a node budget")
        elif verdict != "AGREE":
            problems.append(f"{key}: verdict {verdict}")
        elif cells[7] == "-":
            problems.append(f"{key}: AGREE without a solver value")
    if keys != list(expected):
        problems.append(f"{name}: {len(keys)} rows, expected {len(expected)} in order")
    summary = (f"# agree={counts['AGREE']} disagree={counts['DISAGREE']} "
               f"aborted={counts['ABORTED']}")
    if lines[-1] != summary:
        problems.append(f"{name}: summary {lines[-1]!r} does not match rows {summary!r}")
    want_code = 3 if result.aborted else 0
    if code != want_code:
        problems.append(f"{name}: exit {code}, expected {want_code}")
    return result


def _check_lemma(cmd: Command, code: int, text: str) -> GateResult:
    name = " ".join(cmd.argv)
    result = GateResult(attempted=cmd.trials)
    lines = text.splitlines()
    match = LEMMA_SUMMARY.match(lines[-1]) if lines else None
    if match is None:
        result.problems.append(f"{name}: exit {code}, no lemma-check summary")
        return result
    trials, ok = int(match[1]), int(match[2])
    if trials != cmd.trials or ok != trials:
        result.problems.append(f"{name}: ok={ok} of trials={trials}, expected {cmd.trials}")
    if any(line.startswith("FAIL") for line in lines):
        result.problems.append(f"{name}: reports failed trials")
    if code != 0:
        result.problems.append(f"{name}: exit {code}, expected 0")
    return result
