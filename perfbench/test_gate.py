"""Self-test of the benchmark's correctness gate and tracer.

    python3 -m pytest -q perfbench/test_gate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import token_alpha.cli as cli  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402

TABLE = workloads.load_table()
SWEEP = Command(
    ("sweep", "--family", "wheel", "--n-range", "1..2", "--m-range", "3..5"),
    tuple((f"wheel {n} {m} -", TABLE["wheel"][f"{n},{m}"]) for n in (1, 2) for m in (3, 4, 5)))
LEMMA = Command(("lemma-check", "--n", "2", "--family", "path", "--m", "4",
                 "--trials", "20", "--seed", "5"), trials=20)


def cli_output(cmd: Command) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(cmd.argv))
    return code, buf.getvalue()


def edit_cell(text: str, row: int, column: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row].split("\t")
    cells[column] = value
    lines[row] = "\t".join(cells)
    return "\n".join(lines) + "\n"


def problems(cmd, code, text) -> list[str]:
    return gate.check(cmd, code, text).problems


def test_real_reports_pass():
    assert problems(SWEEP, *cli_output(SWEEP)) == []
    assert problems(LEMMA, *cli_output(LEMMA)) == []
    result = gate.check(SWEEP, *cli_output(SWEEP))
    assert (result.attempted, result.aborted) == (6, 0)


def test_one_changed_alpha_fails():
    code, text = cli_output(SWEEP)
    for column in (4, 6, 7):  # formula, construction, solver
        cell = text.splitlines()[3].split("\t")[column]
        bad = edit_cell(text, 3, column, str(int(cell) + 1))
        assert len(problems(SWEEP, code, bad)) == 1


def test_disagree_and_unbudgeted_abort_fail():
    code, text = cli_output(SWEEP)
    assert problems(SWEEP, code, edit_cell(text, 2, 10, "DISAGREE"))
    aborted = edit_cell(edit_cell(text, 2, 7, "-"), 2, 10, "ABORTED")
    aborted = aborted.replace("agree=6 disagree=0 aborted=0", "agree=5 disagree=0 aborted=1")
    assert any("without a node budget" in p for p in problems(SWEEP, 3, aborted))
    budgeted = Command(SWEEP.argv, SWEEP.rows, may_abort=True)
    assert problems(budgeted, 3, aborted) == []
    assert problems(budgeted, 0, aborted) == [f"{' '.join(SWEEP.argv)}: exit 0, expected 3"]


def test_wrong_exit_code_and_missing_row_fail():
    code, text = cli_output(SWEEP)
    assert problems(SWEEP, 1, text)
    lines = text.splitlines()
    assert problems(SWEEP, code, "\n".join(lines[:2] + lines[3:]) + "\n")
    assert problems(SWEEP, code, "") == [f"{' '.join(SWEEP.argv)}: exit 0, no TSV report"]


def test_lemma_needs_every_trial():
    code, text = cli_output(LEMMA)
    assert problems(LEMMA, code, text.replace("ok=20", "ok=19"))
    assert problems(LEMMA, 1, text)


def test_tracer_self_times_add_up_to_root():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli_output(SWEEP)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    roots = [s for s in tracer.spans if s[0] == -1]
    assert [s[1] for s in roots] == ["cli.main"]
    total_self = sum(entry["self_ns"] for entry in summary.values())
    assert total_self == roots[0][3] - roots[0][2]
    assert summary["harness.evaluate_row"]["calls"] == 6
    assert summary["mis.max_independent_set"]["nodes"] > 0
    metrics = tracing.rep_metrics(summary)
    assert metrics["tokens.build_f2.token_vertices"] > 0
    declared = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())
                ["per_layer"]}
    reported = set(metrics) | set(run.traced_values(
        [{"wall_s": 1.0}], [{"wall_s": 1.1, "layers": metrics, "row_ns": [1, 2],
                             "self_sum_s": 1.0}]))
    assert reported == declared
