import hashlib
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from token_alpha import graphs, harness
from token_alpha.graphs import generate, members
from token_alpha.harness import VerdictTally, run_sweep
from token_alpha.report import render_json, render_tsv, row_record, witness_strings
from token_alpha.tokens import build_f2


def _watch_rows(monkeypatch):
    """Make every evaluated row report how many rows, itself included, are
    still alive when it is made; returns the list of those counts."""
    real = harness.evaluate_row
    refs, alive = [], []

    def watched(*args, **kwargs):
        row = real(*args, **kwargs)
        refs.append(weakref.ref(row))
        alive.append(sum(ref() is not None for ref in refs))
        return row

    monkeypatch.setattr(harness, "evaluate_row", watched)
    return alive


@pytest.mark.parametrize("render", [render_tsv, render_json], ids=["tsv", "json"])
def test_a_sweep_holds_at_most_two_rows(monkeypatch, render):
    # while a row is evaluated, only the one before it may still be alive:
    # nothing between evaluation and the renderer keeps rows
    alive = _watch_rows(monkeypatch)
    tally = VerdictTally(run_sweep("path_union", m_range=(2, 6)))
    text = render(tally)
    assert len(alive) == 2 + 4 + 8 + 16 + 32
    assert max(alive) <= 2
    assert tally.counts == {"AGREE": 62, "DISAGREE": 0, "ABORTED": 0}
    assert tally.exit_code == 0
    assert "agree=62" in text or json.loads(text)["summary"]["agree"] == 62


def test_json_records_carry_the_witnesses_their_digests_hash():
    rows = [harness.evaluate_row(spec) for spec in (graphs.fan(2, 4), graphs.path_union((2, 1)))]
    for record in json.loads(render_json(rows))["rows"]:
        construction, solver = record["construction"], record["solver"]
        assert len(construction["witness"]) == construction["size"]
        assert len(solver["witness"]) == solver["size"]
        digest = hashlib.sha256(json.dumps(construction["witness"]).encode()).hexdigest()
        assert construction["digest"] == digest[:12]


@st.composite
def pair_tables_and_masks(draw):
    order = draw(st.integers(2, 12))
    pairs = build_f2(generate(graphs.empty(order))).pairs
    return pairs, draw(st.integers(0, (1 << len(pairs)) - 1))


@given(pair_tables_and_masks())
@settings(max_examples=200, deadline=None)
def test_witness_strings_come_out_in_sorted_pair_order(table_and_mask):
    # token indices follow lexicographic pair order, so reading a mask's
    # members in index order gives the sorted list with no sort
    pairs, mask = table_and_mask
    expected = [f"{{{a},{b}}}" for a, b in sorted(pairs[i] for i in members(mask))]
    assert witness_strings(pairs, mask) == expected


@pytest.mark.parametrize("render", [render_tsv, render_json], ids=["tsv", "json"])
def test_renderers_read_any_iterable_once(render):
    rows = [harness.evaluate_row(graphs.fan(2, m)) for m in (2, 3)]
    assert render(iter(rows)) == render(rows) == render(tuple(rows))


@pytest.mark.parametrize("specs", [(), (graphs.fan(2, 3),),
                                   (graphs.path_union((2, 1)), graphs.fan(4, 6))],
                         ids=["empty", "one", "two"])
@pytest.mark.parametrize("extra", [None, {"config": {"family": "fan", "methods": ["solver"]}}],
                         ids=["bare", "config"])
def test_json_report_is_the_indent_2_dump_of_its_document(specs, extra):
    # each record is written as its row goes by, yet the bytes are those of
    # one json.dumps over the whole document, the empty rows array included;
    # fan(4,6) aborts at budget 1, so its row has no solver record
    rows = [harness.evaluate_row(spec, node_budget=1) for spec in specs]
    tally = VerdictTally(rows)
    doc = {"rows": [row_record(row) for row in tally], "summary": {
        "agree": tally.counts["AGREE"], "disagree": tally.counts["DISAGREE"],
        "aborted": tally.counts["ABORTED"]}, **(extra or {})}
    assert render_json(rows, extra) == json.dumps(doc, indent=2) + "\n"


_LEAN_IMPORT_SCRIPT = r"""
import io, json, os, sys
from contextlib import redirect_stdout

import random
if "_hashlib" in sys.modules:
    print(json.dumps({"skip": "import random alone loads _hashlib on this build"}))
    sys.exit()

from token_alpha import cli

def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0, (argv, code)
    return buf.getvalue()

def digest_modules():
    return sorted({"hashlib", "_hashlib"} & set(sys.modules))

graph_file = os.path.join(sys.argv[1], "wheel.txt")
run("sweep", "--family", "wheel", "--n-range", "1..2", "--m-range", "3..5")
run("alpha", "--family", "fan", "--n", "2", "--m", "3")
run("lemma-check", "--n", "3", "--family", "path", "--m", "4", "--trials", "20")
run("export", "--family", "wheel", "--n", "2", "--m", "5", "--out", graph_file)
run("import", graph_file)
lean = digest_modules()
doc = json.loads(run("sweep", "--family", "wheel", "--n-range", "1..2", "--m-range", "3..5",
                     "--format", "json"))
print(json.dumps({"lean": lean, "after_json": digest_modules(),
                  "digests": [row["construction"]["digest"] for row in doc["rows"]]}))
"""


def test_only_json_reports_load_the_digest_stack(tmp_path):
    # a fresh interpreter: pytest and hypothesis have imported hashlib here
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-S", "-c", _LEAN_IMPORT_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    if "skip" in result:
        pytest.skip(result["skip"])
    assert result["lean"] == []
    assert "hashlib" in result["after_json"]
    assert len(result["digests"]) == 6
    assert all(re.fullmatch(r"[0-9a-f]{12}", d) for d in result["digests"])


_RECORD_IMPORT_SCRIPT = r"""
import io, sys
from contextlib import redirect_stdout

from token_alpha import cli

with redirect_stdout(io.StringIO()):
    code = cli.main(["sweep", "--family", "wheel", "--n-range", "1..3", "--m-range", "3..8"])
assert code == 0, code
print(" ".join(sorted({"dataclasses", "inspect", "ast", "dis"} & set(sys.modules))))
"""


def test_a_tsv_sweep_loads_no_dataclasses_stack():
    # the package's records are tuples or slot classes, so no run pays for
    # dataclasses and the inspect, ast and dis modules it imports
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-S", "-c", _RECORD_IMPORT_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
