import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from token_alpha import cli, harness
from token_alpha.cli import main
from token_alpha.errors import ParameterError
from token_alpha.fileio import parse_graph
from token_alpha.formulas import AlphaFormulaResult
from token_alpha.mis import is_independent
from token_alpha.tokens import build_f2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def mask_millis(tsv: str) -> str:
    lines = []
    for line in tsv.splitlines():
        cells = line.split("\t")
        if len(cells) == 11 and not line.startswith("family"):
            cells[9] = "X"
        lines.append("\t".join(cells))
    return "\n".join(lines)


def mask_report(text: str) -> str:
    """The report with its millis masked, in TSV rows and in JSON solver
    records; every other byte is kept."""
    text = re.sub(r'"millis": \d+', '"millis": "X"', text)
    return re.sub(r"^((?:[^\t\n]*\t){9})\d+(?=\t)", r"\g<1>X", text, flags=re.M)


PINNED = Path(__file__).with_name("pinned")
WHEEL_SWEEP = ("sweep", "--family", "wheel", "--n-range", "1..2", "--m-range", "3..5")
PATH_UNION_SWEEP = ("sweep", "--family", "path-union", "--m-range", "2..4")


def test_alpha_fan_row(capsys):
    code, out, _ = run_cli(capsys, "alpha", "--family", "fan", "--n", "2", "--m", "3",
                           "--methods", "formula,solver")
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row[0] == "fan"
    assert row[4] == "4" and row[7] == "4"
    assert row[5] == "yes"
    assert row[-1] == "AGREE"


def test_alpha_path_union_three_methods(capsys):
    code, out, _ = run_cli(capsys, "alpha", "--family", "path-union",
                           "--parts", "3,2")
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row[4] == row[6] == row[7] == "6"


def test_alpha_wheel_exceptional(capsys):
    code, out, _ = run_cli(capsys, "alpha", "--family", "wheel", "--n", "2", "--m", "3")
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row[4] == "3" and row[5] == "yes" and row[7] == "3"


def test_alpha_json_format(capsys):
    code, out, _ = run_cli(capsys, "alpha", "--family", "split", "--n", "3", "--m", "4",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["formula"]["value"] == 5
    assert row["solver"]["size"] == 5
    assert len(row["solver"]["witness"]) == 5
    assert len(row["construction"]["witness"]) == row["construction"]["size"] == 5
    assert doc["summary"] == {"agree": 1, "disagree": 0, "aborted": 0}


def test_alpha_json_deterministic_includes_witness(capsys):
    code, out, _ = run_cli(capsys, "alpha", "--family", "path", "--m", "4",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    witness = doc["rows"][0]["solver"]["witness"]
    assert len(witness) == 4
    assert all(re.fullmatch(r"\{\d+,\d+\}", w) for w in witness)


def test_alpha_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "alpha")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "alpha", "--family", "fan", "--n", "2")
    assert code == 2 and "--m" in err


def test_alpha_unknown_family(capsys):
    code, _, err = run_cli(capsys, "alpha", "--family", "moebius", "--m", "4")
    assert code == 2
    assert "unknown family" in err


def test_alpha_from_file(capsys, tmp_path):
    target = tmp_path / "c5.txt"
    code, _, _ = run_cli(capsys, "export", "--family", "cycle", "--m", "5",
                         "--out", str(target))
    assert code == 0
    code, out, _ = run_cli(capsys, "alpha", "--input", str(target))
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row[0] == "file:c5.txt"
    assert row[7] == "5"


def test_a_deep_search_on_a_file_is_an_aborted_row(capsys, tmp_path):
    # GP(50,2), whose search dives ~600 levels within 600 nodes: run under
    # a limit 300 frames above this one, the budget ends it, as an ABORTED
    # row and exit 3, because the search keeps its open nodes on a list
    # and does not recurse
    edges = [e for i in range(50)
             for e in ((i, (i + 1) % 50), (i, 50 + i), (50 + i, 50 + (i + 2) % 50))]
    target = tmp_path / "gp.txt"
    target.write_text("p 100 150\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 300)
    try:
        code, out, _ = run_cli(capsys, "alpha", "--input", str(target), "--budget", "600")
    finally:
        sys.setrecursionlimit(saved)
    assert code == 3
    rows = out.splitlines()
    assert rows[1].startswith("file:gp.txt\t") and rows[1].endswith("\tABORTED")
    assert rows[-1] == "# agree=0 disagree=0 aborted=1"


def test_alpha_unparsable_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 3 1\ne 9 9\n")
    code, _, err = run_cli(capsys, "alpha", "--input", str(bad))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("order", [0, 1])
def test_alpha_on_a_file_below_order_2_is_a_usage_error(capsys, tmp_path, order):
    # a graph of order 0 or 1 has no token graph, so the row has no value
    tiny = tmp_path / f"k{order}.txt"
    tiny.write_text(f"p {order} 0\n")
    code, out, err = run_cli(capsys, "alpha", "--input", str(tiny))
    assert code == 2
    assert out == ""
    assert err == (f"error: file:k{order}.txt has order {order}; "
                   "no token graph exists below order 2\n")


TOO_WIDE = ("error: token graph of base order {} would have {} vertices, "
            "above the cap of 1000000\n")


def main_in_1gb(*argv) -> subprocess.CompletedProcess:
    """The command line argv in a child process whose address space is
    capped at 1 GB."""
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from token_alpha.cli import main; sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-c", script, *argv],
                          env=env, capture_output=True, text=True, timeout=30)


def alpha_in_1gb(path) -> subprocess.CompletedProcess:
    """``alpha --input path`` in a child process whose address space is
    capped at 1 GB."""
    return main_in_1gb("alpha", "--input", str(path))


def test_a_tiny_file_of_a_huge_order_exits_2_at_once(tmp_path):
    # "p 100000 0" asks for ~5e9 token vertices, ~680 GB of pair tables; it
    # is refused before any is built, so the run fits an address space of
    # 1 GB and ends well within the timeout
    wide = tmp_path / "wide.txt"
    wide.write_text("p 100000 0\n")
    proc = alpha_in_1gb(wide)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == TOO_WIDE.format(100_000, 4_999_950_000)


def test_a_file_whose_order_alone_overflows_memory_exits_2(tmp_path):
    # "p 1000000000 0": one adjacency mask per vertex is ~8 GB before any
    # token graph, so the file is refused from its p line's order, as one
    # error line and exit 2, not a MemoryError's traceback and exit 1
    wide = tmp_path / "wider.txt"
    wide.write_text("p 1000000000 0\n")
    proc = alpha_in_1gb(wide)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == TOO_WIDE.format(1_000_000_000, 499_999_999_500_000_000)


@pytest.mark.parametrize("argv", [
    ("alpha", "--family", "path", "--m", "700"),
    ("sweep", "--family", "path", "--m-range", "690..700"),
], ids=["alpha", "sweep"])
def test_a_row_that_runs_out_of_memory_exits_2(argv):
    # F2(P_700) has 244 650 vertices and passes the token cap, but its
    # adjacency bitsets overflow 1 GB; that is no verdict, so it is one
    # error line and exit 2, not a MemoryError's traceback and exit 1,
    # the code of a DISAGREE
    proc = main_in_1gb(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: out of memory\n"


TOO_MANY = "error: graph of order {} is above the cap of 1000000 vertices\n"


def test_import_refuses_a_file_whose_order_alone_overflows_memory(tmp_path):
    # import's limit is the vertex count no graph the program writes
    # exceeds, read from the p line before a mask per vertex is allocated
    wide = tmp_path / "wider.txt"
    wide.write_text("p 1000000000 0\n")
    proc = main_in_1gb("import", str(wide))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == TOO_MANY.format(1_000_000_000)


def test_export_refuses_a_family_whose_order_alone_overflows_memory():
    proc = main_in_1gb("export", "--family", "empty", "--m", "1000000000")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == TOO_MANY.format(1_000_000_000)


def test_a_family_row_of_a_huge_order_exits_2(capsys):
    code, out, err = run_cli(capsys, "alpha", "--family", "empty", "--m", "20000")
    assert (code, out) == (2, "")
    assert err == TOO_WIDE.format(20_000, 199_990_000)


@pytest.mark.parametrize("argv, order", [
    (("alpha", "--family", "complete", "--m", "20000"), 20_000),
    (("sweep", "--family", "split", "--n-range", "2..2", "--m-range", "20000..20000"), 20_002),
    (("export", "--family", "complete", "--m", "20000", "--token"), 20_000),
    (("lemma-check", "--n", "3", "--family", "complete", "--m", "20000"), 20_003),
], ids=["alpha", "sweep", "export", "lemma-check"])
def test_a_huge_family_spec_is_refused_before_its_graph_is_built(capsys, argv, order):
    # K_20000 alone has ~2e8 edges, and building it edge by edge before the
    # token graph's cap refused it took ~40 s; the spec's order is checked first
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == TOO_WIDE.format(order, order * (order - 1) // 2)


def test_a_formula_only_row_builds_no_graph(capsys):
    # K_20000 alone has ~2e8 edges; its closed form needs none of them
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "alpha", "--family", "complete", "--m", "20000",
                           "--methods", "formula")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[1].split("\t")[4] == "10000"
    code, out, err = run_cli(capsys, "alpha", "--family", "complete", "--m", "1",
                             "--methods", "formula")
    assert (code, out) == (2, "")
    assert err == "error: complete(m=1) has order 1; no token graph exists below order 2\n"


def test_an_edgeless_file_below_the_cap_still_solves(capsys, tmp_path):
    # 124 750 token vertices, every one folded at the root
    wide = tmp_path / "e500.txt"
    wide.write_text("p 500 0\n")
    code, out, _ = run_cli(capsys, "alpha", "--input", str(wide))
    assert code == 0
    assert out.splitlines()[1].split("\t")[7:9] == ["124750", "1"]


@pytest.mark.parametrize("command", ["alpha --input", "import"])
def test_a_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path, command):
    # a malformed file, not a disagreement: exit 2 with the line of the byte
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"p 3 1\ne 0 \xff\n")
    code, out, err = run_cli(capsys, *command.split(), str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: line 2: not UTF-8 text (byte 0xff)\n"


def test_sweep_fan_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "fan",
                           "--n-range", "1..5", "--m-range", "2..7",
                           "--methods", "formula,solver")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 30 + 1
    assert lines[-1] == "# agree=30 disagree=0 aborted=0"


def test_sweep_empty_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--family", "fan",
                           "--n-range", "5..1", "--m-range", "2..3")
    assert code == 2
    assert "empty n range" in err


def test_sweep_bad_range_syntax(capsys):
    code, _, err = run_cli(capsys, "sweep", "--family", "path", "--m-range", "2-5")
    assert code == 2
    assert "expected A..B" in err


def test_disagree_exit_code(capsys, monkeypatch):
    def wrong_formula(spec):
        return AlphaFormulaResult(999, False, "bogus")

    monkeypatch.setattr(harness, "alpha_closed_form", wrong_formula)
    code, out, _ = run_cli(capsys, "alpha", "--family", "path", "--m", "4",
                           "--methods", "formula,solver")
    assert code == 1
    assert "DISAGREE" in out


def test_a_faulty_construction_is_a_disagree_row_in_a_sweep(capsys, construction_fault):
    code, out, err = run_cli(capsys, "sweep", "--family", "fan", "--n-range", "2..3",
                             "--m-range", "6..8", "--methods", "formula,construction")
    assert code == 1 and err == ""
    lines = out.splitlines()
    rows = [line.split("\t") for line in lines[1:-1]]
    assert [(r[1], r[2]) for r in rows] == [(n, m) for n in "23" for m in "678"]
    disagree = sum(r[-1] == "DISAGREE" for r in rows)
    assert disagree >= 1
    assert lines[-1] == f"# agree={6 - disagree} disagree={disagree} aborted=0"


def test_sweep_budget_abort_exit_code(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "fan",
                           "--n-range", "4..4", "--m-range", "6..6",
                           "--methods", "solver", "--budget", "1")
    assert code == 3
    assert "ABORTED" in out


def test_sweep_deterministic_output(capsys):
    args = ("sweep", "--family", "wheel", "--n-range", "1..2", "--m-range", "3..5")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert mask_millis(out1) == mask_millis(out2)


# one small sweep per construction route; the JSON reports pin every
# construction witness byte
PINNED_SWEEPS = [
    ("sweep_wheel", WHEEL_SWEEP),
    ("sweep_path_union", PATH_UNION_SWEEP),
    ("sweep_fan", ("sweep", "--family", "fan", "--n-range", "1..2", "--m-range", "1..4")),
    ("sweep_split", ("sweep", "--family", "split", "--n-range", "1..2", "--m-range", "1..4")),
    ("sweep_complete_bipartite", ("sweep", "--family", "complete-bipartite",
                                  "--n-range", "1..2", "--m-range", "1..3")),
    ("sweep_path", ("sweep", "--family", "path", "--m-range", "2..6")),
    ("sweep_cycle", ("sweep", "--family", "cycle", "--m-range", "3..7")),
    ("sweep_complete", ("sweep", "--family", "complete", "--m-range", "2..6")),
    ("sweep_empty", ("sweep", "--family", "empty", "--m-range", "2..5")),
]


@pytest.mark.parametrize("name, argv", PINNED_SWEEPS)
@pytest.mark.parametrize("flags, suffix", [((), "tsv"),
                                           (("--format", "json"), "json")])
def test_sweep_report_bytes_are_pinned(capsys, name, argv, flags, suffix):
    # the files hold the reports, with millis masked, as the code wrote them
    # before sweeps streamed their rows (wheel, path union) and before the
    # constructions took the row's own graph (the other seven kinds); a
    # renderer or construction rewrite must keep every byte
    code, out, err = run_cli(capsys, *argv, *flags)
    assert code == 0 and err == ""
    assert mask_report(out) == (PINNED / f"{name}.{suffix}").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv", [
    ("sweep_fan_construction", ("sweep", "--family", "fan", "--n-range", "1..2",
                                "--m-range", "1..4")),
    ("sweep_path_union_construction", PATH_UNION_SWEEP),
])
def test_construction_only_json_reports_are_pinned(capsys, name, argv):
    # with no solver cell, the row's construction witness and digest still
    # come from the pair table of the token graph the row built
    code, out, err = run_cli(capsys, *argv, "--methods", "formula,construction",
                             "--format", "json")
    assert code == 0 and err == ""
    assert out == (PINNED / f"{name}.json").read_text(encoding="utf-8")


def test_sweep_summary_and_exit_code_for_aborts(capsys):
    code, out, _ = run_cli(capsys, *WHEEL_SWEEP, "--budget", "2")
    assert code == 3
    assert out.splitlines()[-1] == "# agree=4 disagree=0 aborted=2"


def test_sweep_summary_and_exit_code_for_a_disagreement(capsys, monkeypatch):
    real = harness.alpha_closed_form

    def wrong_at_m4(spec):
        return AlphaFormulaResult(999, False, "bogus") if spec.m == 4 else real(spec)

    monkeypatch.setattr(harness, "alpha_closed_form", wrong_at_m4)
    code, out, _ = run_cli(capsys, *WHEEL_SWEEP, "--budget", "2")
    assert code == 1
    assert out.splitlines()[-1] == "# agree=3 disagree=1 aborted=2"
    code, out, _ = run_cli(capsys, *WHEEL_SWEEP, "--budget", "2", "--format", "json")
    assert code == 1
    assert json.loads(out)["summary"] == {"agree": 3, "disagree": 1, "aborted": 2}


@pytest.mark.parametrize("flags", [(), ("--out", "report.tsv"),
                                   ("--format", "json", "--out", "report.json")])
def test_sweep_that_fails_part_way_writes_nothing(capsys, monkeypatch, tmp_path, flags):
    real = harness.evaluate_row
    calls = []

    def fails_on_the_third_row(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise ParameterError("third row")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "evaluate_row", fails_on_the_third_row)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *PATH_UNION_SWEEP, *flags)
    assert code == 2
    assert out == "" and err == "error: third row\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_parameters_alpha_rejects(capsys):
    code, out, err = run_cli(capsys, "sweep", "--family", "wheel", "--n-range", "0..1",
                             "--m-range", "2..3", "--methods", "solver")
    assert code == 2
    assert out == ""
    assert "wheel requires n >= 1" in err


@pytest.mark.parametrize("flags", [(), ("--out", "report.tsv")])
def test_sweep_over_a_row_below_order_2_writes_nothing(capsys, monkeypatch, tmp_path, flags):
    # path(1) has no token graph, so even a formula-only sweep has no value
    # to report for it; the sweep used to print it as AGREE and exit 0
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "sweep", "--family", "path", "--m-range", "1..4",
                             "--methods", "formula", *flags)
    assert code == 2
    assert out == "" and list(tmp_path.iterdir()) == []
    assert err == "error: path(m=1) has order 1; no token graph exists below order 2\n"


@pytest.mark.parametrize("argv", [
    ("alpha", "--family", "empty", "--m", "0"),
    ("alpha", "--family", "complete", "--m", "0"),
    ("sweep", "--family", "complete", "--m-range", "0..3"),
    ("lemma-check", "--n", "1", "--family", "empty", "--m", "0"),
    ("lemma-check", "--n", "1", "--family", "complete", "--m", "0"),
], ids=["alpha-empty", "alpha-complete", "sweep-complete", "lemma-empty", "lemma-complete"])
def test_one_parameter_families_name_their_m_flag_in_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    family = argv[argv.index("--family") + 1]
    assert err == f"error: {family} requires m >= 1, got 0\n"


def test_sweep_path_union_compositions(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "path-union",
                           "--m-range", "2..5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + (2 + 4 + 8 + 16) + 1


@pytest.mark.parametrize("m_range", ["-3..-1", "0..1"])
def test_sweep_path_union_rejects_totals_below_one(capsys, m_range):
    # path-union sweeps read the m range as totals; a total below 1 has no
    # composition, so the sweep is a usage error like any bad range
    code, out, err = run_cli(capsys, "sweep", "--family", "path-union",
                             f"--m-range={m_range}")
    assert code == 2
    assert out == ""
    assert f"m range {m_range}" in err


def test_sweep_path_union_rejects_a_total_of_one(capsys):
    # path_union(1) has order 1 and no token graph, so a sweep from total 1
    # is refused before its first row
    code, out, err = run_cli(capsys, "sweep", "--family", "path-union", "--m-range", "1..4")
    assert code == 2
    assert out == ""
    assert err == "error: path_union sweep requires totals >= 2, got m range 1..4\n"


def test_lemma_check_cli(capsys):
    code, out, _ = run_cli(capsys, "lemma-check", "--n", "3", "--family", "path",
                           "--m", "4", "--trials", "200", "--seed", "12")
    assert code == 0
    assert "trials=200 ok=200" in out


def test_lemma_check_small_complete(capsys):
    code, out, _ = run_cli(capsys, "lemma-check", "--n", "2", "--family", "complete",
                           "--m", "3", "--trials", "50", "--seed", "12")
    assert code == 0
    assert "trials=50 ok=50" in out


def test_lemma_check_rejects_empty_side(capsys):
    code, _, err = run_cli(capsys, "lemma-check", "--n", "0", "--family", "path",
                           "--m", "4", "--trials", "3")
    assert code == 2
    assert err.startswith("error: ") and "n >= 1" in err


@pytest.mark.parametrize("argv", [
    ("alpha", "--family", "wheel", "--n", "2", "--m", "5"),
    ("sweep", "--family", "path", "--m-range", "2..4"),
    ("lemma-check", "--n", "2", "--family", "path", "--m", "3", "--trials", "5"),
    ("export", "--family", "wheel", "--n", "2", "--m", "5"),
    ("import", "graph.txt"),
], ids=["alpha", "sweep", "lemma-check", "export", "import"])
def test_out_into_a_missing_directory_writes_nothing(capsys, monkeypatch, tmp_path, argv):
    # main is the one writer: the open fails after the command has run, so
    # nothing reaches stdout and no file or directory is made
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.txt").write_text("p 3 2\ne 0 1\ne 1 2\n")
    code, out, err = run_cli(capsys, *argv, "--out", "missing/r.txt")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert [p.name for p in tmp_path.iterdir()] == ["graph.txt"]


def test_lemma_check_that_fails_writes_no_file(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "lemma-check", "--n", "0", "--family", "path",
                             "--m", "4", "--out", "r.txt")
    assert code == 2
    assert out == "" and err == "error: lemma-check requires n >= 1, got 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, stdout", [
    (("--n", "6", "--family", "path", "--m", "14", "--trials", "300", "--seed", "5"),
     "lemma-check n=6 H=path(m=14) trials=300 ok=300 min_margin=0 mean_margin=8.540\n"),
    (("--n", "5", "--family", "cycle", "--m", "15", "--trials", "200", "--seed", "9"),
     "lemma-check n=5 H=cycle(m=15) trials=200 ok=200 min_margin=1 mean_margin=11.070\n"),
    (("--n", "4", "--family", "complete", "--m", "9", "--trials", "300", "--seed", "3"),
     "lemma-check n=4 H=complete(m=9) trials=300 ok=300 min_margin=0 mean_margin=1.097\n"),
    (("--n", "5", "--family", "empty", "--m", "8", "--trials", "300", "--seed", "4"),
     "lemma-check n=5 H=empty(m=8) trials=300 ok=300 min_margin=0 mean_margin=0.000\n"),
    # S2 runs that wrap round the cycle
    (("--n", "3", "--family", "cycle", "--m", "7", "--trials", "400", "--seed", "5"),
     "lemma-check n=3 H=cycle(m=7) trials=400 ok=400 min_margin=0 mean_margin=1.995\n"),
    # one E_n vertex: S1 is that vertex in every trial
    (("--n", "1", "--family", "cycle", "--m", "6", "--trials", "200", "--seed", "5"),
     "lemma-check n=1 H=cycle(m=6) trials=200 ok=200 min_margin=0 mean_margin=0.630\n"),
])
def test_lemma_check_stdout_is_pinned(capsys, argv, stdout):
    code, out, _ = run_cli(capsys, "lemma-check", *argv)
    assert code == 0
    assert out == stdout


def test_a_faulty_associated_set_fails_lemma_check(capsys, construction_fault):
    code, out, err = run_cli(capsys, "lemma-check", "--n", "3", "--family", "path",
                             "--m", "8", "--trials", "20", "--seed", "1")
    assert code == 1 and err == ""
    *fails, summary = out.splitlines()
    assert fails and all(line.startswith("FAIL ") and "independent=False" in line
                         for line in fails)
    assert f"trials=20 ok={20 - len(fails)} " in summary


def test_lemma_check_has_no_budget_flag(capsys):
    # the trials never call the solver, so argparse rejects --budget
    with pytest.raises(SystemExit) as exit_info:
        main(["lemma-check", "--n", "2", "--family", "path", "--m", "3",
              "--trials", "2", "--budget", "5"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --budget 5" in captured.err


@pytest.mark.parametrize("argv", [
    ("alpha", "--family", "fan", "--n", "2", "--m", "3", "--format", "json"),
    ("sweep", "--family", "fan", "--n-range", "2..2", "--m-range", "3..3", "--format", "json"),
])
def test_json_reports_have_no_witness_flag(capsys, argv):
    # JSON always carries the witnesses, so argparse rejects --deterministic
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--deterministic"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --deterministic" in captured.err


@pytest.mark.parametrize("argv", [
    ("alpha", "--family", "fan", "--n", "2", "--m", "4"),
    ("sweep", "--family", "fan", "--n-range", "1..2", "--m-range", "2..3"),
])
def test_negative_budget_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--budget", "-3")
    assert code == 2
    assert out == ""
    assert err == "error: --budget must be >= 0, got -3\n"


def test_zero_budget_is_legal(capsys):
    code, out, err = run_cli(capsys, "alpha", "--family", "fan", "--n", "2", "--m", "4",
                             "--budget", "0")
    assert code == 3
    assert "ABORTED" in out and err == ""


def test_budget_caps_only_the_solver(capsys):
    code, out, err = run_cli(capsys, "alpha", "--family", "wheel", "--n", "1", "--m", "11",
                             "--methods", "formula,construction", "--budget", "1")
    assert code == 0 and err == ""
    assert out.splitlines()[1].split("\t") == [
        "wheel", "1", "11", "-", "27", "no", "27", "-", "-", "-", "AGREE"]


@pytest.mark.parametrize("argv, flag", [
    (("alpha", "--family", "fan", "--n", "2", "--m", "3", "--parts", "1,2"), "--parts"),
    (("alpha", "--family", "path-union", "--parts", "2,1", "--m", "7"), "--m"),
    (("sweep", "--family", "cycle", "--n-range", "1..2", "--m-range", "3..4"), "--n-range"),
    (("export", "--family", "fan", "--n", "2", "--m", "3", "--parts", "5"), "--parts"),
])
def test_family_flags_the_family_does_not_take_are_usage_errors(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --family {argv[2]} does not take {flag}\n"


@pytest.mark.parametrize("parts, message", [
    ((), "--family path-union requires --parts A,B,..."),
    (("--parts", "2,x"), "cannot parse --parts '2,x'"),
], ids=["missing", "not-integers"])
def test_path_union_parts_errors_are_usage_errors(capsys, parts, message):
    code, out, err = run_cli(capsys, "alpha", "--family", "path-union", *parts)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_a_single_value_range_is_that_value_alone(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--family", "fan", "--n-range", "2",
                           "--m-range", "5")
    assert code == 0
    code, spelled_out, _ = run_cli(capsys, "sweep", "--family", "fan", "--n-range", "2..2",
                                   "--m-range", "5..5")
    assert code == 0
    assert mask_millis(out) == mask_millis(spelled_out)
    assert len(out.splitlines()) == 3


def test_lemma_check_rejects_unknown_h(capsys):
    code, _, err = run_cli(capsys, "lemma-check", "--n", "2", "--family", "wheel",
                           "--m", "3")
    assert code == 2


def test_export_import_round_trip(capsys, tmp_path):
    target = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "export", "--family", "complete-bipartite",
                         "--n", "2", "--m", "3", "--out", str(target))
    assert code == 0
    code, out, _ = run_cli(capsys, "import", str(target))
    assert code == 0
    assert out.startswith("p 5 6\n")


def test_import_dimacs(capsys, tmp_path):
    target = tmp_path / "d.col"
    target.write_text("c comment\np edge 3 2\ne 1 2\ne 2 3\n")
    code, out, _ = run_cli(capsys, "import", str(target))
    assert code == 0
    assert out == "p 3 2\ne 0 1\ne 1 2\n"


def test_export_token_graph(capsys):
    code, out, _ = run_cli(capsys, "export", "--family", "path", "--m", "3", "--token")
    assert code == 0
    assert "c pair 0 = {0,1}" in out
    assert "p 3 2" in out


def test_alpha_witnesses_are_independent_in_the_exported_graph(capsys):
    code, out, _ = run_cli(capsys, "alpha", "--family", "path-union", "--parts", "2,1,1",
                           "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    code, exported, _ = run_cli(capsys, "export", "--family", "path-union",
                                "--parts", "2,1,1")
    assert code == 0
    tg = build_f2(parse_graph(exported))
    for method in ("construction", "solver"):
        pairs = [tuple(map(int, w.strip("{}").split(","))) for w in row[method]["witness"]]
        assert is_independent(tg.graph, tg.indices_of(pairs)), method


def test_file_row_json_carries_the_family_rows_solver_witness(capsys, tmp_path):
    target = tmp_path / "wheel.txt"
    family = ("--family", "wheel", "--n", "2", "--m", "5")
    code, _, _ = run_cli(capsys, "export", *family, "--out", str(target))
    assert code == 0
    code, out, err = run_cli(capsys, "alpha", "--input", str(target), "--format", "json")
    assert code == 0 and err == ""
    row = json.loads(out)["rows"][0]
    assert row["label"] == "file:wheel.txt" and row["construction"] is None
    witness = row["solver"]["witness"]
    assert len(set(witness)) == len(witness) == row["solver"]["size"]
    tg = build_f2(parse_graph(target.read_text(encoding="utf-8")))
    pairs = [tuple(map(int, w.strip("{}").split(","))) for w in witness]
    assert is_independent(tg.graph, tg.indices_of(pairs))
    code, out, _ = run_cli(capsys, "alpha", *family, "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["solver"]["witness"] == witness


def test_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "import", "/nonexistent/file.txt")
    assert code == 2


@pytest.fixture
def c5_file(capsys, tmp_path):
    target = tmp_path / "c5.txt"
    code, _, _ = run_cli(capsys, "export", "--family", "cycle", "--m", "5",
                         "--out", str(target))
    assert code == 0
    return str(target)


@pytest.mark.parametrize("flags, flag", [
    (("--n", "3", "--parts", "1", "--methods", "bogus"), "--n"),
    (("--n", "3"), "--n"),
    (("--m", "5"), "--m"),
    (("--parts", "1"), "--parts"),
    (("--methods", "solver"), "--methods"),
])
def test_input_rows_reject_family_flags(capsys, c5_file, flags, flag):
    code, out, err = run_cli(capsys, "alpha", "--input", c5_file, *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: --input does not take {flag}\n"


def test_complete_20_finishes_within_the_frontier_budget(capsys):
    # twin orbits take F2(K_20) to 9 nodes; the plain search aborts at 100 000
    code, out, _ = run_cli(capsys, "alpha", "--family", "complete", "--m", "20",
                           "--budget", "100000")
    assert code == 0
    assert mask_millis(out).splitlines()[1].split("\t") == [
        "complete", "-", "20", "-", "10", "no", "10", "10", "9", "X", "AGREE"]


_ONE_PROCESS_RUNS = [
    (0, ("alpha", "--family", "fan", "--n", "2", "--m", "5")),
    (2, ("alpha", "--family", "fan", "--n", "two", "--m", "5")),    # argparse rejects it
    (2, ("alpha", "--family", "wheel", "--n", "1", "--m", "2")),    # the spec rejects it
    (0, ("sweep", "--family", "wheel", "--n-range", "1..2", "--m-range", "3..5")),
    (0, ("lemma-check", "--n", "3", "--family", "cycle", "--m", "7", "--trials", "40",
         "--seed", "5")),
    (0, ("alpha", "--family", "fan", "--n", "2", "--m", "5")),      # the first run again
]


def test_one_parser_serves_every_main_call_in_a_process(capsys, monkeypatch):
    # main keeps the parser it builds; each run in one process must read
    # as it does alone in a fresh interpreter, usage errors included
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps its usage to this width
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import token_alpha.cli as cli; print(cli._build_parser.cache_info().currsize)"],
        env=env, capture_output=True, text=True, check=True)
    assert fresh.stdout == "0\n"   # importing the CLI builds no parser
    for expected, argv in _ONE_PROCESS_RUNS:
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "token_alpha.cli", *argv],
                               env=env, capture_output=True, text=True)
        assert code == expected, argv
        assert (code, mask_report(captured.out), captured.err) == (
            alone.returncode, mask_report(alone.stdout), alone.stderr), argv
    assert cli._build_parser.cache_info().currsize == 1
