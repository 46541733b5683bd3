import pytest
from hypothesis import given, strategies as st

from token_alpha import graphs
from token_alpha.errors import ParseError
from token_alpha.fileio import parse_graph, read_text, render_graph
from token_alpha.graphs import Graph, generate
from token_alpha.tokens import build_f2, render_token_graph


def test_render_path_3():
    g = generate(graphs.path(3))
    assert render_graph(g) == "p 3 2\ne 0 1\ne 1 2\n"


def test_round_trip_token_graph_of_c5():
    tg = build_f2(generate(graphs.cycle(5)))
    assert parse_graph(render_graph(tg.graph)) == tg.graph


def test_dimacs_one_indexed_is_normalized():
    text = "c a DIMACS file\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
    g = parse_graph(text)
    assert g == generate(graphs.path(4))


def test_token_export_carries_pair_mapping():
    tg = build_f2(generate(graphs.path(3)))
    text = render_token_graph(tg)
    assert "c pair 0 = {0,1}" in text
    assert "c pair 2 = {1,2}" in text
    assert parse_graph(text) == tg.graph


@pytest.mark.parametrize("text,bad_line", [
    ("e 0 1\n", 1),                       # edge before header
    ("p 3\n", 1),                         # malformed p line
    ("p 3 1\ne 0 5\n", 2),                # endpoint out of range
    ("p 3 1\ne 0 zero\n", 2),             # non-integer endpoint
    ("p 3 2\ne 0 1\n", 1),                # declared count mismatch
    ("p 3 1\nx 0 1\n", 2),                # unknown directive
    ("c only a comment\n", 1),            # no p line at all
    ("p 3 1\ne 1 1\n", 2),                # self-loop
])
def test_parse_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert err.value.line == bad_line


@pytest.mark.parametrize("text,message", [
    ("p 3 1\ne 0 5\n", "line 2: endpoint out of range 0..2"),
    ("p 3 1\ne 1 1\n", "line 2: self-loop 1"),
    ("p edge 3 1\ne 1 4\n", "line 2: endpoint out of range 1..3"),
    ("p edge 3 1\ne 0 1\n", "line 2: endpoint out of range 1..3"),
    ("c dimacs\np edge 3 1\ne 2 2\n", "line 3: self-loop 2"),
])
def test_endpoint_errors_use_the_files_own_numbering(text, message):
    # DIMACS files number vertices from 1, so their errors do too
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text,message", [
    ("p 3 0\np 3 0\n", "line 2: duplicate p line"),
    ("p 3 x\n", "line 1: non-integer counts in p line: 'p 3 x'"),
    ("p 3 -1\n", "line 1: negative counts in p line"),
    ("p 3 1\ne 0 1 2\n", "line 2: malformed e line: 'e 0 1 2'"),
])
def test_header_and_edge_line_errors_name_their_fault(text, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert str(err.value) == message


@pytest.mark.parametrize("word", ["edge", "edges", "col"])
def test_every_dimacs_header_word_is_read_one_indexed(word):
    assert parse_graph(f"p {word} 4 3\ne 1 2\ne 2 3\ne 3 4\n") == generate(graphs.path(4))


def test_file_round_trip(tmp_path):
    g = generate(graphs.wheel(2, 4))
    target = tmp_path / "wheel.txt"
    target.write_text(render_graph(g, comments=["wheel(2,4)"]), encoding="utf-8")
    assert parse_graph(read_text(str(target))) == g


def test_a_file_that_is_not_utf8_names_the_line_of_its_first_bad_byte(tmp_path):
    target = tmp_path / "latin1.txt"
    target.write_bytes("c caf\u00e9\np 2 1\ne 0 1\n".encode("utf-8")
                       + "c na\u00efve\n".encode("latin-1"))
    with pytest.raises(ParseError) as err:
        parse_graph(read_text(str(target)))
    assert str(err.value) == "line 4: not UTF-8 text (byte 0xef)"


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return Graph.build(n, edges)


@given(random_graphs())
def test_round_trip_identity(g):
    assert parse_graph(render_graph(g)) == g
