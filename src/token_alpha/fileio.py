"""Graph text formats.

Native edge-list format: a header line ``p <order> <edge_count>`` followed
by one ``e u v`` line per edge, 0-indexed.  The reader also accepts DIMACS
files (``p edge <n> <m>`` with 1-indexed ``e`` lines) and normalizes them
to 0-indexed graphs.  Comment lines start with ``c``.
"""

from __future__ import annotations

from .errors import ParseError
from .graphs import Graph


def render_graph(g: Graph, comments: list[str] | None = None) -> str:
    """Serialize a graph in the native edge-list format."""
    lines = [f"c {text}" for text in (comments or [])]
    lines.append(f"p {g.order} {g.edge_count}")
    lines += [f"e {u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


def _lines(text: str):
    """(line number, stripped line, its fields) for each line of text that
    is neither blank nor a comment, in file order."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("c"):
            yield lineno, line, line.split()


def _p_line(first: tuple[int, str, list[str]] | None) -> tuple[int, int, int, int]:
    """The line number, order, edge count and first vertex number (1 in
    DIMACS files, else 0) of a file's p line, which must be the first of
    its ``_lines``, given that first one (None for a file without one)."""
    if first is None:
        raise ParseError("missing p line", 1)
    lineno, line, fields = first
    if fields[0] == "e":
        raise ParseError("e line before p line", lineno)
    if fields[0] != "p":
        raise ParseError(f"unrecognized line: {line!r}", lineno)
    dimacs = len(fields) == 4 and fields[1] in ("edge", "edges", "col")
    if len(fields) != 3 + dimacs:
        raise ParseError(f"malformed p line: {line!r}", lineno)
    try:
        order, declared_edges = map(int, fields[1 + dimacs:])
    except ValueError:
        raise ParseError(f"non-integer counts in p line: {line!r}", lineno) from None
    if order < 0 or declared_edges < 0:
        raise ParseError("negative counts in p line", lineno)
    return lineno, order, declared_edges, int(dimacs)


def declared_order(text: str) -> int:
    """The order a graph file's p line declares, read without building the
    graph, so that a caller can refuse a huge order before ``parse_graph``
    allocates a mask per vertex.  A file whose p line is missing or
    malformed raises the ParseError that ``parse_graph`` raises for it."""
    return _p_line(next(_lines(text), None))[1]


def parse_graph(text: str) -> Graph:
    """Parse a native edge-list or DIMACS graph; raises ParseError with line numbers."""
    lines = _lines(text)
    p_lineno, order, declared_edges, base = _p_line(next(lines, None))
    edges = []
    for lineno, line, fields in lines:
        if fields[0] == "p":
            raise ParseError("duplicate p line", lineno)
        if fields[0] != "e":
            raise ParseError(f"unrecognized line: {line!r}", lineno)
        if len(fields) != 3:
            raise ParseError(f"malformed e line: {line!r}", lineno)
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(f"non-integer endpoints: {line!r}", lineno) from None
        if u == v:
            raise ParseError(f"self-loop {u}", lineno)
        if not (base <= u < order + base and base <= v < order + base):
            raise ParseError(f"endpoint out of range {base}..{order - 1 + base}", lineno)
        edges.append((u - base, v - base))

    g = Graph.build(order, edges)
    if g.edge_count != declared_edges:
        raise ParseError(
            f"p line declares {declared_edges} edges but file defines {g.edge_count}",
            p_lineno)
    return g


def read_text(path: str) -> str:
    """The text of a graph file.  A file that is not UTF-8 is malformed:
    a ParseError names the line of its first undecodable byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text (byte 0x{data[exc.start]:02x})", line) from None
