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


def parse_graph(text: str) -> Graph:
    """Parse a native edge-list or DIMACS graph; raises ParseError with line numbers."""
    order = None
    declared_edges = None
    base = 0  # the number of the first vertex: 1 in DIMACS files
    edges = []
    p_seen_at = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if p_seen_at is not None:
                raise ParseError("duplicate p line", lineno)
            if len(fields) == 4 and fields[1] in ("edge", "edges", "col"):
                base = 1
                fields = ["p", fields[2], fields[3]]
            if len(fields) != 3:
                raise ParseError(f"malformed p line: {line!r}", lineno)
            try:
                order, declared_edges = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"non-integer counts in p line: {line!r}", lineno) from None
            if order < 0 or declared_edges < 0:
                raise ParseError("negative counts in p line", lineno)
            p_seen_at = lineno
        elif fields[0] == "e":
            if p_seen_at is None:
                raise ParseError("e line before p line", lineno)
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
        else:
            raise ParseError(f"unrecognized line: {line!r}", lineno)

    if p_seen_at is None:
        raise ParseError("missing p line", 1)
    g = Graph.build(order, edges)
    if g.edge_count != declared_edges:
        raise ParseError(
            f"p line declares {declared_edges} edges but file defines {g.edge_count}",
            p_seen_at)
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
