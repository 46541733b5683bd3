"""Simple undirected graphs, the family generators, and graph operators.
``generate`` is the one place a family spec becomes a labelled graph: the
joins through ``join``, everything else through ``Graph.build``.

Vertices are always 0..order-1.  A graph is stored as its adjacency
bitsets, one int per vertex, which is the form every reader of a graph
uses; edge lists are read from them on demand.  A vertex set is a
bitmask in the same form, bit v set iff v is a member, and ``members``
lists a mask's members in ascending order.  ``path_walks`` is the one
reader of the paths a vertex set induces: the constructions take the
paths of H - S2 from it, and ``cycle_or_path_generators`` the cycle or
path side it reflects.  All values are immutable after construction and
safe to share.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import ParameterError


class Graph(NamedTuple):
    """Simple undirected graph on vertices 0..order-1, stored as its
    adjacency bitsets: bit v of ``masks[u]`` is set iff uv is an edge.

    ``build`` is the checked way in from an edge list.  The other builders
    (``join``, ``tokens.build_f2``) write symmetric, loop-free masks
    directly."""

    masks: tuple[int, ...]

    @classmethod
    def build(cls, order: int, edges) -> "Graph":
        """The graph on 0..order-1 with the given edges, each in either
        orientation and possibly repeated.  Rejects a negative order, a
        self-loop and an endpoint outside 0..order-1."""
        if order < 0:
            raise ParameterError(f"order must be non-negative, got {order}")
        masks = [0] * order
        for u, v in edges:
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            if not (0 <= u < order and 0 <= v < order):
                raise ParameterError(f"edge ({u},{v}) endpoint out of range for order {order}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(tuple(masks))

    @property
    def order(self) -> int:
        return len(self.masks)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    def sorted_edges(self) -> list[tuple[int, int]]:
        """The edges as (low, high) tuples, in increasing order: each u
        with its neighbours above u."""
        return [(u, v) for u, mask in enumerate(self.masks)
                for v in members(mask >> u + 1 << u + 1)]


def twin_class_of(g: Graph) -> tuple[int, ...]:
    """Each vertex's twin class in g, as a mask: the vertices whose open
    neighbourhood equals its own (false twins, pairwise non-adjacent) or
    whose closed neighbourhood equals its own (true twins, pairwise
    adjacent), or the vertex's own bit when it has no twin.

    Any permutation inside one class is an automorphism of g.  The classes
    are disjoint: were u a false twin of v and a true twin of w, then w in
    N(u) = N(v) would put v in N[w] = N[u], so v in N(u) = N(v).  So at
    most one of a vertex's two neighbourhoods is shared, and its class is
    the larger of the two.
    """
    by_hood: dict[tuple[bool, int], int] = {}
    for v, mask in enumerate(g.masks):
        for key in ((False, mask), (True, mask | 1 << v)):
            by_hood[key] = by_hood.get(key, 0) | 1 << v
    return tuple(max(by_hood[False, mask], by_hood[True, mask | 1 << v], key=int.bit_count)
                 for v, mask in enumerate(g.masks))


def path_walks(g: Graph, vertices: int) -> tuple[list[list[int]], int]:
    """The paths of g induced on the vertex bitmask ``vertices``, each as a
    walk of its vertices, and the mask of the vertices walked.

    Vertices are visited in ascending order; a walk starts at each vertex
    not yet walked that has at most one neighbour in ``vertices``, and
    steps on while exactly one unwalked neighbour is left.  So each path
    is walked from its lower-labelled end (an isolated vertex is a walk of
    one), and the walks come in ascending order of their first vertex.
    The parity set of an even-length walk depends on its direction, so
    starting low keeps the witnesses built on these walks fixed, and it is
    what fixes the reflection ``cycle_or_path_generators`` returns.

    A walk ends before it would step into a vertex with three or more
    neighbours in ``vertices``, so no such vertex is ever walked, and a
    component that is a cycle has no vertex to start from.  So
    ``walked == vertices`` holds exactly when the induced subgraph is a
    union of paths, and then the walks are exactly its components: the
    star K_{1,3} leaves its centre unwalked, as [[1], [2], [3]] with 0 its
    centre.
    """
    adj = g.masks
    walks, walked = [], 0
    for v in range(g.order):
        if not (vertices ^ walked) >> v & 1 or (adj[v] & vertices).bit_count() > 1:
            continue
        walk, step = [], 1 << v
        while step and not step & (step - 1):   # exactly one way on
            u = step.bit_length() - 1
            if (adj[u] & vertices).bit_count() > 2:
                break
            walk.append(u)
            walked |= step
            step = adj[u] & vertices & ~walked
        walks.append(walk)
    return walks, walked


def cycle_or_path_generators(g: Graph, class_of: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Generators of the rotations and reflections of g's cycle or path
    side, each a permutation p of g's vertices (v goes to p[v]); class_of
    is g's ``twin_class_of``.

    The side is what is left once every vertex adjacent to all vertices
    outside its own twin class is removed: the C_m of a wheel E_n + C_m,
    the P_m of a fan E_n + P_m, all of a cycle or a path.  A removed vertex
    is adjacent to the whole side, and twins are removed together, so any
    automorphism of the side, fixing every removed vertex, is one of g.
    A side whose every vertex has two side neighbours is read as a cycle
    and cut at its lowest vertex c_0; the rest is walked by ``path_walks``
    (from the lower of c_0's neighbours), and when that is one path the
    cycle c_0 .. c_{k-1} gives the rotation c_i -> c_{i+1} and the
    reflection c_i -> c_{-i} (indices mod k), which generate its dihedral
    group.  A side that is no cycle and that ``path_walks`` reads as one
    path, walked from its lower end, gives its reversal.  Every other
    side, none included, gives no generator: one walk covers the side
    only if it has no chord and no vertex of degree 3 or more.  Every
    permutation is checked as an automorphism of g before it is returned.
    """
    everything = (1 << g.order) - 1
    side = 0
    for v, (mask, twins) in enumerate(zip(g.masks, class_of)):
        if everything & ~(mask | twins):
            side |= 1 << v
    cyclic = all((g.masks[v] & side).bit_count() == 2 for v in members(side))
    cut = side & -side if cyclic else 0
    walks, walked = path_walks(g, side ^ cut)
    if len(walks) != 1 or walked != side ^ cut:
        return ()
    walk = members(cut) + walks[0]
    k = len(walk)
    if cut:
        moves = [{walk[i]: walk[(i + 1) % k] for i in range(k)},
                 {walk[i]: walk[-i] for i in range(k)}]
    else:
        moves = [dict(zip(walk, reversed(walk)))]
    out = []
    for move in moves:
        p = tuple(move.get(v, v) for v in range(g.order))
        if all(sum(1 << p[x] for x in members(mask)) == g.masks[p[v]]
               for v, mask in enumerate(g.masks)):
            out.append(p)
    return tuple(out)


def members(mask: int) -> list[int]:
    """The members of a vertex-set bitmask, which is non-negative, in
    ascending order."""
    out = []
    while mask:
        v = mask.bit_length() - 1
        out.append(v)
        mask ^= 1 << v
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Family specifications
# ---------------------------------------------------------------------------

# Every named family kind: its parameters, in order, each with its least
# value.  A path union's least value holds for each of its parts.
FAMILIES = {
    "path": {"m": 1},
    "cycle": {"m": 3},
    "empty": {"m": 1},
    "complete": {"m": 1},
    "path_union": {"parts": 1},
    "fan": {"n": 1, "m": 1},
    "wheel": {"n": 1, "m": 3},
    "split": {"n": 1, "m": 1},
    "complete_bipartite": {"n": 1, "m": 1},
}


class _SpecFields(NamedTuple):
    kind: str
    n: int | None = None
    m: int | None = None
    parts: tuple[int, ...] | None = None


class FamilySpec(_SpecFields):
    """Symbolic description of one graph-family instance.

    Exactly the parameters ``FAMILIES`` lists for ``kind`` are set, none
    below its least value there, and ``parts`` is stored as a tuple.  The
    check runs when the spec is built, however it is built, so no spec
    outside its family's range exists.
    """

    __slots__ = ()

    def __new__(cls, kind: str, n: int | None = None, m: int | None = None, parts=None):
        if kind not in FAMILIES:
            raise ParameterError(f"unknown family kind {kind!r}")
        params = FAMILIES[kind]
        given = {"n": n, "m": m, "parts": parts}
        for name, value in given.items():
            if (value is None) == (name in params):
                need = "requires" if name in params else "takes no"
                raise ParameterError(f"{kind} spec {need} {name}")
        if parts is not None:
            parts = tuple(parts)
            if not parts:
                raise ParameterError("path_union requires at least one part")
        for name, least in params.items():
            for i, value in enumerate(parts if name == "parts" else (given[name],)):
                if value < least:
                    label = f"parts[{i}]" if name == "parts" else name
                    raise ParameterError(f"{kind} requires {label} >= {least}, got {value}")
        return super().__new__(cls, kind, n, m, parts)

    _make = classmethod(lambda cls, values: cls(*values))   # checked; _replace calls it

    @property
    def order(self) -> int:
        """The order of the graph ``generate`` builds for this spec."""
        if self.kind == "path_union":
            return sum(self.parts)
        return self.m + (self.n or 0)

    def label(self) -> str:
        if self.kind == "path_union":
            return f"path_union({','.join(map(str, self.parts))})"
        if self.n is not None:
            return f"{self.kind}(n={self.n},m={self.m})"
        return f"{self.kind}(m={self.m})"


def path(m: int) -> FamilySpec:
    return FamilySpec("path", m=m)


def cycle(m: int) -> FamilySpec:
    return FamilySpec("cycle", m=m)


def empty(m: int) -> FamilySpec:
    return FamilySpec("empty", m=m)


def complete(m: int) -> FamilySpec:
    return FamilySpec("complete", m=m)


def path_union(parts) -> FamilySpec:
    return FamilySpec("path_union", parts=parts)


def fan(n: int, m: int) -> FamilySpec:
    return FamilySpec("fan", n=n, m=m)


def wheel(n: int, m: int) -> FamilySpec:
    return FamilySpec("wheel", n=n, m=m)


def split(n: int, m: int) -> FamilySpec:
    return FamilySpec("split", n=n, m=m)


def complete_bipartite(n: int, m: int) -> FamilySpec:
    return FamilySpec("complete_bipartite", n=n, m=m)


# The join families E_n + H, each with the kind of its H side.
JOIN_H_KIND = {"fan": "path", "wheel": "cycle", "split": "complete",
               "complete_bipartite": "empty"}


# ---------------------------------------------------------------------------
# Generators and operators
# ---------------------------------------------------------------------------

# Generators of the one-parameter kinds, which are also the H sides of the joins.
_GRAPH_OF_M = {
    "path": lambda m: Graph.build(m, [(i, i + 1) for i in range(m - 1)]),
    "cycle": lambda m: Graph.build(m, [(i, (i + 1) % m) for i in range(m)]),
    "empty": lambda m: Graph.build(m, []),
    "complete": lambda m: Graph.build(m, itertools.combinations(range(m), 2)),
}


def generate(spec: FamilySpec) -> Graph:
    """Materialize a family spec as a concrete graph.  This labelling is the
    one every witness, sweep row and exported file refers to.

    Paths and cycles are numbered consecutively along the path/cycle; a path
    union numbers its parts consecutively in the order given, each part's
    edges joining consecutive labels.  E_n + H places the E_n side at
    0..n-1 and H, in its own labelling, after it.  No walk or part list is
    kept beside the graph: the constructions read the paths off its
    adjacency bitsets through ``path_walks``.
    """
    kind = spec.kind
    if kind == "path_union":
        starts = itertools.accumulate(spec.parts, initial=0)
        edges = [(v, v + 1) for s, p in zip(starts, spec.parts) for v in range(s, s + p - 1)]
        return Graph.build(sum(spec.parts), edges)
    if kind in JOIN_H_KIND:
        return join(Graph.build(spec.n, []), _GRAPH_OF_M[JOIN_H_KIND[kind]](spec.m))
    return _GRAPH_OF_M[kind](spec.m)


def join(g1: Graph, g2: Graph) -> Graph:
    """Join of two graphs: g2 shifted past g1, plus every cross edge."""
    shift = g1.order
    all1 = (1 << shift) - 1
    all2 = ((1 << g2.order) - 1) << shift
    return Graph(tuple(mask | all2 for mask in g1.masks)
                 + tuple(mask << shift | all1 for mask in g2.masks))

