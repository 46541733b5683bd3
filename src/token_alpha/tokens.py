"""2-token graphs.

The 2-token graph of a base graph G has one vertex per 2-subset of V(G);
two subsets are adjacent exactly when their symmetric difference is an
edge of G.  Token vertices are indexed in lexicographic order of their
pairs, so witnesses and exported files are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ParameterError
from .fileio import render_graph
from .graphs import Graph, VertexSet

TokenPair = tuple[int, int]


@dataclass(frozen=True)
class TokenGraph:
    """F2-style token graph plus the pair <-> index maps both ways.  The
    maps are shared by all token graphs of one base order; treat them as
    read-only."""

    base: Graph
    graph: Graph
    pairs: tuple[TokenPair, ...]
    index_of: dict[TokenPair, int] = field(compare=False)

    def pair_of(self, index: int) -> TokenPair:
        return self.pairs[index]

    def indices_of(self, pair_set) -> VertexSet:
        """Map a collection of base-vertex pairs to token-vertex indices."""
        lookup = self.index_of
        idx = []
        for a, b in pair_set:
            key = (a, b) if a < b else (b, a)
            if key not in lookup:
                raise ParameterError(f"{key} is not a 2-subset of the base vertices")
            idx.append(lookup[key])
        return VertexSet.of(self.graph.order, idx)


@lru_cache(maxsize=32)
def _pair_tables(order: int) -> tuple[tuple[TokenPair, ...], dict[TokenPair, int]]:
    """The 2-subsets of 0..order-1 in lexicographic order and their index
    dict.  Both depend only on the order, so every token graph of that
    order shares the same two objects: nothing may mutate them."""
    pairs = tuple(itertools.combinations(range(order), 2))
    return pairs, {p: i for i, p in enumerate(pairs)}


def build_f2(g: Graph) -> TokenGraph:
    """Construct the 2-token graph of g.

    Token vertices {a,x} and {b,x} are adjacent iff ab is an edge of g;
    pairs with symmetric difference of size 4 are never adjacent.  Each
    base edge contributes one token edge per choice of third vertex, so
    the token graph has exactly (|V|-2)*|E| edges.  The result's ``pairs``
    and ``index_of`` are shared with every token graph of the same order
    and must not be mutated.
    """
    if g.order < 2:
        raise ParameterError(f"token graph requires base order >= 2, got {g.order}")
    pairs, index = _pair_tables(g.order)
    edges = []
    for a, b in g.sorted_edges():
        for w in range(g.order):
            if w == a or w == b:
                continue
            pa = (a, w) if a < w else (w, a)
            pb = (b, w) if b < w else (w, b)
            edges.append((index[pa], index[pb]))
    # Already canonical: index[pa] < index[pb] whether w < a, a < w < b or
    # w > b, and each (base edge, w) gives a different token edge.
    token = Graph(len(pairs), frozenset(edges))
    return TokenGraph(base=g, graph=token, pairs=pairs, index_of=index)


@dataclass(frozen=True)
class JoinPartition:
    """Token vertices split by side when the base graph is a join G1 + G2:
    both elements in G1 (b1), both in G2 (b2), or one in each (r)."""

    b1: VertexSet
    b2: VertexSet
    r: VertexSet


def join_partition(tg: TokenGraph, split: int) -> JoinPartition:
    """Partition token vertices of a join base graph, G1 = vertices below split."""
    n = tg.base.order
    if not 0 < split < n:
        raise ParameterError(f"split must satisfy 0 < split < {n}, got {split}")
    b1, b2, r = [], [], []
    for i, (a, b) in enumerate(tg.pairs):
        if b < split:
            b1.append(i)
        elif a >= split:
            b2.append(i)
        else:
            r.append(i)
    order = tg.graph.order
    return JoinPartition(VertexSet.of(order, b1), VertexSet.of(order, b2),
                         VertexSet.of(order, r))


def render_token_graph(tg: TokenGraph) -> str:
    """Edge-list text for the token graph, with one comment line per vertex mapping."""
    comments = [f"pair {i} = {{{a},{b}}}" for i, (a, b) in enumerate(tg.pairs)]
    return render_graph(tg.graph, comments)
