"""2-token graphs.

The 2-token graph of a base graph G has one vertex per 2-subset of V(G);
two subsets are adjacent exactly when their symmetric difference is an
edge of G.  Token vertices are indexed in lexicographic order of their
pairs, so witnesses and exported files are reproducible.  A set of token
vertices is a bitmask over those indices, as every vertex set is
(``graphs.members``), and ``JoinPartition``'s three sides are three.

Over base order N the index of {x,y}, x < y, is ``first[x] + y - x - 1``
with ``first[x] = x(2N - x - 1)/2``: the pairs {x,y > x} are one run of
indices.  So a set of pairs given as partner rows, one base mask per
vertex, becomes its token mask by one shift per base vertex
(``partner_rows_mask``); the constructions build their sets that way.
``TokenGraph.indices_of`` maps a collection of pairs to a mask one pair
at a time, for callers that hold pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterError
from .fileio import render_graph
from .graphs import Graph

TokenPair = tuple[int, int]


@dataclass(frozen=True)
class TokenGraph:
    """F2-style token graph plus its pair <-> index tables: ``pairs[i]`` is
    the pair of token vertex i, and ``through[x][w]`` is the index of
    {x,w} (-1 at w = x).  Both tables are shared by all token graphs of one
    base order."""

    base: Graph
    graph: Graph
    pairs: tuple[TokenPair, ...]
    through: tuple[tuple[int, ...], ...]

    def indices_of(self, pair_set) -> int:
        """The bitmask of the token vertices of a collection of base-vertex
        pairs, each in either orientation; a repeated pair counts once."""
        through = self.through
        order = len(through)
        mask = 0
        for a, b in pair_set:
            if a == b or not (0 <= a < order and 0 <= b < order):
                raise ParameterError(f"{(a, b) if a < b else (b, a)} is not a 2-subset "
                                     "of the base vertices")
            mask |= 1 << through[a][b]
        return mask


@lru_cache(maxsize=32)
def _pair_tables(order: int) -> tuple[tuple[TokenPair, ...], tuple[tuple[int, ...], ...]]:
    """The 2-subsets of 0..order-1 in lexicographic order, and for each
    vertex x the row of indices of {x,w} over w (-1 at w = x).  Both depend
    only on the order, so every token graph of that order shares them."""
    pairs = tuple(itertools.combinations(range(order), 2))
    through = [[-1] * order for _ in range(order)]
    for i, (a, b) in enumerate(pairs):
        through[a][b] = through[b][a] = i
    return pairs, tuple(map(tuple, through))


def partner_rows_mask(rows) -> int:
    """The token mask of the pairs that partner rows describe over base
    order len(rows): {x,y}, x < y, is in it iff bit y of rows[x] is set.
    Bits at or below x in rows[x] are ignored, so rows may list each pair
    from both ends or from its lower end only; no bit may reach the order.
    Row x contributes its pairs as one block, ``(rows[x] >> x + 1)``
    shifted to ``first[x]``, the index of {x, x+1}."""
    order = len(rows)
    mask = first = 0
    for x, row in enumerate(rows):
        mask |= (row >> x + 1) << first
        first += order - x - 1
    return mask


def build_f2(g: Graph) -> TokenGraph:
    """Construct the 2-token graph of g.

    Token vertices {a,w} and {b,w} are adjacent iff ab is an edge of g;
    pairs with symmetric difference of size 4 are never adjacent.  Each
    base edge ab gives one token edge per third vertex w, read as the
    w-th entries of ``through[a]`` and ``through[b]`` and written straight
    into the token graph's adjacency bitsets, so the token graph has
    exactly (|V|-2)*|E| edges.
    """
    if g.order < 2:
        raise ParameterError(f"token graph requires base order >= 2, got {g.order}")
    pairs, through = _pair_tables(g.order)
    masks = [0] * len(pairs)
    for a, b in g.sorted_edges():
        for i, j in zip(through[a], through[b]):
            if i >= 0 and j >= 0:   # skips w = a and w = b
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return TokenGraph(base=g, graph=Graph(tuple(masks)), pairs=pairs, through=through)


@dataclass(frozen=True)
class JoinPartition:
    """Token vertices split by side when the base graph is a join G1 + G2,
    as bitmasks: both elements in G1 (b1), both in G2 (b2), or one in each
    (r)."""

    b1: int
    b2: int
    r: int


def join_partition(tg: TokenGraph, split: int) -> JoinPartition:
    """Partition token vertices of a join base graph, G1 = vertices below split."""
    n = tg.base.order
    if not 0 < split < n:
        raise ParameterError(f"split must satisfy 0 < split < {n}, got {split}")
    b1 = b2 = r = 0
    for i, (a, b) in enumerate(tg.pairs):
        if b < split:
            b1 |= 1 << i
        elif a >= split:
            b2 |= 1 << i
        else:
            r |= 1 << i
    return JoinPartition(b1, b2, r)


def render_token_graph(tg: TokenGraph) -> str:
    """Edge-list text for the token graph, with one comment line per vertex mapping."""
    comments = [f"pair {i} = {{{a},{b}}}" for i, (a, b) in enumerate(tg.pairs)]
    return render_graph(tg.graph, comments)
