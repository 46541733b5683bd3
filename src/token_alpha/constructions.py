"""Explicit independent-set builders for token graphs.

Three constructions: the parity set for disjoint unions of paths, the
associated set I_R ∪ I_B for join graphs E_n + H, and the (S1, S2)
extraction that turns an arbitrary independent set with a cross pair
into associated-set inputs at least as large.

All functions work on token *pairs* (2-subsets of base vertices), not
token-graph indices, so they stay independent of any particular token
graph object.  The parity set takes the paths' walks in the labels of the
graph they belong to.  Under the join labeling the E_n side occupies
0..n-1 and H occupies n..n+|H|-1; H-side inputs are given in H's own labels.
S1 and S2 are plain bitmasks, the form of a graph's adjacency bitsets:
bit u of S1 is E_n vertex u, bit v of S2 is H vertex v.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ParameterError
from .tokens import TokenPair


def _pair(a: int, b: int) -> TokenPair:
    return (a, b) if a < b else (b, a)


def path_union_independent_set(walks) -> frozenset[TokenPair]:
    """Parity construction for a disjoint union of paths, each given as its
    walk: the sequence of its vertices' labels along the path.

    Takes pairs within one path whose positions have different parity and
    pairs across two paths whose positions share a parity.  The result has
    exactly (m^2 + t^2 - 2t)/4 elements for total order m and t odd parts,
    and is independent in the token graph of the union whatever the order
    of the walks.  Two pairs {x,y} and {x,z} are adjacent when yz is a path
    edge, so y and z sit on one path at positions of different parity; but
    both pairs are chosen only if y and z have the same parity (opposite to
    x's on x's own path, equal to x's on any other).
    """
    out: list[TokenPair] = []
    evens: list[int] = []   # even positions of the walks seen so far
    odds: list[int] = []
    for walk in walks:
        even, odd = walk[0::2], walk[1::2]
        out += [(x, y) if x < y else (y, x) for x in even for y in odd]
        out += [(x, y) if x < y else (y, x) for x in even for y in evens]
        out += [(x, y) if x < y else (y, x) for x in odd for y in odds]
        evens.extend(even)
        odds.extend(odd)
    return frozenset(out)


def cycle_independent_set(m: int) -> frozenset[TokenPair]:
    """A maximum independent set of F2(C_m), with C_m numbered 0..m-1
    around the cycle as ``graphs.generate`` numbers it.

    Takes every pair at odd cyclic distance d: each odd d <= m/2 for even
    m, each odd d < h = (m-1)/2 for odd m.  When m and h are both odd it
    also takes {kh, (k+1)h} (mod m) for every even k < m-1.  Two pairs
    {x,y} and {x,z} are adjacent only when yz is a cycle edge, so y and z
    sit at distances from x of different parity; the one exception is two
    distance-h pairs for odd m, which form an m-cycle in F2(C_m) taken
    here alternately.
    """
    h = (m - 1) // 2
    out = {_pair(x, (x + d) % m) for d in range(1, m // 2 + 1 - m % 2, 2) for x in range(m)}
    if m % 2 and h % 2:
        out.update(_pair(k * h % m, (k + 1) * h % m) for k in range(0, m - 1, 2))
    return frozenset(out)


@dataclass(frozen=True)
class AssociatedSetInput:
    """Inputs for the associated set of E_n + H.

    s1 is a bitmask over the E_n side 0..n-1, s2 a bitmask over H's own
    labels, and mis_h_minus_s2 a maximum independent set of F2(H - s2) as
    pairs in H's own labels, supplied by the caller; the harness takes it
    from the constructions.  The record checks nothing.  The harness
    judges the associated set built from it with ``is_independent`` on
    F2(E_n + H), which catches an s2 that is not independent in H, a pair
    of mis_h_minus_s2 that meets s2 (when s1 is nonempty) and a
    mis_h_minus_s2 that is not independent.
    """

    n: int
    s1: int
    s2: int
    mis_h_minus_s2: frozenset[TokenPair]


def associated_independent_set(inp: AssociatedSetInput) -> frozenset[TokenPair]:
    """Associated set I_R ∪ I_B of E_n + H, as pairs under the join labeling.

    I_R pairs every s1 vertex with every s2 vertex; I_B takes all 2-subsets
    of the E_n side outside s1 (the token graph of an edgeless graph has no
    edges, so everything is independent there) plus the supplied maximum
    independent set of F2(H - s2), shifted onto the H side.
    """
    n, s1, s2 = inp.n, inp.s1, inp.s2
    h_side = [n + v for v in range(s2.bit_length()) if s2 >> v & 1]
    out = {(u, v) for u in range(n) if s1 >> u & 1 for v in h_side}
    rest = [u for u in range(n) if not s1 >> u & 1]
    out.update(itertools.combinations(rest, 2))
    out.update((n + a, n + b) for a, b in inp.mis_h_minus_s2)
    return frozenset(out)


def extract_s1_s2(i, n: int) -> tuple[int, int]:
    """Recover (S1, S2), as bitmasks, from an independent set of F2(E_n + H)
    meeting R, given as pairs under the join labeling.

    S1 collects the E_n vertices paired with anything on the H side; S2 is
    the H-neighborhood, in H's own labels, of a vertex maximizing that
    neighborhood (ties to the lowest index).  The associated set built from
    the result is always at least as large as the input set.
    """
    hoods = [0] * n   # hoods[u]: the H vertices paired with E_n vertex u
    s1 = 0
    for a, b in i:
        if a > b:
            a, b = b, a
        if a < n <= b:
            hoods[a] |= 1 << b - n
            s1 |= 1 << a
    if not s1:
        raise ParameterError("independent set contains no cross pair (i ∩ R is empty)")
    return s1, max(hoods, key=int.bit_count)
