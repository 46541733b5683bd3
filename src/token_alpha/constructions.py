"""Explicit independent-set builders for token graphs.

Three constructions: the parity set for disjoint unions of paths, the
associated set I_R ∪ I_B for join graphs E_n + H, and the (S1, S2)
extraction that turns an arbitrary independent set with a cross pair
into associated-set inputs at least as large.

A set of pairs is written as partner rows, one base mask per vertex: row
x holds the partners y of x, and a pair may sit in both of its rows or in
its lower one only.  ``tokens.partner_rows_mask`` turns rows into the
token-vertex bitmask of any token graph of that base order, one shift per
vertex, so the builders need no token graph object and never list a
pair.  The parity and cycle sets are rows in the labels of the graph
they belong to.  Under the join labeling the E_n side occupies 0..n-1
and H occupies n..n+|H|-1; the associated set takes F2(H - S2)'s rows in
H's own labels, places H's rows at offset n and returns the join's token
mask, which is what ``extract_s1_s2`` reads too.  S1 and S2 are plain
bitmasks, the form of a graph's adjacency bitsets: bit u of S1 is E_n
vertex u, bit v of S2 is H vertex v.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParameterError
from .tokens import partner_rows_mask


def path_union_independent_set(walks, order: int) -> list[int]:
    """Parity construction for a disjoint union of paths, each given as its
    walk: the sequence of its vertices' labels along the path.  Returns the
    partner rows over the graph's order.

    Takes pairs within one path whose positions have different parity and
    pairs across two paths whose positions share a parity.  The result has
    exactly (m^2 + t^2 - 2t)/4 pairs for total order m and t odd parts,
    and is independent in the token graph of the union whatever the order
    of the walks.  Two pairs {x,y} and {x,z} are adjacent when yz is a path
    edge, so y and z sit on one path at positions of different parity; but
    both pairs are chosen only if y and z have the same parity (opposite to
    x's on x's own path, equal to x's on any other).
    """
    sides = []
    evens = odds = 0   # even and odd positions of every walk
    for walk in walks:
        even = odd = 0
        for x in walk[0::2]:
            even |= 1 << x
        for x in walk[1::2]:
            odd |= 1 << x
        sides.append((walk, even, odd))
        evens |= even
        odds |= odd
    rows = [0] * order
    for walk, even, odd in sides:
        even_row, odd_row = odd | evens ^ even, even | odds ^ odd
        for x in walk[0::2]:
            rows[x] = even_row
        for x in walk[1::2]:
            rows[x] = odd_row
    return rows


def cycle_independent_set(m: int) -> list[int]:
    """A maximum independent set of F2(C_m), with C_m numbered 0..m-1
    around the cycle as ``graphs.generate`` numbers it, as partner rows.

    Takes every pair at odd cyclic distance d: each odd d <= m/2 for even
    m, each odd d < h = (m-1)/2 for odd m.  When m and h are both odd it
    also takes {kh, (k+1)h} (mod m) for every even k < m-1.  Two pairs
    {x,y} and {x,z} are adjacent only when yz is a cycle edge, so y and z
    sit at distances from x of different parity; the one exception is two
    distance-h pairs for odd m, which form an m-cycle in F2(C_m) taken
    here alternately.  Row x is row 0, the chosen distances, rotated by x.
    """
    h = (m - 1) // 2
    at = 0
    for d in range(1, m // 2 + 1 - m % 2, 2):
        at |= 1 << d | 1 << m - d
    full = (1 << m) - 1
    rows = [(at << x | at >> m - x) & full for x in range(m)]
    if m % 2 and h % 2:
        for k in range(0, m - 1, 2):
            a, b = k * h % m, (k + 1) * h % m
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


class AssociatedSetInput(NamedTuple):
    """Inputs for the associated set of E_n + H.

    s1 is a bitmask over the E_n side 0..n-1, s2 a bitmask over H's own
    labels, and mis_h_minus_s2 a maximum independent set of F2(H - s2) as
    partner rows in H's own labels, one per H vertex, supplied by the
    caller; the harness takes it from the constructions.  The record checks
    nothing.  The harness judges the associated set built from it with
    ``is_independent`` on F2(E_n + H), which catches an s2 that is not
    independent in H, a pair of mis_h_minus_s2 that meets s2 (when s1 is
    nonempty) and a mis_h_minus_s2 that is not independent.
    """

    n: int
    s1: int
    s2: int
    mis_h_minus_s2: list[int]


def associated_independent_set(inp: AssociatedSetInput) -> int:
    """Associated set I_R ∪ I_B of E_n + H, as the token mask of
    F2(E_n + H) under the join labeling.

    I_R pairs every s1 vertex with every s2 vertex; I_B takes all 2-subsets
    of the E_n side outside s1 (the token graph of an edgeless graph has no
    edges, so everything is independent there) plus the supplied maximum
    independent set of F2(H - s2), its rows placed at offset n.
    """
    n, s1 = inp.n, inp.s1
    rest, cross = (1 << n) - 1 & ~s1, inp.s2 << n
    rows = [cross if s1 >> u & 1 else rest for u in range(n)]
    rows += [row << n for row in inp.mis_h_minus_s2]
    return partner_rows_mask(rows)


def extract_s1_s2(i: int, n: int, order: int) -> tuple[int, int]:
    """Recover (S1, S2), as bitmasks, from an independent set of F2(E_n + H)
    meeting R, given as its token mask; order is n + |H|.

    S1 collects the E_n vertices paired with anything on the H side; S2 is
    the H-neighborhood, in H's own labels, of a vertex maximizing that
    neighborhood (ties to the lowest index).  E_n vertex u's pairs with H
    are one run of token indices, from {u,n} on, so its neighborhood is
    one shift of i.  The associated set built from the result is always at
    least as large as the input set.
    """
    h_all = (1 << order - n) - 1
    s1 = s2 = most = 0
    start = n - 1   # the index of {u,n}: first[u] + n - u - 1
    for u in range(n):
        hood = i >> start & h_all
        if hood:
            s1 |= 1 << u
            if hood.bit_count() > most:
                s2, most = hood, hood.bit_count()
        start += order - u - 2
    if not s1:
        raise ParameterError("independent set contains no cross pair (i ∩ R is empty)")
    return s1, s2
