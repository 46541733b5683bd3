"""Exact maximum independent set solvers.

Two routes: a subset-enumeration oracle for small graphs (deterministic,
lexicographically least witness) and a bitset branch-and-bound solver for
the token graphs the harness actually verifies.  Their sizes agree on the
overlapping domain; the test suite enforces that.

The branch-and-bound solver is the independent-set form of the colour-
ordered maximum-clique search (Tomita et al., MCS, WALCOM 2010; San Segundo
et al., BBMC, Optim. Lett. 2013).  At every node it covers the candidates
with greedy cliques, numbered 1..K in the order they are built.  An
independent set meets each clique at most once, so the candidates in
cliques 1..k hold at most k of its vertices.  The node branches on the
vertices of the highest-numbered cliques first, and stops as soon as the
clique number k of the next vertex can no longer beat the incumbent.

Before the cover, a node folds forced vertices (degree 0 or 1 among the
candidates) into the chosen set, always the lowest forced vertex first.
It finds them from a worklist, as reduction-based solvers do (Akiba and
Iwata, TCS 2016): only a vertex whose degree may have dropped since it was
last seen at degree >= 2 is checked again, so a node does not rescan every
candidate after each fold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, CapacityError, ParameterError
from .graphs import Graph, VertexSet

EXHAUSTIVE_CAP = 30


@dataclass(frozen=True)
class MisResult:
    size: int
    witness: VertexSet
    method: str  # "exhaustive" or "branch-and-bound"
    nodes_explored: int


def is_independent(g: Graph, s: VertexSet) -> bool:
    """True iff no edge of g has both endpoints in s.

    Checks every member against g's shared adjacency bitsets: the members
    form one mask, and s is independent iff no member's neighbour mask
    meets it.  That is O(|s|) big-integer ANDs, whatever g's edge count.
    """
    if s.order != g.order or any(v >= g.order for v in s):
        raise ParameterError(f"vertex set not within a graph of order {g.order}")
    adj = g.neighbor_masks()
    mask = 0
    for v in s:
        mask |= 1 << v
    return not any(adj[v] & mask for v in s)


def _bits_to_sorted(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def max_independent_set_exhaustive(g: Graph) -> MisResult:
    """Enumerate independent sets in include-first vertex order.

    The first maximum-size set met in that order is the lexicographically
    least one, so the witness is canonical.  Hard-capped at order 30;
    larger graphs belong to max_independent_set.
    """
    n = g.order
    if n > EXHAUSTIVE_CAP:
        raise CapacityError(
            f"order {n} exceeds the exhaustive cap of {EXHAUSTIVE_CAP}; "
            "use max_independent_set instead")
    adj = g.neighbor_masks()
    best_size = -1
    best_bits = 0
    nodes = 0

    def dfs(cand: int, size: int, chosen: int):
        nonlocal best_size, best_bits, nodes
        nodes += 1
        if size + cand.bit_count() <= best_size:
            return
        if cand == 0:
            best_size, best_bits = size, chosen
            return
        low = cand & -cand
        v = low.bit_length() - 1
        dfs(cand & ~(adj[v] | low), size + 1, chosen | low)
        dfs(cand ^ low, size, chosen)

    dfs((1 << n) - 1, 0, 0)
    witness = VertexSet.of(n, _bits_to_sorted(best_bits))
    return MisResult(best_size, witness, "exhaustive", nodes)


def _greedy_lower_bound(n: int, adj: tuple[int, ...]) -> int:
    """Greedy maximal independent set, lowest degree first (ties to the lower
    vertex, as the sort is stable); returns its bitmask."""
    degree = [mask.bit_count() for mask in adj]
    order = sorted(range(n), key=degree.__getitem__)
    chosen = 0
    blocked = 0
    for v in order:
        bit = 1 << v
        if not blocked & bit:
            chosen |= bit
            blocked |= adj[v] | bit
    return chosen


def _within_two(adj: tuple[int, ...]) -> tuple[int, ...]:
    """For every vertex, the bitmask of the vertices within distance two."""
    out = []
    for mask in adj:
        reach = mask
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            reach |= adj[low.bit_length() - 1]
        out.append(reach)
    return tuple(out)


def max_independent_set(g: Graph, node_budget: int | None = None) -> MisResult:
    """Exact colour-ordered branch and bound over adjacency bitsets.

    Each search node first folds in degree-0/1 vertices, then builds a
    greedy clique cover of the remaining candidates.  Walking the cover
    from its highest-numbered clique down, it returns once the chosen
    size plus the current clique number cannot beat the incumbent;
    otherwise it recurses on including the vertex and drops the vertex
    from the candidates.  Excluding a vertex is that drop, not a
    recursive call, so every level of recursion adds a vertex to the
    chosen set and the depth is at most alpha + 1.  A greedy maximal
    independent set is the incumbent at the root.

    The folds read their candidates from a dirty mask; every candidate
    outside it is known to have degree >= 2.  At the root the mask is
    every vertex.  A degree-1 fold adds the neighbours of the neighbour
    it removes.  A child starts from its vertices next to one its parent
    removed: those within distance two of the branch vertex, and those
    next to a vertex the parent's branch loop already dropped.  So the
    lowest dirty vertex of degree <= 1 is the lowest forced vertex of the
    candidates, and the folds, the search tree, the node count and the
    witness are the ones a full rescan after every fold gives.

    nodes_explored counts search nodes (calls into the recursion).
    Raises BudgetExceededError once it would exceed node_budget.
    """
    n = g.order
    adj = g.neighbor_masks()
    if n == 0:
        return MisResult(0, VertexSet.of(0, []), "branch-and-bound", 0)

    adj2 = _within_two(adj)
    best_bits = _greedy_lower_bound(n, adj)
    best_size = best_bits.bit_count()
    nodes = 0

    def dfs(cand: int, size: int, chosen: int, dirty: int):
        nonlocal best_size, best_bits, nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceededError(nodes)

        # Fold forced vertices: degree 0 always joins; a degree-1 vertex can
        # always replace its neighbor, so including it never loses optimality.
        # A degree-1 fold lowers only the degrees of its neighbour's neighbours.
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            nbrs = adj[low.bit_length() - 1] & cand
            if nbrs & (nbrs - 1):
                continue
            chosen |= low
            size += 1
            cand ^= low | nbrs
            if nbrs:
                dirty = (dirty | adj[nbrs.bit_length() - 1]) & cand

        if cand == 0:
            if size > best_size:
                best_size, best_bits = size, chosen
            return
        if size + cand.bit_count() <= best_size:
            return

        # Greedy clique cover: each clique grows from the lowest remaining
        # candidate.  Cliques numbered floor or below can never be branched
        # on, so only the masks of the higher ones are kept (all of them when
        # the folds lifted size above the incumbent).
        floor = best_size - size
        cliques = []
        count = 0
        rest = cand
        while rest:
            low = rest & -rest
            rest ^= low
            clique = low
            common = adj[low.bit_length() - 1] & rest
            while common:
                ulow = common & -common
                rest ^= ulow
                clique |= ulow
                common = (common ^ ulow) & adj[ulow.bit_length() - 1]
            count += 1
            if count > floor:
                cliques.append(clique)

        # Branch in the reverse of the cover's order.  The candidates left
        # when a vertex of clique k comes up lie in cliques 1..k.  A child's
        # vertex has a lower degree than here only if it neighbours N[v] or a
        # vertex this loop has dropped (gone).
        gone = 0
        for k, clique in zip(range(count, floor, -1), reversed(cliques)):
            while clique:
                if size + k <= best_size:
                    return
                v = clique.bit_length() - 1
                bit = 1 << v
                clique ^= bit
                child = cand & ~(adj[v] | bit)
                dfs(child, size + 1, chosen | bit, child & (gone | adj2[v]))
                cand ^= bit
                gone |= adj[v]

    everything = (1 << n) - 1
    dfs(everything, 0, 0, everything)
    witness = VertexSet.of(n, _bits_to_sorted(best_bits))
    return MisResult(best_size, witness, "branch-and-bound", nodes)
