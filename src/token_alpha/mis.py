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

    nodes_explored counts search nodes (calls into the recursion).
    Raises BudgetExceededError once it would exceed node_budget.
    """
    n = g.order
    adj = g.neighbor_masks()
    if n == 0:
        return MisResult(0, VertexSet.of(0, []), "branch-and-bound", 0)

    best_bits = _greedy_lower_bound(n, adj)
    best_size = best_bits.bit_count()
    nodes = 0

    def dfs(cand: int, size: int, chosen: int):
        nonlocal best_size, best_bits, nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExceededError(nodes)

        # Fold forced vertices: degree 0 always joins; a degree-1 vertex can
        # always replace its neighbor, so including it never loses optimality.
        while cand:
            rest = cand
            forced = 0
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                nbrs = adj[v] & cand
                k = nbrs.bit_count()
                if k == 0:
                    forced = low
                    break
                if k == 1:
                    forced = low
                    cand ^= nbrs
                    break
            if not forced:
                break
            chosen |= forced
            size += 1
            cand ^= forced

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
        # when a vertex of clique k comes up lie in cliques 1..k.
        for k, clique in zip(range(count, floor, -1), reversed(cliques)):
            while clique:
                if size + k <= best_size:
                    return
                v = clique.bit_length() - 1
                bit = 1 << v
                clique ^= bit
                dfs(cand & ~(adj[v] | bit), size + 1, chosen | bit)
                cand ^= bit

    dfs((1 << n) - 1, 0, 0)
    witness = VertexSet.of(n, _bits_to_sorted(best_bits))
    return MisResult(best_size, witness, "branch-and-bound", nodes)
