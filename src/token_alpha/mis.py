"""Exact maximum independent set solvers.

Two routes: a subset-enumeration oracle for small graphs (deterministic,
lexicographically least witness) and a bitset branch-and-bound solver for
the token graphs the harness actually verifies.  Their sizes agree on the
overlapping domain; the test suite enforces that.  Both return their
witness as a bitmask of the graph's vertices (``MisResult.witness``), the
form ``is_independent`` checks and the search itself works in.

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

The search runs in ascending-degree order, as colour-ordered clique solvers
set their initial order once before the search.  The root folds in the
input's own labels; the vertices left are renumbered by degree among
themselves and the rest of the search runs on that copy, so the witness is
mapped back to the input's labels.  Folding first means only what the
folds leave is renumbered: about a third of the vertices of the token
graphs of path unions.

A root that branches searches each connected component of what its folds
leave on its own, as branch-and-reduce solvers do (Akiba and Iwata, TCS
2016): every node below then covers and branches over one component, not
all of them.  The token graph of a disconnected base graph is
disconnected, its parts being the F2 of each component and the products
of pairs of them (Fabila-Monroy et al., Token graphs, Graphs Combin.
2012), and the root's folds split more.  On the token graph of a sparse
base graph of order 40 with 30 edges, the whole search exceeds 200 000
nodes; split, it finishes in 6 706.

Given the token graph it solves, the search also prunes by isomorphism
(Margot, Pruning by isomorphism in branch-and-cut, Math. Program. 2002;
Ostrowski, Linderoth, Rossi and Smriglio, Orbital branching, Math.
Program. 2011).  Permuting the members of a twin class of the base graph,
vertices with equal open or equal closed neighbourhoods, is an
automorphism of the base graph and so of its token graph, acting on
pairs.  A node's group is the product of the symmetric groups on the twin
classes, each restricted to the base vertices that no chosen pair
touches, so it fixes every chosen pair.  Once the child that includes v
has returned, the node drops v's whole orbit under its group from the
candidates: a set of the node that holds an image of v is the image of
one that holds v, which the child has searched.  The invariant that makes
this sound is that a node's candidates are invariant under its group.
Every removal is either N[p] for a chosen pair p, which an automorphism
fixing p's endpoints preserves, or a whole orbit under an ancestor's
group, which contains the node's; below a split root, the orbit met
with the node's component (``max_independent_set`` shows why that is
sound).  The join families E_n + H have E_n as a twin class, and K_m is
one too, so split(5,14) solves in 6 nodes instead of 16 612.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import BudgetExceededError, CapacityError, ParameterError
from .graphs import Graph, members, twin_classes
from .tokens import TokenGraph

EXHAUSTIVE_CAP = 30


@dataclass(frozen=True)
class MisResult:
    size: int
    witness: int
    nodes_explored: int


def is_independent(g: Graph, s: int) -> bool:
    """True iff no edge of g has both endpoints in the bitmask s.

    Checks every member against g's adjacency bitsets, its stored form: s
    is independent iff no member's neighbour mask meets it.  That is
    O(|s|) big-integer ANDs, whatever g's edge count, stopping at the
    first member that meets s.
    """
    if s >> g.order:
        raise ParameterError(f"vertex set not within a graph of order {g.order}")
    adj = g.masks
    rest = s
    while rest:
        low = rest & -rest
        if adj[low.bit_length() - 1] & s:
            return False
        rest ^= low
    return True


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
    adj = g.masks
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
    return MisResult(best_size, best_bits, nodes)


def greedy_independent_set(adj: tuple[int, ...]) -> int:
    """Greedy maximal independent set of the graph with these adjacency
    bitsets, taking the vertices in label order; returns its bitmask.  The
    solver's incumbent is this set of its renumbered graph, lowest degree
    first."""
    chosen = 0
    blocked = 0
    for v, mask in enumerate(adj):
        bit = 1 << v
        if not blocked & bit:
            chosen |= bit
            blocked |= mask | bit
    return chosen


def _union(masks: list[int] | tuple[int, ...], bits: int) -> int:
    """The union of masks[x] over the members x of bits."""
    out = 0
    while bits:
        low = bits & -bits
        bits ^= low
        out |= masks[low.bit_length() - 1]
    return out


def _fold(adj: tuple[int, ...], cand: int, dirty: int, chosen: int) -> tuple[int, int]:
    """Fold forced vertices of cand into chosen; returns (cand, chosen).

    A vertex of degree 0 in cand always joins; one of degree 1 can always
    replace its neighbour, so including it never loses optimality.  Every
    vertex of cand outside dirty must have degree >= 2 in cand.  The lowest
    dirty vertex is checked first, and a degree-1 fold re-queues the
    neighbours of the neighbour it removes (no other degree drops), so the
    lowest forced vertex is always the one folded next.
    """
    while dirty:
        low = dirty & -dirty
        dirty ^= low
        nbrs = adj[low.bit_length() - 1] & cand
        if nbrs & (nbrs - 1):
            continue
        chosen |= low
        cand ^= low | nbrs
        if nbrs:
            dirty = (dirty | adj[nbrs.bit_length() - 1]) & cand
    return cand, chosen


def _renumber(adj: tuple[int, ...], cand: int) -> tuple[list[int], tuple[int, ...]]:
    """Order the vertices of cand by ascending degree among themselves, ties
    to the lower label; returns that order and the induced subgraph's
    adjacency bitsets, in which vertex i is order[i]."""
    order = sorted(members(cand), key=lambda v: (adj[v] & cand).bit_count())
    bit = [0] * len(adj)
    for i, v in enumerate(order):
        bit[v] = 1 << i
    # a list, not a generator: tuple() of a generator raised the traced heap
    # peak of a path-union sweep by ~0.2 MB (CPython 3.11)
    return order, tuple([_union(bit, adj[v] & cand) for v in order])


class _TwinOrbits:
    """Orbits of the search's renumbered vertices, pairs {a,b} of a base
    graph, under the product of the symmetric groups on its twin classes,
    each restricted to the members no chosen pair touches.

    ``moves(v)`` tells whether an endpoint of v lies in a class of which
    the root's forced pairs leave two or more members untouched; only then
    can v's orbit be more than v.  ``free(chosen)`` gives a node's group as
    the base vertices it moves: the untouched members of every such class
    keeping two or more.  ``orbit(v, free)`` is v's orbit under that group.
    The tables are built on the first call to ``moves``: each base vertex's
    class and the renumbered vertices on it (``inc``), and each renumbered
    vertex's two endpoints as one mask (``ends``), from which ``free``
    reads the base vertices a chosen set touches.
    """

    def __init__(self, token: TokenGraph, forced: int, order: list[int]):
        self._token = token
        self._forced = forced
        self._order = order
        self._class_of = None

    def _build(self) -> None:
        base, pairs = self._token.base, self._token.pairs
        fixed = 0  # base vertices on the root's forced pairs
        for t in members(self._forced):
            a, b = pairs[t]
            fixed |= 1 << a | 1 << b
        self._fixed = fixed
        self._class_of = class_of = [0] * base.order
        self._classes = []
        for twins in twin_classes(base):
            mask = sum(1 << x for x in twins)
            left = mask & ~fixed
            if left & (left - 1):
                self._classes.append(mask)
                for x in twins:
                    class_of[x] = mask
        self._inc = inc = [0] * base.order  # renumbered vertices on each base vertex
        self._ends = ends = []  # each renumbered vertex's endpoints, as one mask
        if self._classes:
            for i, t in enumerate(self._order):
                a, b = pairs[t]
                inc[a] |= 1 << i
                inc[b] |= 1 << i
                ends.append(1 << a | 1 << b)

    def moves(self, v: int) -> int:
        """Nonzero iff an endpoint of renumbered vertex v lies in a class
        that keeps two members off the root's forced pairs."""
        if self._class_of is None:
            self._build()
        a, b = self._token.pairs[self._order[v]]
        return self._class_of[a] | self._class_of[b]

    def free(self, chosen: int) -> int:
        """The base vertices that the group of a node with this chosen set
        (renumbered) may move, as a bitmask; 0 when the group is trivial."""
        touched = self._fixed | _union(self._ends, chosen)
        free = 0
        for mask in self._classes:
            left = mask & ~touched
            if left & (left - 1):
                free |= left
        return free

    def orbit(self, v: int, free: int) -> int:
        """The orbit of renumbered vertex v under the group that moves the
        base vertices in free, as a mask of renumbered vertices: each
        endpoint of v in free ranges over the free members of its class."""
        a, b = self._token.pairs[self._order[v]]
        ra = self._class_of[a] & free if free >> a & 1 else 1 << a
        rb = self._class_of[b] & free if free >> b & 1 else 1 << b
        inc = self._inc
        if ra != rb:
            # the pairs with one end in ra and the other in rb
            return _union(inc, ra) & _union(inc, rb)
        # a and b lie in one class: the pairs inside its free members
        inside = seen = 0
        while ra:
            low = ra & -ra
            ra ^= low
            on = inc[low.bit_length() - 1]
            inside |= on & seen
            seen |= on
        return inside


def _cover(adj: tuple[int, ...], cand: int, floor: int) -> tuple[int, list[int]]:
    """Greedy clique cover of cand: each clique grows from the lowest
    remaining candidate, and the cliques are numbered 1..count in the order
    they are built.  Returns count and the masks of the cliques numbered
    above floor, the only ones a node can branch on."""
    cliques = []
    count = 0
    while cand:
        low = cand & -cand
        cand ^= low
        clique = low
        common = adj[low.bit_length() - 1] & cand
        while common:
            ulow = common & -common
            cand ^= ulow
            clique |= ulow
            common = (common ^ ulow) & adj[ulow.bit_length() - 1]
        count += 1
        if count > floor:
            cliques.append(clique)
    return count, cliques


def _components(adj: tuple[int, ...], cand: int) -> list[int]:
    """The connected components of cand's induced subgraph, as masks, in
    the order of their lowest vertex."""
    parts = []
    while cand:
        part = reach = cand & -cand
        while reach:
            reach = _union(adj, reach) & cand & ~part
            part |= reach
        cand ^= part
        parts.append(part)
    return parts


def max_independent_set(g: Graph | TokenGraph,
                        node_budget: int | None = None) -> MisResult:
    """Exact colour-ordered branch and bound over adjacency bitsets.

    g is a plain graph or a token graph, whose ``.graph`` is then the g
    solved below, pruned by the twin orbits of its ``.base``.

    Each search node first folds in degree-0/1 vertices, then builds a
    greedy clique cover of the remaining candidates.  Walking the cover
    from its highest-numbered clique down, it returns once the chosen
    size plus the current clique number cannot beat the incumbent;
    otherwise it recurses on including the vertex and drops the vertex
    from the candidates.  Excluding a vertex is that drop, not a
    recursive call, so every level of recursion adds a vertex to the
    chosen set and the depth is at most alpha + 1.

    The root folds every forced vertex of g in g's own labels.  The
    vertices left are renumbered by ascending degree among themselves
    (ties to the lower label), and the search runs on their induced
    subgraph in that numbering, where the incumbent is a greedy maximal
    independent set taken in vertex order.  The cover then grows its
    cliques from low-degree vertices and branches on high-degree ones
    first.

    The root's cover decides whether the root branches.  When its clique
    count does not exceed the incumbent, the greedy set is maximum and
    the solve ends at node 1.  Otherwise the root splits the vertices
    left into the connected components of their induced subgraph and
    branches within each component on its own, from the greedy incumbent
    restricted to it.  A maximum set of a disconnected graph is the union
    of a maximum set of each component, so every node below covers,
    bounds and branches over its component's candidates only, against
    that component's incumbent.  No clique of the root's cover spans two
    components and the greedy set never blocks across one, so a
    component's search is the one it would get alone; a connected rest
    is one component, whose cover and incumbent are the root's, and its
    search tree is the one an unsplit search makes.  The components share
    the root's numbering.  They are searched smallest first (ties to the
    lower vertex); the order changes neither the node total nor the
    witness, only where a budget too small for the whole search runs out:
    on the cheapest nodes, having finished the most components.  The
    witness is the root's forced vertices plus each component's best set,
    mapped back to g's labels.

    The folds read their candidates from a dirty mask; every candidate
    outside it is known to have degree >= 2.  At the root the mask is
    every vertex, and after the root's folds no vertex has degree <= 1,
    so each component's search starts from an empty mask.  A degree-1
    fold adds the neighbours of the neighbour it removes.  A child starts
    from its vertices next to a candidate its parent removed: a candidate
    neighbour of the branch vertex, or a vertex the parent's branch loop
    already dropped.  A candidate loses degree only through removed candidates,
    so the lowest dirty vertex of degree <= 1 is the lowest forced vertex
    of the candidates, the one a full rescan after every fold would find,
    and a node with an empty dirty mask skips the folds.

    For a token graph, a node's group permutes, inside each twin class of
    the base graph, the members that no chosen pair touches: root-forced,
    folded or branched in the node's component.  After the child that
    includes v returns, the loop drops v's whole orbit under that group
    within the component, skips the loop vertices the drop removed, and
    adds the neighbours of every dropped vertex to gone, which keeps the
    folds' dirty mask exact.  The orbit of {a,b} replaces each endpoint
    that lies in a class and is untouched by any untouched member of that
    class.  The set-up waits for the first drop after which the loop goes
    on branching, so a solve that never gets there builds nothing.

    Splitting keeps this sound, though the group fixes no pair chosen in
    another component.  The group fixes the root's forced pairs, so it
    maps the vertices the root's folds leave onto themselves, and each of
    their components onto a component.  If an element of the group takes
    v to a vertex of v's component C, it therefore maps C onto C: v's
    orbit met with C is v's orbit under the stabiliser of C.  That
    stabiliser fixes the node's chosen pairs and maps the node's
    candidates, which lie in C, onto themselves: each was removed as N[p]
    for a chosen p, or as an orbit met with C under the stabiliser of C
    in an ancestor's group, which contains the node's.  So a set of the
    node that holds an image of v is the image of one that holds v.

    nodes_explored counts search nodes over all components; the root,
    with its folds and its cover, is node 1, and each child the branch
    loop creates is one more.  A child's node work (its folds, leaf,
    bound and cover) runs in the loop that creates it, and only a child
    that goes on branching recurses.  Raises BudgetExceededError once the
    count would exceed node_budget.  The search recurses once per chosen
    vertex, one frame per level, so for the solve the interpreter's
    recursion limit is raised by one frame per renumbered vertex, and
    restored however the solve ends.
    """
    token = None
    if isinstance(g, TokenGraph):
        token, g = g, g.graph
    n = g.order
    if n == 0:
        return MisResult(0, 0, 0)
    if node_budget is not None and node_budget < 1:
        raise BudgetExceededError(1)

    masks = g.masks
    everything = (1 << n) - 1
    rest, forced = _fold(masks, everything, everything, 0)
    order, adj = _renumber(masks, rest)
    orbits = None if token is None else _TwinOrbits(token, forced, order)
    cand = (1 << len(order)) - 1
    greedy = greedy_independent_set(adj)
    count, cliques = _cover(adj, cand, 0)
    best_size = best_bits = 0
    nodes = 1

    def branch(cand: int, chosen: int, size: int, count: int, cliques: list[int]):
        # Branch in the reverse of the cover's order; cliques holds the
        # cover's highest-numbered cliques, the last numbered count.  The
        # candidates left when a vertex of clique k comes up lie in
        # cliques 1..k.  A child's
        # vertex has a lower degree than here only if it neighbours a
        # candidate of N(v) or a vertex this loop has dropped (gone).
        # With orbits, dropping v drops v's orbit under the node's group
        # (free, found at the node's first orbit drop) and the cliques
        # lose what it removed.  Once size + k cannot beat the incumbent
        # the node branches no more, so no orbit is worth dropping.
        nonlocal best_size, best_bits, nodes
        gone = 0
        free = None
        for k, clique in zip(range(count, 0, -1), reversed(cliques)):
            clique &= cand
            while clique:
                if size + k <= best_size:
                    return
                v = clique.bit_length() - 1
                bit = 1 << v
                clique ^= bit
                # the child that includes v: one search node, whose folds,
                # leaf, bound and cover run here
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    raise BudgetExceededError(nodes)
                child, grown = cand & ~(adj[v] | bit), chosen | bit
                dirty = child & (gone | _union(adj, adj[v] & cand))
                if dirty:
                    child, grown = _fold(adj, child, dirty, grown)
                grown_size = grown.bit_count()
                if child == 0:
                    if grown_size > best_size:
                        best_size, best_bits = grown_size, grown
                elif grown_size + child.bit_count() > best_size:
                    # Cliques numbered best_size - grown_size or below can
                    # never be branched on, so only the higher ones are kept
                    # (all of them when the folds lifted grown_size above the
                    # incumbent).
                    branch(child, grown, grown_size,
                           *_cover(adj, child, best_size - grown_size))
                cand ^= bit
                gone |= adj[v]
                if orbits is None or size + k <= best_size or not orbits.moves(v):
                    continue
                if free is None:
                    free = orbits.free(chosen)
                twins = orbits.orbit(v, free) & cand if free else 0
                if twins:
                    cand ^= twins
                    clique &= cand
                    gone |= _union(adj, twins)

    # each level of the search is one frame and adds a vertex to the
    # chosen set, so a dive may need len(order) frames above the caller's,
    # past the default limit of 1 000 on the deepest dives
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + len(order) + 50)
    found = greedy
    try:
        if count > greedy.bit_count():
            found = 0
            for part in sorted(_components(adj, cand), key=int.bit_count):
                # each clique lies in one component, so the cliques that
                # meet part, in the order built, are part's own cover
                own = [clique for clique in cliques if clique & part]
                best_bits = greedy & part
                best_size = best_bits.bit_count()
                branch(part, 0, 0, len(own), own[best_size:])
                found |= best_bits
    finally:
        sys.setrecursionlimit(limit)
        # branch reaches itself through its closure; breaking that cycle
        # frees the search's state, and the token graph held for the
        # orbits, as soon as the solve ends rather than at a later garbage
        # collection
        branch = None
    witness = forced | sum(1 << order[i] for i in members(found))
    return MisResult(witness.bit_count(), witness, nodes)
