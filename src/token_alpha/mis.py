"""The exact maximum independent set solver: a bitset branch and bound for
the token graphs the harness verifies.  It returns its witness as a
bitmask of the graph's vertices (``MisResult.witness``), the form
``is_independent`` checks and the search itself works in.  The tests hold
a subset-enumeration oracle for small graphs that it must agree with.

The branch-and-bound solver is the independent-set form of the colour-
ordered maximum-clique search (Tomita et al., MCS, WALCOM 2010; San Segundo
et al., BBMC, Optim. Lett. 2013).  At every node it covers the candidates
with greedy cliques, numbered 1..K in the order they are built.  An
independent set meets each clique at most once, so the candidates in
cliques 1..k hold at most k of its vertices.  The node branches on the
vertices of the highest-numbered cliques first, and stops as soon as the
clique number k of the next vertex can no longer beat the incumbent.  The
search keeps its open nodes on a list, each a generator paused at the
child it last yielded, so it never recurses and no depth limit of the
interpreter applies.

Before the cover, a node folds forced vertices (degree 0 or 1 among the
candidates) into the chosen set, always the lowest forced vertex first.
It finds them from a worklist, as reduction-based solvers do (Akiba and
Iwata, TCS 2016): only a vertex whose degree may have dropped since it was
last seen at degree >= 2 is checked again, so a node does not rescan every
candidate after each fold.

The root folds in the input's own labels and then tries to prove its
answer there, with a greedy independent set and a greedy clique cover of
the vertices left, both built in label order.  An independent set meets
each clique at most once, so when the cover has as many cliques as the set
has members, that set is maximum and the solve ends at node 1 with nothing
renumbered.  The lexicographic labels of a token graph often carry such a
proof: those of every path union of total order 2..14 do.

Otherwise the search runs in ascending-degree order, as colour-ordered
clique solvers set their initial order once before the search: the
vertices left are renumbered by degree among themselves and the rest of
the search runs on that copy, so the witness is mapped back to the input's
labels.

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
Program. 2011).  An automorphism of the base graph is one of its token
graph, acting on pairs, and the search uses two kinds.  Permuting the
members of a twin class, vertices with equal open or equal closed
neighbourhoods, is one.  So is any rotation or reflection of the base
graph's cycle or path side, what is left once every vertex adjacent to
all vertices outside its twin class is removed: the C_m of a wheel
E_n + C_m, the P_m of a fan, all of a cycle (``graphs.
cycle_or_path_generators`` returns the side's generators, each checked as
an automorphism).  A node's group is the product of the symmetric groups
on the twin classes, each restricted to the base vertices that no chosen
pair touches, joined by the side's generators while no chosen pair
touches a vertex they move; the root's forced pairs count as chosen.
Each generator then fixes every touched base vertex, so the group fixes
every chosen pair.  Once the search below the child that includes v has
ended, the node drops v's whole orbit under its group from the
candidates: a set of the node that holds an image of v is the image of
one that holds v, which the child has searched.  The invariant that makes this sound is
that a node's candidates are invariant under its group.  Every removal
is either N[p] for a chosen pair p, which an automorphism fixing p's
endpoints preserves, or a whole orbit under an ancestor's group, which
contains the node's: the touched vertices only grow down the tree, so a
class's free members only shrink and the side's generators, once they
leave the group, never rejoin it.  Below a split root, the orbit is met
with the node's component (``max_independent_set`` shows why that is
sound).  The join families E_n + H have E_n as a twin class, and K_m is
one too, so split(5,14) solves in 6 nodes instead of 16 612; the
dihedral group of C_41 takes cycle(41) from 3 447 nodes to 960.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BudgetExceededError, ParameterError
from .graphs import Graph, cycle_or_path_generators, members, twin_classes
from .tokens import TokenGraph


class MisResult(NamedTuple):
    size: int
    witness: int
    nodes_explored: int


def is_independent(g: Graph, s: int) -> bool:
    """True iff no edge of g has both endpoints in the bitmask s.

    Checks every member against g's adjacency bitsets, its stored form: s
    is independent iff no member's neighbour mask meets it.  That is
    O(|s|) big-integer ANDs, whatever g's edge count, stopping at the
    first member that meets s.  It judges the search's witnesses, so it
    shares no helper with the search.
    """
    if s >> g.order:
        raise ParameterError(f"vertex set not within a graph of order {g.order}")
    adj = g.masks
    for v in members(s):
        if adj[v] & s:
            return False
    return True


def greedy_independent_set(adj: tuple[int, ...], cand: int) -> int:
    """Greedy maximal independent set of the subgraph that the bitmask cand
    induces in the graph with these adjacency bitsets, taking its vertices
    in label order; returns its bitmask.  The solver's root takes this set
    of what its folds leave, in the input's labels and then, if that does
    not prove it maximum, in the degree order it searches in."""
    chosen = 0
    while cand:
        low = cand & -cand
        chosen |= low
        cand &= ~(adj[low.bit_length() - 1] | low)
    return chosen


def _union(masks: list[int] | tuple[int, ...], bits: int) -> int:
    """The union of masks[x] over the members x of bits.  It peels bits
    from the top, as ``members`` does, but builds no list: a union needs
    neither the list nor its order, and it runs at every search node."""
    out = 0
    while bits:
        v = bits.bit_length() - 1
        bits ^= 1 << v
        out |= masks[v]
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


class _Orbits:
    """Orbits of the search's renumbered vertices, pairs {a,b} of a base
    graph, under a node's group.  The group permutes, inside each twin
    class, the members that no chosen pair touches, and it rotates and
    reflects the base graph's cycle or path side
    (``graphs.cycle_or_path_generators``) while no chosen pair touches a
    vertex those generators move, the side of this class.  The root's
    forced pairs count as chosen at every node.

    ``moves(v)`` tells whether an endpoint of v is a base vertex the root's
    group moves: a member of a class of which the forced pairs leave two or
    more untouched, or of a side they leave untouched.  Only then can v's
    orbit be more than v.  ``free(chosen)`` gives a node's group as the
    base vertices it moves: the untouched members of every such class
    keeping two or more, and the whole side while it is untouched.
    ``orbit(v, free)`` is v's orbit under that group: the closure of v under
    the twin orbits and the side's generators.  The tables are built on the
    first call to ``moves``: each base vertex's class, or the vertex alone
    outside one, and the renumbered vertices on it (``inc``), and each
    renumbered vertex's two endpoints as one mask (``ends``), from which
    ``free`` reads the base vertices a chosen set touches.  The generators'
    maps of the renumbered vertices wait for the first orbit that uses them.
    """

    def __init__(self, token: TokenGraph, forced: int, order: list[int]):
        self._token = token
        self._forced = forced
        self._order = order
        self._moved = None

    def _build(self) -> None:
        base, pairs = self._token.base, self._token.pairs
        fixed = 0  # base vertices on the root's forced pairs
        for t in members(self._forced):
            a, b = pairs[t]
            fixed |= 1 << a | 1 << b
        self._fixed = fixed
        self._class_of = class_of = [1 << x for x in range(base.order)]
        self._classes = []
        moved = 0
        for twins in twin_classes(base):
            mask = sum(1 << x for x in twins)
            left = mask & ~fixed
            if left & (left - 1):
                self._classes.append(mask)
                moved |= mask
                for x in twins:
                    class_of[x] = mask
        gens = cycle_or_path_generators(base)
        side = 0  # the base vertices the generators move: the side, bar an odd path's middle
        for p in gens:
            side |= sum(1 << x for x, y in enumerate(p) if x != y)
        if side & fixed:
            gens, side = (), 0
        self._gens, self._side, self._maps = gens, side, None
        self._moved = moved | side
        self._inc = inc = [0] * base.order  # renumbered vertices on each base vertex
        self._ends = ends = []  # each renumbered vertex's endpoints, as one mask
        if self._moved:
            for i, t in enumerate(self._order):
                a, b = pairs[t]
                inc[a] |= 1 << i
                inc[b] |= 1 << i
                ends.append(1 << a | 1 << b)

    def moves(self, v: int) -> int:
        """Nonzero iff an endpoint of renumbered vertex v is a base vertex
        that the root's group moves."""
        if self._moved is None:
            self._build()
        a, b = self._token.pairs[self._order[v]]
        return (self._moved >> a | self._moved >> b) & 1

    def free(self, chosen: int) -> int:
        """The base vertices that the group of a node with this chosen set
        (renumbered) may move, as a bitmask; 0 when the group is trivial."""
        touched = self._fixed | _union(self._ends, chosen)
        free = 0
        for mask in self._classes:
            left = mask & ~touched
            if left & (left - 1):
                free |= left
        if not touched & self._side:
            free |= self._side
        return free

    def _twin_orbit(self, v: int, free: int) -> int:
        """The orbit of renumbered vertex v under the twin classes' part of
        the group that moves free: each endpoint of v in free ranges over
        the free members of its class."""
        a, b = self._token.pairs[self._order[v]]
        ra = self._class_of[a] & free if free >> a & 1 else 1 << a
        rb = self._class_of[b] & free if free >> b & 1 else 1 << b
        inc = self._inc
        if ra != rb:
            # the pairs with one end in ra and the other in rb
            return _union(inc, ra) & _union(inc, rb)
        # a and b lie in one class: the pairs inside its free members
        inside = seen = 0
        for x in members(ra):
            on = inc[x]
            inside |= on & seen
            seen |= on
        return inside

    def orbit(self, v: int, free: int) -> int:
        """The orbit of renumbered vertex v under the group that moves the
        base vertices in free, as a mask of renumbered vertices: v's twin
        orbit, closed under the side's generators when free holds the
        side.  The generators fix the root's forced pairs, so they map the
        renumbered vertices onto themselves."""
        out = self._twin_orbit(v, free)
        side = self._side
        if not side or side & ~free:
            return out
        if self._maps is None:
            pairs, through = self._token.pairs, self._token.through
            at = dict(zip(self._order, range(len(self._order))))
            ends = [pairs[t] for t in self._order]
            self._maps = [[at[through[p[a]][p[b]]] for a, b in ends] for p in self._gens]
        todo = out
        while todo:
            x = todo.bit_length() - 1
            todo ^= 1 << x
            for image in self._maps:
                y = image[x]
                if not out >> y & 1:
                    more = self._twin_orbit(y, free)
                    out |= more
                    todo |= more
        return out


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
    solved below, pruned by the orbits of its ``.base``'s twin classes and
    cycle or path side.

    Each search node first folds in degree-0/1 vertices, returns when its
    chosen size plus its candidate count cannot beat the incumbent, takes
    its chosen set as the new incumbent when no candidate is left, and
    otherwise builds a greedy clique cover of its candidates.  Walking the
    cover from its highest-numbered clique down, it returns once the
    chosen size plus the current clique number cannot beat the incumbent;
    otherwise it opens a child that includes the vertex and, once that
    child's search has ended, drops the vertex from the candidates.
    Excluding a vertex is that drop, not a child, so every child adds a
    vertex to the chosen set.

    The root folds every forced vertex of g in g's own labels.  In those
    labels it then takes a greedy maximal independent set of the vertices
    left, in label order, and a greedy clique cover of them.  The folds
    are exact and the cover's clique count bounds alpha of what they
    leave, so when the count equals the set's size, the forced vertices
    plus that set are a maximum set: the solve ends at node 1, with no
    renumbering, orbit table or components.

    Otherwise the vertices left are renumbered by ascending degree among
    themselves (ties to the lower label), and the search runs on their
    induced subgraph in that numbering, where the incumbent is a greedy
    maximal independent set taken in vertex order.  The cover then grows
    its cliques from low-degree vertices and branches on high-degree ones
    first.  The root splits the vertices left into the connected
    components of their induced subgraph and branches within each
    component on its own, from the greedy incumbent restricted to it.  A
    maximum set of a disconnected graph is the union of a maximum set of
    each component, so every node below covers, bounds and branches over
    its component's candidates only, against that component's incumbent.
    No clique of a cover of the whole rest spans two components and the
    greedy set never blocks across one, so a component's search is the
    one it would get alone; a connected rest is one component, whose
    search tree is the one an unsplit search makes.  A component whose
    cover has no more cliques than its incumbent has members returns
    without counting a node, so a root whose degree-order cover proves
    its greedy set still ends at node 1, with that set.  The components
    share the root's numbering, and each is searched as an ordinary node
    with no chosen vertex.  They are searched smallest first (ties to the
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
    and a node with an empty dirty mask folds nothing.

    For a token graph, a node's group permutes, inside each twin class of
    the base graph, the members that no chosen pair touches: root-forced,
    folded or branched in the node's component.  While no such pair
    touches a base vertex that the rotations and reflections of the base
    graph's cycle or path side move, the group holds those too.  After the
    search below the child that includes v ends, the loop drops v's whole
    orbit under that group within the component, skips the loop vertices
    the drop removed, and adds the neighbours of every dropped vertex to
    gone, which keeps the folds' dirty mask exact.
    The orbit of {a,b} is the closure of {a,b} under the twin orbits, which
    replace each endpoint that lies in a class and is untouched by any
    untouched member of that class, and under the side's generators when
    they are in the group.  The set-up waits for the first drop after which
    the loop goes on branching, so a solve that never gets there builds
    nothing, and the generators' maps wait for the first orbit that uses
    them.

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

    nodes_explored counts search nodes over all components.  Node 1 is
    the root: its folds, its certificate, and the start of each component's
    search, a node with no chosen vertex that adds no count.  The search
    does not recurse: each node is a generator that yields its children's
    arguments, and one driver loop keeps the open nodes of a component's
    search on a list, its start and then one per chosen vertex.  The
    driver counts each child as its parent yields it and raises
    BudgetExceededError once the count would exceed node_budget.  Every
    node folds, bounds and covers on entry.  The search's depth is bounded
    by memory, not by the interpreter's recursion limit.
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
    greedy = greedy_independent_set(masks, rest)
    if _cover(masks, rest, n)[0] == greedy.bit_count():
        witness = forced | greedy
        return MisResult(witness.bit_count(), witness, 1)
    order, adj = _renumber(masks, rest)
    orbits = None if token is None else _Orbits(token, forced, order)
    cand = (1 << len(order)) - 1
    greedy = greedy_independent_set(adj, cand)
    nodes = 1

    def branch(cand: int, chosen: int, dirty: int):
        # One search node: fold, bound, leaf, cover, then branch in the
        # reverse of the cover's order, yielding each child's arguments to
        # the driver below.  The candidates left when a vertex of clique k
        # comes up lie in cliques 1..k.  A child's vertex has a lower degree
        # than here only if it neighbours a candidate of N(v) or a vertex
        # this loop has dropped (gone).  With orbits, dropping v drops v's
        # orbit under the node's group (free, found at the node's first
        # orbit drop) and the cliques lose what it removed.  Once size + k
        # cannot beat the incumbent the node branches no more, so no orbit is
        # worth dropping.  The incumbent is read afresh after every child,
        # which may have raised it.
        nonlocal best_size, best_bits
        cand, chosen = _fold(adj, cand, dirty, chosen)
        size = chosen.bit_count()
        # `<=`, not `<`: with `<` an equal-size leaf replaces the incumbent's
        # witness, which only the pinned wheel and cycle JSON of
        # test_cli.py::test_sweep_report_bytes_are_pinned see
        if size + cand.bit_count() <= best_size:
            return
        if not cand:
            best_size, best_bits = size, chosen
            return
        count, cliques = _cover(adj, cand, best_size - size)
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
                child = cand & ~(adj[v] | bit)
                yield child, chosen | bit, child & (gone | _union(adj, adj[v] & cand))
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

    # the driver: the open nodes of a component's search, root first, each
    # a generator paused at its latest child, against the component's own
    # incumbent (best_size, best_bits).  It counts every child against the
    # budget and searches it to the end before its parent goes on
    found = 0
    for part in sorted(_components(adj, cand), key=int.bit_count):
        best_bits = greedy & part
        best_size = best_bits.bit_count()
        stack = [branch(part, 0, 0)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise BudgetExceededError(nodes)
            stack.append(branch(*child))
        found |= best_bits
    witness = forced | sum(1 << order[i] for i in members(found))
    return MisResult(witness.bit_count(), witness, nodes)
