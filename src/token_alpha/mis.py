"""The exact maximum independent set solver: a bitset branch and bound for
the token graphs the harness verifies.  It returns its witness as a
bitmask of the graph's vertices (``MisResult.witness``), the form
``is_independent`` checks and the search itself works in.  The tests hold
a subset-enumeration oracle for small graphs that it must agree with.

The search is the independent-set form of the colour-ordered
maximum-clique search (Tomita et al., MCS, WALCOM 2010; San Segundo et
al., BBMC, Optim. Lett. 2013).  A node first folds forced vertices
(degree 0 or 1 among the candidates) into its chosen set.  It returns when
its chosen size plus its candidate count cannot beat the incumbent, and
takes its chosen set as the new incumbent when no candidate is left.
Otherwise it covers the candidates with greedy cliques, numbered 1..K in
the order they are built.  An independent set meets each clique at most
once, so the candidates in cliques 1..k hold at most k of its vertices.
Walking the cover from its highest-numbered clique down, the node returns
once its chosen size plus the current clique number cannot beat the
incumbent; otherwise it opens a child that includes the vertex and, once
that child's search has ended, drops the vertex from the candidates.
Excluding a vertex is that drop, not a child, so every child adds a
vertex to the chosen set.  The search does not recurse: each node is a
generator paused at the child it last yielded, and one driver loop keeps
the open nodes on a list, so the search's depth is bounded by memory, not
by the interpreter's recursion limit.

The folds always take the lowest forced vertex first, and find it from a
worklist, as reduction-based solvers do (Akiba and Iwata, TCS 2016): a
dirty mask, outside which every candidate is known to have degree >= 2.
A candidate loses degree only through removed candidates, so a degree-1
fold adds the neighbours of the neighbour it removes, and a child starts
from its vertices next to a candidate its parent removed: a candidate
neighbour of the branch vertex, or a vertex the parent's loop already
dropped.  The lowest dirty vertex of degree <= 1 is then the one a full
rescan after every fold would find, and a node with an empty dirty mask
folds nothing.

The root folds in the input's own labels.  It reads the vertices that
have a neighbour as one mask, from one byte string, and its isolated
vertices, the rest, join the chosen set at once, not peeled one by one,
each peel copying a |V|-bit mask: an isolated vertex has no neighbour,
so folding it first changes no degree and no later fold.  Every other
vertex starts dirty.  The root then tries to prove its answer there,
with a greedy independent set and a greedy clique cover of the vertices
left, both built in label order.  The
folds are exact and the cover's clique count bounds alpha of what they
leave, so when the count equals the set's size, the forced vertices plus
that set are a maximum set: the solve ends at node 1 with nothing
renumbered, and with no orbit table or components.  The lexicographic labels of a token
graph often carry such a proof: those of every path union of total order
2..14 do.

Otherwise the vertices left are renumbered by ascending degree among
themselves, ties to the lower label, as colour-ordered clique solvers set
their initial order once before the search.  The rest of the search runs
on that copy, where the incumbent is a greedy maximal independent set
taken in vertex order, the cover grows its cliques from low-degree
vertices and the node branches on high-degree ones first; the witness is
mapped back to the input's labels.  No vertex left has degree <= 1, so
the search starts from an empty dirty mask.

The renumbered vertices are split into the connected components of their
induced subgraph, and each is searched on its own, as branch-and-reduce
solvers do (Akiba and Iwata): every node then covers, bounds and branches
over its component's candidates only, against that component's share of
the greedy incumbent.  The token graph of a disconnected base graph is
disconnected, its parts being the F2 of each component and the products
of pairs of them (Fabila-Monroy et al., Token graphs, Graphs Combin.
2012), and the root's folds split more: the token graph of the sparse
base graph of order 40 with 30 edges solves in 6 706 nodes.  A maximum
set of a disconnected graph is the union of a maximum set of each
component.  No clique of a cover of the whole rest spans two components
and the greedy set never blocks across one, so a component's search is
the one it would get alone; a connected rest is one component, whose
search tree is the one an unsplit search makes.  Each component starts as
a node with no chosen vertex that adds no count; one whose cover has no
more cliques than its incumbent has members yields no child, so a root
whose degree-order cover proves its greedy set still ends at node 1.  The
components are searched smallest first (ties to the lower vertex); the
order changes neither the node total nor the witness, only where a budget
too small for the whole search runs out: on the cheapest nodes, having
finished the most components.

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
touches a vertex they move.  The chosen pairs are the root's forced ones
and those folded or branched in the node's component.  Each generator
then fixes every touched base vertex, so the group fixes every chosen
pair.  Once the search below the child that includes v has ended, the
node drops v's whole orbit under its group, met with its component, from
the candidates: a set of the node that holds an image of v is the image
of one that holds v, which the child has searched.  The orbit tables are
built at the search's first orbit drop after which the loop goes on
branching, so a solve that never gets there builds none.  The join
families E_n + H have E_n as a twin class, and K_m is one too, so
split(5,14) solves in 6 nodes; cycle(41), whose group is the dihedral
group of C_41, solves in 960.

The invariant that makes this sound is that a node's candidates are
invariant under its group.  Every removal is either N[p] for a chosen
pair p, which an automorphism fixing p's endpoints preserves, or a whole
orbit under an ancestor's group, which contains the node's: the touched
vertices only grow down the tree, so a class's free members only shrink
and the side's generators, once they leave the group, never rejoin it.
Splitting keeps this sound, though the group fixes no pair chosen in
another component.  The group fixes the root's forced pairs, so it maps
the vertices the root's folds leave onto themselves, and each of their
components onto a component.  If an element of the group takes v to a
vertex of v's component C, it therefore maps C onto C: v's orbit met with
C is v's orbit under the stabiliser of C.  That stabiliser fixes the
node's chosen pairs and maps the node's candidates, which lie in C, onto
themselves: each removal was N[p] for a chosen p, or an orbit met with C
under the stabiliser of C in an ancestor's group, which contains the
node's.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BudgetExceededError, ParameterError
from .graphs import Graph, cycle_or_path_generators, members, twin_class_of
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
    return order, tuple([_union(bit, adj[v] & cand) for v in order])


class _Orbits:
    """A node's group and the orbits under it of the search's renumbered
    vertices, pairs {a,b} of a base graph.

    ``free(chosen)`` gives the group of a node with that chosen set
    (renumbered) as the base vertices it moves: the members of each twin
    class that no chosen pair touches, where two or more are left, and the
    whole cycle or path side (``graphs.cycle_or_path_generators``) while no
    chosen pair touches it.  The root's forced pairs count as chosen at
    every node; they are taken out once, here, so ``free`` reads only the
    node's own chosen set: each class is kept less its forced members, and
    a side they touch never joins the group.  ``orbit(v, free)`` is v's orbit under that group: the
    closure of v under the twin orbits, which replace each endpoint in free
    by any free member of its class, and under the side's generators when
    free holds the side.  A vertex that the group does not move is its own
    orbit.  Every table is built here: each base vertex's class
    (``graphs.twin_class_of``, read once) and the renumbered vertices on it
    (``inc``), each renumbered vertex's two endpoints, also as one mask
    from which ``free`` reads the base vertices a chosen set touches, and
    each generator's map of the renumbered vertices.
    """

    def __init__(self, token: TokenGraph, forced: int, order: list[int]):
        base, pairs, through = token.base, token.pairs, token.through
        fixed = 0  # base vertices on the root's forced pairs
        for t in members(forced):
            a, b = pairs[t]
            fixed |= 1 << a | 1 << b
        self._class_of = class_of = twin_class_of(base)
        # each class less its forced members, kept while two or more are left
        self._classes = {left for c in class_of if (left := c & ~fixed) & (left - 1)}
        gens = cycle_or_path_generators(base, class_of)
        side = 0  # the base vertices the generators move: the side, bar an odd path's middle
        for p in gens:
            side |= sum(1 << x for x, y in enumerate(p) if x != y)
        if side & fixed:
            # a generator that moves a forced pair maps some renumbered
            # vertex onto it, which has no number: such a side never joins
            # the group
            gens, side = (), 0
        self._side = side
        self._ends = ends = [pairs[t] for t in order]   # each renumbered vertex's endpoints
        self._end_bits = [1 << a | 1 << b for a, b in ends]   # the same, as one mask
        self._inc = inc = [0] * base.order  # renumbered vertices on each base vertex
        for i, (a, b) in enumerate(ends):
            inc[a] |= 1 << i
            inc[b] |= 1 << i
        at = dict(zip(order, range(len(order))))
        self._maps = [[at[through[p[a]][p[b]]] for a, b in ends] for p in gens]

    def free(self, chosen: int) -> int:
        """The base vertices that the group of a node with this chosen set
        (renumbered) may move, as a bitmask; 0 when the group is trivial."""
        if not self._classes and not self._side:
            # so no node pays the union below on a base whose twins the
            # forced pairs all touch, such as the benchmark's sparse graph
            return 0
        touched = _union(self._end_bits, chosen)
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
        a, b = self._ends[v]
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
    """Exact maximum independent set of g, by the branch and bound the
    module describes, raising BudgetExceededError once the count of search
    nodes would exceed node_budget.

    g is a plain graph or a token graph, whose ``.graph`` is then the g
    solved, pruned by the orbits of its ``.base``'s twin classes and cycle
    or path side; the witness is in g's labels.  nodes_explored counts
    search nodes over all components.  Node 1 is the root: its folds, its
    certificate and the start of each component's search.  The driver
    counts each child as its parent yields it, and every node folds,
    bounds and covers on entry.
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
    # the vertices with a neighbour, as one mask read from one string of
    # binary digits, highest vertex first; the isolated rest join at once
    rest = int(bytes(map(bool, reversed(masks))).translate(bytes.maketrans(b"\0\1", b"01")), 2)
    rest, forced = _fold(masks, rest, rest, (1 << n) - 1 ^ rest)
    greedy = greedy_independent_set(masks, rest)
    if _cover(masks, rest, n)[0] == greedy.bit_count():
        witness = forced | greedy
        return MisResult(witness.bit_count(), witness, 1)
    order, adj = _renumber(masks, rest)
    orbits = None   # made at the search's first orbit drop
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
        nonlocal best_size, best_bits, orbits
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
                if token is None or size + k <= best_size:
                    continue
                if orbits is None:
                    orbits = _Orbits(token, forced, order)
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
