"""References the tests check the package against; none of them ships.

- The constructions in the form the package used before it wrote token
  masks: frozensets of base-vertex pairs, built pair by pair and read from
  the lists of pairs they produce.  The tests compare the package's masks
  with ``indices_of`` of these sets, and convert between pairs, partner
  rows and masks with the helpers after them.
- The solver reference: ``max_independent_set_exhaustive``, an
  enumeration of independent sets for graphs of order at most
  ``EXHAUSTIVE_CAP``, with a canonical witness.
- The graph helpers ``delete_vertices`` and ``components``, with which the
  tests read H - S2 and the parts of a graph independently of the
  package's bitmask walks.
- Base graphs the tests share: the benchmark's sparse graph
  (``SPARSE_ORDER``, ``SPARSE_EDGES``), and ``planted_sides``, a hypothesis
  strategy for a cycle or path joined to twin classes, whose symmetries
  the tests know in advance.
"""

import itertools

from hypothesis import strategies as st

from token_alpha.errors import ParameterError
from token_alpha.graphs import Graph, members
from token_alpha.mis import MisResult, greedy_independent_set
from token_alpha.tokens import build_f2

EXHAUSTIVE_CAP = 30


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def path_union_pairs(walks):
    """Within a walk, pairs of positions of different parity; across two
    walks, pairs of positions of the same parity."""
    out = []
    evens, odds = [], []
    for walk in walks:
        even, odd = walk[0::2], walk[1::2]
        out += [_pair(x, y) for x in even for y in odd]
        out += [_pair(x, y) for x in even for y in evens]
        out += [_pair(x, y) for x in odd for y in odds]
        evens.extend(even)
        odds.extend(odd)
    return frozenset(out)


def cycle_pairs(m):
    """Every pair at odd cyclic distance d < m/2 (d <= m/2 for even m),
    plus {kh, (k+1)h} for even k when m and h = (m-1)/2 are odd."""
    h = (m - 1) // 2
    out = {_pair(x, (x + d) % m) for d in range(1, m // 2 + 1 - m % 2, 2) for x in range(m)}
    if m % 2 and h % 2:
        out.update(_pair(k * h % m, (k + 1) * h % m) for k in range(0, m - 1, 2))
    return frozenset(out)


def associated_pairs(n, s1, s2, mis_pairs):
    """I_R ∪ I_B of E_n + H under the join labeling; mis_pairs in H's labels."""
    h_side = [n + v for v in members(s2)]
    out = {(u, v) for u in members(s1) for v in h_side}
    rest = [u for u in range(n) if not s1 >> u & 1]
    out.update(itertools.combinations(rest, 2))
    out.update((n + a, n + b) for a, b in mis_pairs)
    return frozenset(out)


def extract_s1_s2_pairs(pairs, n):
    """(S1, S2) read pair by pair; S2 is the largest H-neighbourhood of an
    E_n vertex, ties to the lowest."""
    hoods = [0] * n
    s1 = 0
    for a, b in pairs:
        a, b = _pair(a, b)
        if a < n <= b:
            hoods[a] |= 1 << b - n
            s1 |= 1 << a
    if not s1:
        raise ParameterError("independent set contains no cross pair (i ∩ R is empty)")
    return s1, max(hoods, key=int.bit_count)


def max_ind_pairs_of_f2(g, removed):
    """The recipe's set of F2(g - removed): the parity set of the paths
    walked from their lower ends, else a matching of a clique, else the
    cycle set."""
    adj = g.masks
    left = (1 << g.order) - 1 & ~removed
    walks, walked = [], 0
    for v in range(g.order):
        if not (left ^ walked) >> v & 1 or (adj[v] & left).bit_count() > 1:
            continue
        walk, step = [], 1 << v
        while step and not step & (step - 1):
            walk.append(step.bit_length() - 1)
            walked |= step
            step = adj[walk[-1]] & left & ~walked
        walks.append(walk)
    if walked == left:
        return path_union_pairs(walks)
    survivors = members(left)
    if all(adj[v] & left == left ^ 1 << v for v in survivors):
        return frozenset(zip(survivors[0::2], survivors[1::2]))
    return cycle_pairs(g.order)


def construction_pairs(spec, base):
    """The harness's construction for a family row, as pairs."""
    n = spec.n
    if n is None:
        return max_ind_pairs_of_f2(base, 0)
    h = Graph(tuple(mask >> n for mask in base.masks[n:]))
    side = associated_pairs(n, 0, 0, max_ind_pairs_of_f2(h, 0))
    s2 = greedy_independent_set(h.masks, (1 << h.order) - 1)
    cross = associated_pairs(n, (1 << n) - 1, s2, max_ind_pairs_of_f2(h, s2))
    return cross if len(cross) > len(side) else side


def independent_sets(h):
    """Every independent set of h as a bitmask, the empty set included."""
    masks = h.masks
    for size in range(h.order + 1):
        for chosen in itertools.combinations(range(h.order), size):
            inside = sum(1 << v for v in chosen)
            if not any(masks[v] & inside for v in chosen):
                yield inside


def pairs_of_rows(rows):
    """The pairs that partner rows hold, each once, lower end first."""
    return frozenset((x, y) for x, row in enumerate(rows) for y in members(row) if y > x)


def rows_of_pairs(pairs, order):
    """Partner rows of pairs over order, each pair in its lower row."""
    rows = [0] * order
    for a, b in pairs:
        a, b = _pair(a, b)
        rows[a] |= 1 << b
    return rows


def mask_of_pairs(pairs, order):
    """The token mask of pairs over base order, by ``indices_of``."""
    return build_f2(Graph.build(order, [])).indices_of(pairs)


def pairs_of_mask(mask, order):
    """The pairs of a token mask over base order."""
    return frozenset(build_f2(Graph.build(order, [])).pairs[i] for i in members(mask))


def max_independent_set_exhaustive(g):
    """Enumerate independent sets in include-first vertex order.

    The first maximum-size set met in that order is the lexicographically
    least one, so the witness is canonical.  Hard-capped at order 30;
    larger graphs belong to max_independent_set.
    """
    n = g.order
    if n > EXHAUSTIVE_CAP:
        raise ValueError(
            f"order {n} exceeds the exhaustive cap of {EXHAUSTIVE_CAP}; "
            "use max_independent_set instead")
    adj = g.masks
    best_size = -1
    best_bits = 0
    nodes = 0

    def dfs(cand, size, chosen):
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


def delete_vertices(g, removed):
    """Induced subgraph on V(g) minus the bitmask removed, vertices
    renumbered to 0..k-1.

    Returns the subgraph together with the relabeling map: a list whose
    i-th entry is the original label of new vertex i (relative order of
    the surviving vertices is preserved).
    """
    if removed >> g.order:
        raise ParameterError(f"deletion set not within a graph of order {g.order}")
    kept = [v for v in range(g.order) if not removed >> v & 1]
    new_index = {old: new for new, old in enumerate(kept)}
    edges = [(new_index[u], new_index[v]) for u, v in g.sorted_edges()
             if not (removed >> u | removed >> v) & 1]
    return Graph.build(len(kept), edges), kept


def components(g):
    """Connected components, each sorted, ordered by smallest member."""
    masks = g.masks
    seen = [False] * g.order
    out = []
    for start in range(g.order):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            nbrs = masks[v]
            while nbrs:
                low = nbrs & -nbrs
                u = low.bit_length() - 1
                nbrs ^= low
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        out.append(tuple(sorted(comp)))
    return out


# the sparse base graph of the benchmark's frontier rows, in its checked-in
# labels: order 40, 30 edges, alpha of its token graph 393
SPARSE_ORDER = 40
SPARSE_EDGES = [
    (0, 19), (1, 16), (1, 25), (2, 16), (3, 14), (4, 5), (5, 35), (5, 38), (6, 11), (6, 25),
    (9, 30), (10, 19), (10, 28), (11, 15), (12, 17), (12, 26), (13, 16), (14, 19), (15, 19),
    (15, 32), (17, 23), (17, 30), (18, 23), (18, 27), (18, 35), (18, 36), (19, 32), (21, 24),
    (27, 38), (33, 34),
]


@st.composite
def planted_sides(draw, longest, most_classes, largest_class):
    """A cycle of 5..longest or a path of 4..longest vertices joined to up
    to most_classes classes of 1..largest_class true or false twins, each
    class adjacent to every vertex outside it, with the labels shuffled.
    Draws (cyclic, graph, the side's labels in walk order)."""
    cyclic = draw(st.booleans())
    k = draw(st.integers(5 if cyclic else 4, longest))
    classes = draw(st.lists(st.tuples(st.integers(1, largest_class), st.booleans()),
                            max_size=most_classes))
    kind = [None] * k   # each vertex's class, None on the side
    for c, (size, _) in enumerate(classes):
        kind += [c] * size
    labels = draw(st.permutations(range(len(kind))))
    edges = [(i, i + 1) for i in range(k - 1)] + ([(k - 1, 0)] if cyclic else [])
    for u, v in itertools.combinations(range(len(kind)), 2):
        if kind[v] is not None and (kind[u] != kind[v] or classes[kind[u]][1]):
            edges.append((u, v))
    return (cyclic, Graph.build(len(kind), [(labels[u], labels[v]) for u, v in edges]),
            [labels[i] for i in range(k)])
