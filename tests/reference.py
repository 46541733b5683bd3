"""Reference builders for the constructions, in the form the package used
before it wrote token masks: frozensets of base-vertex pairs, built pair by
pair and read from the lists of pairs they produce.  The tests compare the
package's masks with ``indices_of`` of these sets, and convert between
pairs, partner rows and masks with the helpers at the end.
"""

import itertools

from token_alpha.errors import ParameterError
from token_alpha.graphs import Graph, members
from token_alpha.mis import greedy_independent_set
from token_alpha.tokens import build_f2


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
    s2 = greedy_independent_set(h.masks)
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
