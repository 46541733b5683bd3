"""The explicit independent-set constructions, checked against the solver."""

from token_alpha import graphs
from token_alpha.constructions import (
    AssociatedSetInput,
    associated_independent_set,
    cycle_independent_set,
    path_union_independent_set,
)
from token_alpha.graphs import generate, members
from token_alpha.mis import is_independent, max_independent_set
from token_alpha.tokens import build_f2, partner_rows_mask

# Each construction writes its pairs as partner rows (row x holds the
# partners of base vertex x); partner_rows_mask turns them into a set of
# token vertices, a bitmask over the token graph's vertices.  Its members
# read through tg.pairs give the pairs in lexicographic order.

# Parity construction for P3 ⊔ P2: cross-component pairs with matching
# position parity plus within-component pairs with mixed parity.  The
# paths are given as walks in the labels generate() uses: 0-1-2 and 3-4.
tg = build_f2(generate(graphs.path_union([3, 2])))
chosen = partner_rows_mask(path_union_independent_set([[0, 1, 2], [3, 4]], 5))
print("construction:", [tg.pairs[i] for i in members(chosen)])
print("independent:", is_independent(tg.graph, chosen))
print("size:", chosen.bit_count(), " solver:", max_independent_set(tg.graph).size,
      " formula (m^2+t^2-2t)/4:", (25 + 1 - 2) // 4)

# Associated set for the fan E3 + P5 (n = (m+1)/2, the exceptional case):
# pair all hub vertices with an alternating path set, then fill the
# leftover path vertices with the parity construction of what remains:
# path vertices 1 and 3, two walks of one vertex each, in the path's labels.
# S1 and S2 are bitmasks: bit u of S1 is hub u, bit v of S2 is path vertex v.
n, m = 3, 5
inp = AssociatedSetInput(
    n=n,
    s1=0b111,        # every hub
    s2=0b10101,      # path vertices 0, 2, 4
    mis_h_minus_s2=path_union_independent_set([[1], [3]], m),   # the pair {1,3}
)
assoc = associated_independent_set(inp)
tg = build_f2(generate(graphs.fan(n, m)))
print()
print("fan(3,5) associated set:", [tg.pairs[i] for i in members(assoc)])
print("independent:", is_independent(tg.graph, assoc))
print("size:", assoc.bit_count(), " solver:", max_independent_set(tg.graph).size)

# Cycle construction for C7: every pair at odd cyclic distance d < h,
# where h = (7-1)/2 = 3.  Since h is odd, the distance-3 pairs form a
# 7-cycle in F2(C7) ({0,3}, {3,6}, {6,2}, ...) and every second one is taken.
chosen = partner_rows_mask(cycle_independent_set(7))
tg = build_f2(generate(graphs.cycle(7)))
print()
print("C7 construction:", [tg.pairs[i] for i in members(chosen)])
print("independent:", is_independent(tg.graph, chosen))
print("size:", chosen.bit_count(), " solver:", max_independent_set(tg.graph).size)
