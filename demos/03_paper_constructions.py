"""The explicit independent-set constructions, checked against the solver."""

from token_alpha import graphs
from token_alpha.constructions import (
    AssociatedSetInput,
    associated_independent_set,
    cycle_independent_set,
    path_union_independent_set,
)
from token_alpha.graphs import generate
from token_alpha.mis import is_independent, max_independent_set
from token_alpha.tokens import build_f2

# Parity construction for P3 ⊔ P2: cross-component pairs with matching
# position parity plus within-component pairs with mixed parity.  The
# paths are given as walks in the labels generate() uses: 0-1-2 and 3-4.
chosen = path_union_independent_set([[0, 1, 2], [3, 4]])
print("construction:", sorted(chosen))

tg = build_f2(generate(graphs.path_union([3, 2])))
print("independent:", is_independent(tg.graph, tg.indices_of(chosen)))
print("size:", len(chosen), " solver:", max_independent_set(tg.graph).size,
      " formula (m^2+t^2-2t)/4:", (25 + 1 - 2) // 4)

# Associated set for the fan E3 + P5 (n = (m+1)/2, the exceptional case):
# pair all hub vertices with an alternating path set, then fill the
# leftover path vertices with the parity construction of what remains.
# S1 and S2 are bitmasks: bit u of S1 is hub u, bit v of S2 is path vertex v.
n, m = 3, 5
inp = AssociatedSetInput(
    n=n,
    s1=0b111,        # every hub
    s2=0b10101,      # path vertices 0, 2, 4
    mis_h_minus_s2=frozenset([(1, 3)]),
)
assoc = associated_independent_set(inp)
tg = build_f2(generate(graphs.fan(n, m)))
print()
print("fan(3,5) associated set:", sorted(assoc))
print("independent:", is_independent(tg.graph, tg.indices_of(assoc)))
print("size:", len(assoc), " solver:", max_independent_set(tg.graph).size)

# Cycle construction for C7: every pair at odd cyclic distance d < h,
# where h = (7-1)/2 = 3.  Since h is odd, the distance-3 pairs form a
# 7-cycle in F2(C7) ({0,3}, {3,6}, {6,2}, ...) and every second one is taken.
chosen = cycle_independent_set(7)
tg = build_f2(generate(graphs.cycle(7)))
print()
print("C7 construction:", sorted(chosen))
print("independent:", is_independent(tg.graph, tg.indices_of(chosen)))
print("size:", len(chosen), " solver:", max_independent_set(tg.graph).size)
