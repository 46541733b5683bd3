"""Exact maximum independent sets: the enumeration oracle vs branch and bound."""

import random

from token_alpha import graphs
from token_alpha.graphs import Graph, generate, members
from token_alpha.mis import max_independent_set, max_independent_set_exhaustive
from token_alpha.tokens import build_f2

# Both solvers on the token graph of C5: alpha = floor(5 * 2 / 2) = 5.
tg = build_f2(generate(graphs.cycle(5)))
oracle = max_independent_set_exhaustive(tg.graph)
fast = max_independent_set(tg.graph)
print("F2(C5): exhaustive =", oracle.size, " branch-and-bound =", fast.size)
print("oracle witness (lexicographically least):",
      [tg.pairs[i] for i in members(oracle.witness)])

# The branch-and-bound solver handles the 91-vertex token graph of a fan
# in a few dozen nodes.  Each node covers its candidates with greedy
# cliques, branches on the highest-numbered cliques first, and stops once
# the number of cliques left cannot beat the best set found so far.  The
# search runs with the vertices renumbered by ascending degree, so the
# 276-vertex token graph of fan(6,18) takes a handful of nodes; searched in
# the token graph's lexicographic numbering, it takes 270 968.
for n, m in ((6, 8), (6, 18)):
    tg = build_f2(generate(graphs.fan(n, m)))
    result = max_independent_set(tg.graph)
    print(f"F2(fan({n},{m})): alpha = {result.size} "
          f"({tg.graph.order} vertices, {result.nodes_explored} nodes)")

# Passed the token graph rather than its .graph, the solver also prunes by
# the base graph's symmetries.  The vertices of K_m are interchangeable,
# and so are those of E_n in a join E_n + K_m.  Once the search has
# explored the sets holding a pair, it drops every pair that such a
# permutation (fixing the pairs already chosen) maps it to.  The plain
# search on .graph is still open on F2(K_20) after 100 000 nodes and on
# split(6,18) after 300 000.
for spec in (graphs.complete(20), graphs.split(6, 18)):
    tg = build_f2(generate(spec))
    result = max_independent_set(tg)
    print(f"F2({spec.label()}): alpha = {result.size} "
          f"({tg.graph.order} vertices, {result.nodes_explored} nodes with orbit pruning)")

# Random cross-check, the same experiment the acceptance suite runs at scale.
rng = random.Random(1)
agree = 0
for _ in range(50):
    n = rng.randint(2, 14)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    g = Graph.build(n, edges)
    agree += (max_independent_set(g).size
              == max_independent_set_exhaustive(g).size)
print(f"random graphs: {agree}/50 solver sizes agree with the oracle")
