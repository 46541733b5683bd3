"""Exact maximum independent sets: branch and bound against the closed forms."""

from token_alpha import graphs
from token_alpha.formulas import alpha_closed_form
from token_alpha.graphs import generate, members
from token_alpha.mis import is_independent, max_independent_set
from token_alpha.tokens import build_f2

# The solver on the token graph of C5, whose closed form is
# floor(5 * floor(5/2) / 2) = 5.
spec = graphs.cycle(5)
tg = build_f2(generate(spec))
result = max_independent_set(tg.graph)
print("F2(C5): closed form =", alpha_closed_form(spec).value,
      " branch-and-bound =", result.size)
print("witness:", [tg.pairs[i] for i in members(result.witness)],
      " independent:", is_independent(tg.graph, result.witness))

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
# and so are those of E_n in a join E_n + K_m; a cycle, or a wheel's rim,
# can be rotated and reflected.  Once the search has explored the sets
# holding a pair, it drops every pair that such a permutation (fixing the
# pairs already chosen) maps it to.  The plain search on .graph is still
# open on F2(K_20) after 100 000 nodes and on split(6,18) after 300 000,
# and takes 217 nodes on cycle(29).
for spec in (graphs.complete(20), graphs.split(6, 18), graphs.cycle(29)):
    tg = build_f2(generate(spec))
    result = max_independent_set(tg)
    print(f"F2({spec.label()}): alpha = {result.size} "
          f"({tg.graph.order} vertices, {result.nodes_explored} nodes with orbit pruning)")

# The cross-check the acceptance suite runs at scale: on every row of a
# small grid of the four join families, the solver's alpha is the closed form.
specs = [family(n, m) for family in (graphs.fan, graphs.wheel, graphs.split,
                                     graphs.complete_bipartite)
         for n in range(1, 4) for m in range(3, 8)]
agree = sum(max_independent_set(build_f2(generate(spec))).size
            == alpha_closed_form(spec).value for spec in specs)
print(f"family rows: {agree}/{len(specs)} solver sizes agree with the closed form")
