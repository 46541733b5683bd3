"""Build 2-token graphs of small families and inspect their structure."""

from token_alpha import graphs
from token_alpha.graphs import generate
from token_alpha.tokens import build_f2, join_partition, render_token_graph

# The token graph of P4: one vertex per 2-subset, adjacent when the
# symmetric difference is a path edge.
tg = build_f2(generate(graphs.path(4)))
print("F2(P4):", tg.graph.order, "vertices,", tg.graph.edge_count, "edges")
for i, j in tg.graph.sorted_edges():
    print(f"  {tg.pairs[i]} ~ {tg.pairs[j]}")

# Every base edge contributes one token edge per third vertex, so
# |E(F2(G))| = (|V| - 2) |E(G)| for any simple graph.
for spec in (graphs.cycle(6), graphs.complete(5), graphs.fan(2, 4)):
    g = generate(spec)
    tg = build_f2(g)
    print(f"{spec.label()}: ({g.order} - 2) * {g.edge_count} = {tg.graph.edge_count}")

# A join base graph splits the token vertices into both-left, both-right
# and mixed regions; the two pure regions are never adjacent to each other.
fan = generate(graphs.fan(2, 3))
tg = build_f2(fan)
part = join_partition(tg, 2)
print("fan(2,3) partition sizes:", len(part.b1), len(part.b2), len(part.r))

# Token graphs serialize with their pair mapping in the header.
print()
print(render_token_graph(build_f2(generate(graphs.path(3)))))
