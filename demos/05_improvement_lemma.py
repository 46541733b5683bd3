"""Improvement lemma in action: any independent set of F2(E_n + H) with a
cross pair can be replaced by an associated set at least as large."""

import random

from token_alpha import graphs
from token_alpha.constructions import (
    AssociatedSetInput,
    associated_independent_set,
    extract_s1_s2,
)
from token_alpha.graphs import Graph, generate, members
from token_alpha.harness import (
    draw_tables,
    random_independent_set_with_cross,
    run_lemma_trials,
)
from token_alpha.mis import max_independent_set
from token_alpha.tokens import build_f2, join_partition

n, m = 3, 5
h = generate(graphs.cycle(m))
base = generate(graphs.wheel(n, m))
tg = build_f2(base)
cross = members(join_partition(tg, n).r)   # token vertices pairing a hub with a cycle vertex
tables = draw_tables(tg.graph)    # built once, read by every draw
rng = random.Random(7)

print(f"wheel({n},{m}): improving random independent sets")
for trial in range(5):
    # a set of token vertices is a bitmask over them
    _, chosen = random_independent_set_with_cross(tables, cross, rng)
    s1, s2 = extract_s1_s2(chosen, n, base.order)   # bitmasks over the hubs and over C_m

    # F2(H - S2) is solved here by the exact solver, an independent route;
    # run_lemma_trials takes the same maximum set from the construction.
    # H - S2 keeps the cycle vertices outside S2, renumbered 0..k-1 in
    # order.  The associated set takes the solver's set as partner rows in
    # C_m's labels: row x holds the partners of cycle vertex x.
    kept = members((1 << m) - 1 & ~s2)
    sub = Graph.build(len(kept), [(i, j) for j, y in enumerate(kept)
                                  for i, x in enumerate(kept[:j]) if h.masks[x] >> y & 1])
    sub_tg = build_f2(sub)
    mis2 = [0] * m
    for i in members(max_independent_set(sub_tg.graph).witness):
        a, b = sub_tg.pairs[i]
        mis2[kept[a]] |= 1 << kept[b]

    improved = associated_independent_set(AssociatedSetInput(
        n=n, s1=s1, s2=s2, mis_h_minus_s2=mis2))   # a token mask of F2(wheel)
    print(f"  trial {trial}: |I| = {chosen.bit_count():2d} -> "
          f"|I_S1,S2| = {improved.bit_count():2d}"
          f"   S1 = {members(s1)}, S2 = {members(s2)}")

# The aggregated form the harness exposes, over many seeded trials.
report = run_lemma_trials(n, graphs.cycle(m), trials=200, seed=42)
print(f"\n200 trials: failures = {len(report.failures)}, "
      f"min margin = {report.min_margin}, mean margin = {report.mean_margin:.2f}")
