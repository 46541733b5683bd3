"""Improvement lemma in action: any independent set of F2(E_n + H) with a
cross pair can be replaced by an associated set at least as large."""

import random

from token_alpha import graphs
from token_alpha.constructions import (
    AssociatedSetInput,
    associated_independent_set,
    extract_s1_s2,
)
from token_alpha.graphs import VertexSet, delete_vertices, generate
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
cross = join_partition(tg, n).r   # token vertices pairing a hub with a cycle vertex
tables = draw_tables(tg.graph)    # built once, read by every draw
rng = random.Random(7)

print(f"wheel({n},{m}): improving random independent sets")
for trial in range(5):
    indices = random_independent_set_with_cross(tables, cross, rng)
    pairs = frozenset(tg.pairs[i] for i in indices)
    s1, s2 = extract_s1_s2(pairs, n)   # bitmasks over the hubs and over C_m
    s1_members = [u for u in range(n) if s1 >> u & 1]
    s2_members = [v for v in range(m) if s2 >> v & 1]

    # F2(H - S2) is solved here by the exact solver, an independent route;
    # run_lemma_trials takes the same maximum set from the construction.
    sub, kept = delete_vertices(h, VertexSet(m, tuple(s2_members)))
    sub_tg = build_f2(sub)
    mis2 = frozenset((kept[a], kept[b]) for a, b in
                     (sub_tg.pairs[i]
                      for i in max_independent_set(sub_tg.graph).witness))

    improved = associated_independent_set(AssociatedSetInput(
        n=n, s1=s1, s2=s2, mis_h_minus_s2=mis2))
    print(f"  trial {trial}: |I| = {len(pairs):2d} -> |I_S1,S2| = {len(improved):2d}"
          f"   S1 = {s1_members}, S2 = {s2_members}")

# The aggregated form the harness exposes, over many seeded trials.
report = run_lemma_trials(n, graphs.cycle(m), trials=200, seed=42)
print(f"\n200 trials: failures = {len(report.failures)}, "
      f"min margin = {report.min_margin}, mean margin = {report.mean_margin:.2f}")
