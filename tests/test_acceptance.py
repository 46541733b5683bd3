"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every closed form is checked against the exact solver on its full grid;
constructions are re-verified for independence before their sizes count.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import random
import time

from token_alpha import graphs
from token_alpha.formulas import (
    alpha_closed_form,
    alpha_complete_bipartite,
    alpha_cycle,
    alpha_path,
    alpha_path_union,
)
from token_alpha.graphs import Graph, generate, join
from token_alpha.harness import (
    compositions,
    construction_pairs,
    evaluate_row,
    run_lemma_trials,
)
from token_alpha.mis import is_independent, max_independent_set
from token_alpha.tokens import build_f2

from reference import max_independent_set_exhaustive

FAN_BUDGET = 10 ** 8


def _report(number, name, failures, detail, elapsed):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} {detail} ({elapsed:.1f}s)")
    assert not failures, f"criterion {number} ({name}): {failures[:5]}"


def _solve_checked(base, node_budget=None):
    """Solver call with the witness-validity check criterion 10 requires."""
    tg = build_f2(base)
    result = max_independent_set(tg.graph, node_budget=node_budget)
    assert result.witness.bit_count() == result.size
    assert is_independent(tg.graph, result.witness)
    return result.size


def _random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.build(n, edges)


def test_criterion_01_paths():
    start = time.perf_counter()
    failures = []
    for m in range(2, 13):
        got = _solve_checked(generate(graphs.path(m)))
        if got != alpha_path(m):
            failures.append((m, got, alpha_path(m)))
    elapsed = time.perf_counter() - start
    _report(1, "paths", failures, "m in [2,12], formula = solver", elapsed)
    assert elapsed < 5.0


def test_criterion_02_cycles():
    start = time.perf_counter()
    failures = []
    for m in range(3, 13):
        spec = graphs.cycle(m)
        base = generate(spec)
        chosen = construction_pairs(spec, base)
        tg = build_f2(base)
        got = _solve_checked(base)
        independent = is_independent(tg.graph, chosen)
        if not (alpha_cycle(m) == chosen.bit_count() == got and independent):
            failures.append((m, alpha_cycle(m), chosen.bit_count(), got, independent))
    elapsed = time.perf_counter() - start
    _report(2, "cycles", failures, "m in [3,12], formula = construction = solver", elapsed)
    assert elapsed < 10.0


def test_criterion_03_path_unions():
    start = time.perf_counter()
    failures = []
    rows = 0
    for m in range(2, 13):
        for parts in compositions(m):
            rows += 1
            spec = graphs.path_union(parts)
            base = generate(spec)
            chosen = construction_pairs(spec, base)
            tg = build_f2(base)
            formula = alpha_path_union(parts)
            solver = _solve_checked(base)
            independent = is_independent(tg.graph, chosen)
            if not (formula == chosen.bit_count() == solver and independent):
                failures.append((parts, formula, chosen.bit_count(), solver, independent))
    elapsed = time.perf_counter() - start
    _report(3, "path-unions", failures,
            f"{rows} compositions of m in [2,12], formula = construction = solver",
            elapsed)
    assert elapsed < 60.0


def test_criterion_04_fans():
    start = time.perf_counter()
    failures = []
    exceptional_rows = 0
    for n in range(1, 7):
        for m in range(1, 9):
            result = alpha_closed_form(graphs.fan(n, m))
            exceptional_rows += result.exceptional
            got = _solve_checked(generate(graphs.fan(n, m)), node_budget=FAN_BUDGET)
            if got != result.value:
                failures.append((n, m, got, result.value))
    elapsed = time.perf_counter() - start
    _report(4, "fans", failures,
            f"n in [1,6], m in [1,8], {exceptional_rows} exceptional rows", elapsed)
    assert exceptional_rows > 0


def test_criterion_05_wheels():
    start = time.perf_counter()
    failures = []
    for n in range(1, 6):
        for m in range(3, 9):
            result = alpha_closed_form(graphs.wheel(n, m))
            if (m, n) in ((3, 1), (3, 2)):
                expected_value = 2 if n == 1 else 3
                if not (result.exceptional and result.value == expected_value):
                    failures.append(("branch", n, m, result))
            got = _solve_checked(generate(graphs.wheel(n, m)))
            if got != result.value:
                failures.append((n, m, got, result.value))
    elapsed = time.perf_counter() - start
    _report(5, "wheels", failures,
            "n in [1,5], m in [3,8], exceptional rows fire and match", elapsed)


def test_criterion_06_splits():
    start = time.perf_counter()
    failures = []
    branches = set()
    for n in range(1, 7):
        for m in range(1, 9):
            result = alpha_closed_form(graphs.split(n, m))
            branches.add(result.formula_id)
            got = _solve_checked(generate(graphs.split(n, m)))
            if got != result.value:
                failures.append((n, m, got, result.value))
    if branches != {"split.n1", "split.n2", "split.general"}:
        failures.append(("branches", branches))
    elapsed = time.perf_counter() - start
    _report(6, "splits", failures, "n in [1,6], m in [1,8], all three branches",
            elapsed)


def test_criterion_07_complete_bipartite():
    start = time.perf_counter()
    failures = []
    for n in range(1, 8):
        for m in range(1, 8):
            expected = alpha_complete_bipartite(n, m)
            got = _solve_checked(generate(graphs.complete_bipartite(n, m)))
            if got != expected:
                failures.append((n, m, got, expected))
    elapsed = time.perf_counter() - start
    _report(7, "complete-bipartite", failures, "n, m in [1,7]", elapsed)


def test_criterion_08_lemma_dominance():
    start = time.perf_counter()
    failures = []
    trials_run = 0
    h_families = {"path": graphs.path, "cycle": graphs.cycle, "complete": graphs.complete}
    for h_name, h_builder in sorted(h_families.items()):
        for n in range(2, 5):
            for m in range(3, 7):
                trials = list(run_lemma_trials(n, h_builder(m), trials=200,
                                               seed=n * 100 + m))
                trials_run += len(trials)
                failed = [i for i, t in enumerate(trials) if t.verdict != "AGREE"]
                if failed:
                    failures.append((h_name, n, m, failed))
    elapsed = time.perf_counter() - start
    _report(8, "lemma-dominance", failures,
            f"{trials_run} trials, associated set independent and >= input size",
            elapsed)


def test_criterion_09_join_lower_bound():
    start = time.perf_counter()
    rng = random.Random(90909)
    failures = []
    for trial in range(100):
        g1 = _random_graph(rng, rng.randint(2, 6), rng.choice([0.2, 0.4, 0.6, 0.8]))
        g2 = _random_graph(rng, rng.randint(2, 6), rng.choice([0.2, 0.4, 0.6, 0.8]))
        whole = max_independent_set(build_f2(join(g1, g2)).graph).size
        parts = (max_independent_set(build_f2(g1).graph).size
                 + max_independent_set(build_f2(g2).graph).size)
        if whole < parts:
            failures.append((trial, whole, parts))
    elapsed = time.perf_counter() - start
    _report(9, "join-lower-bound", failures, "100 random joins", elapsed)


def test_criterion_10_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(101010)
    failures = []
    for trial in range(500):
        n = rng.randint(1, 18)
        p = rng.choice([0.1, 0.3, 0.5, 0.8])
        g = _random_graph(rng, n, p)
        exhaustive = max_independent_set_exhaustive(g)
        solver = max_independent_set(g)
        if exhaustive.size != solver.size:
            failures.append((trial, n, p, exhaustive.size, solver.size))
        if not (is_independent(g, exhaustive.witness)
                and is_independent(g, solver.witness)):
            failures.append((trial, n, p, "invalid witness"))
    elapsed = time.perf_counter() - start
    _report(10, "oracle-equivalence", failures, "500 random graphs <= 18 vertices",
            elapsed)


def test_criterion_11_token_edge_count():
    start = time.perf_counter()
    rng = random.Random(111111)
    failures = []
    for trial in range(200):
        n = rng.randint(2, 12)
        g = _random_graph(rng, n, rng.random())
        tg = build_f2(g)
        if tg.graph.edge_count != (n - 2) * g.edge_count:
            failures.append((trial, n, tg.graph.edge_count, (n - 2) * g.edge_count))
    elapsed = time.perf_counter() - start
    _report(11, "token-edge-count", failures, "200 random graphs <= 12 vertices",
            elapsed)


def test_criterion_12_dense_joins_at_the_orbit_reach():
    # rows as the harness evaluates them, no node budget: the solver prunes
    # by the base graph's twin orbits, which takes these dense token graphs
    # (F2(K_30) has 435 vertices) in a few nodes each
    start = time.perf_counter()
    specs = ([graphs.complete(m) for m in range(2, 31)]
             + [graphs.split(n, m) for n in range(1, 7) for m in range(1, 19)]
             + [graphs.complete_bipartite(n, m) for n in range(1, 7) for m in range(1, 13)])
    failures = []
    for spec in specs:
        row = evaluate_row(spec)
        if not (row.verdict == "AGREE" and row.construction_valid
                and row.formula.value == row.construction_size == row.solver.size):
            failures.append((spec.label(), row.values, row.construction_valid))
    elapsed = time.perf_counter() - start
    _report(12, "dense-joins", failures,
            f"{len(specs)} rows: complete m in [2,30], split n in [1,6] m in [1,18], "
            "complete-bipartite n in [1,6] m in [1,12], formula = construction = solver",
            elapsed)
    assert elapsed < 10.0
