import collections
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from token_alpha import cli, graphs, harness, mis
from token_alpha.errors import ParameterError
from token_alpha.formulas import AlphaFormulaResult, alpha_closed_form
from token_alpha.graphs import Graph, generate, members
from token_alpha.harness import (
    VerdictTally,
    compositions,
    construction_pairs,
    draw_tables,
    evaluate_graph_row,
    evaluate_row,
    run_lemma_trials,
    run_sweep,
    sweep_specs,
)
from token_alpha.mis import (
    MisResult,
    greedy_independent_set,
    is_independent,
    max_independent_set,
)
from token_alpha.report import render_json, render_tsv
from token_alpha.tokens import build_f2, join_partition

from reference import delete_vertices, independent_sets, pairs_of_rows


def test_evaluate_row_fan_agrees():
    row = evaluate_row(graphs.fan(2, 3), ("formula", "solver"))
    assert row.formula.value == 4
    assert row.solver.size == 4
    assert row.verdict == "AGREE"


def test_evaluate_row_path_union_all_methods():
    row = evaluate_row(graphs.path_union([3, 2]))
    assert row.formula.value == row.construction_size == row.solver.size == 6
    assert row.construction_valid
    assert row.verdict == "AGREE"


def test_evaluate_row_wheel_exceptional():
    row = evaluate_row(graphs.wheel(2, 3))
    assert row.formula.exceptional
    assert row.formula.value == row.solver.size == 3
    assert row.verdict == "AGREE"


def test_construction_matches_formula_across_join_families():
    specs = []
    specs += [graphs.fan(n, m) for n in range(1, 5) for m in range(1, 7)]
    specs += [graphs.wheel(n, m) for n in range(1, 4) for m in range(3, 7)]
    specs += [graphs.split(n, m) for n in range(1, 5) for m in range(1, 6)]
    specs += [graphs.complete_bipartite(n, m) for n in range(1, 5) for m in range(1, 5)]
    for spec in specs:
        base = generate(spec)
        if base.order < 2:
            continue
        chosen = construction_pairs(spec, base)
        expected = alpha_closed_form(spec).value
        assert chosen.bit_count() == expected, spec.label()
        tg = build_f2(base)
        assert is_independent(tg.graph, chosen), spec.label()


@pytest.mark.parametrize("spec", [graphs.path(m) for m in range(2, 9)]
                         + [graphs.cycle(m) for m in range(3, 13)]
                         + [graphs.complete(m) for m in range(2, 9)]
                         + [graphs.empty(m) for m in range(2, 9)], ids=lambda s: s.label())
def test_one_parameter_rows_show_formula_construction_and_solver(spec):
    row = evaluate_row(spec)
    assert row.formula.value == row.construction_size == row.solver.size
    assert row.construction_valid
    assert row.verdict == "AGREE"


@pytest.mark.parametrize("spec", [graphs.path_union([3, 2]), graphs.cycle(7),
                                  graphs.fan(3, 7), graphs.wheel(2, 5)],
                         ids=lambda s: s.label())
def test_a_row_generates_its_graph_once(monkeypatch, spec):
    # the construction reads the row's own graph, and a join's H off it
    generated = []
    real = harness.generate

    def counting_generate(s):
        generated.append(s)
        return real(s)

    monkeypatch.setattr(harness, "generate", counting_generate)
    row = evaluate_row(spec)
    assert row.verdict == "AGREE"
    assert generated == [spec]


def test_row_without_token_graph_is_rejected():
    with pytest.raises(ParameterError):
        evaluate_row(graphs.path(1), ("solver",))


@pytest.mark.parametrize("methods", [("formula",), ("formula", "solver"), ("construction",)],
                         ids=["formula", "formula,solver", "construction"])
def test_row_below_order_2_is_rejected_whatever_the_methods(methods):
    # no method has a value without a token graph, so such a row would
    # read AGREE with every cell empty
    with pytest.raises(ParameterError, match="has order 1; no token graph exists"):
        evaluate_row(graphs.path(1), methods)


def test_disagree_verdict_when_methods_differ(monkeypatch):
    def wrong_formula(spec):
        return AlphaFormulaResult(999, False, "bogus")

    monkeypatch.setattr(harness, "alpha_closed_form", wrong_formula)
    row = evaluate_row(graphs.fan(2, 3), ("formula", "solver"))
    assert row.verdict == "DISAGREE"


def test_disagree_verdict_when_construction_is_not_independent(monkeypatch):
    # Right size for F2(P4), but {0,1} and {0,2} are adjacent.
    wrong = build_f2(generate(graphs.path(4))).indices_of([(0, 1), (0, 2), (1, 3), (2, 3)])
    monkeypatch.setattr(harness, "construction_pairs", lambda spec, base: wrong)
    row = evaluate_row(graphs.path(4))
    assert row.values == [4, 4, 4]
    assert row.construction_valid is False
    assert row.verdict == "DISAGREE"


def test_a_faulty_associated_set_is_a_disagree_row(construction_fault):
    # the witness check alone judges the construction, whatever input of
    # the associated set is at fault
    row = evaluate_row(graphs.fan(3, 7))
    assert row.construction_valid is False
    assert row.verdict == "DISAGREE"


def test_aborted_verdict_on_tiny_budget():
    row = evaluate_row(graphs.fan(4, 6), ("formula", "solver"), node_budget=1)
    assert row.aborted
    assert row.verdict == "ABORTED"


def test_evaluate_graph_row():
    row = evaluate_graph_row("file:c5", generate(graphs.cycle(5)))
    assert row.solver.size == 5
    assert row.label == "file:c5"


def test_rows_prune_by_twin_orbits():
    # the harness hands the solver its token graph: split(5,14) takes 6
    # nodes where the plain search takes 16 612
    row = evaluate_row(graphs.split(5, 14), ("formula", "solver"))
    assert row.verdict == "AGREE"
    assert row.solver.nodes_explored == 6
    assert evaluate_graph_row("file:split", generate(graphs.split(5, 14))).solver.nodes_explored == 6


def test_compositions_are_lexicographic():
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(list(compositions(6))) == 32


def test_sweep_specs_order_and_counts():
    specs = list(sweep_specs("fan", (1, 2), (2, 4)))
    assert [(s.n, s.m) for s in specs] == [
        (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)]
    specs = list(sweep_specs("path_union", m_range=(2, 4)))
    assert [s.parts for s in specs][:4] == [(1, 1), (2,), (1, 1, 1), (1, 2)]
    assert len(specs) == 2 + 4 + 8


def test_sweep_rejects_empty_range():
    # both raise when called, before a row is asked for
    for sweep in (sweep_specs, run_sweep):
        with pytest.raises(ParameterError, match=r"^empty n range 3\.\.1$"):
            sweep("fan", (3, 1), (2, 4))
        with pytest.raises(ParameterError, match=r"^empty m range 4\.\.2$"):
            sweep("path_union", m_range=(4, 2))


def test_sweep_specs_check_the_config_at_once_and_each_spec_when_reached():
    with pytest.raises(ParameterError, match="requires a range for n"):
        sweep_specs("fan", m_range=(2, 4))
    specs = sweep_specs("wheel", (1, 1), (3, 3))
    assert next(specs).label() == graphs.wheel(1, 3).label()
    specs = sweep_specs("wheel", (0, 1), (3, 3))
    with pytest.raises(ParameterError, match="n >= 1"):
        next(specs)
    # a path-union total of 1 is path_union(1), of order 1: no row, so the
    # totals are checked up front, not at the first row
    with pytest.raises(ParameterError, match=r"requires totals >= 2, got m range 1\.\.4$"):
        sweep_specs("path_union", m_range=(1, 4))


@pytest.mark.parametrize("message, call", [
    ("unknown method 'bogus'; choose from formula,construction,solver",
     lambda: evaluate_row(graphs.path(3), ("formula", "bogus"))),
    ("at least one method is required", lambda: evaluate_row(graphs.path(3), ())),
    ("family 'moebius' cannot be swept", lambda: sweep_specs("moebius", m_range=(2, 3))),
    ("path_union sweep requires an m range of totals", lambda: sweep_specs("path_union")),
], ids=["unknown-method", "no-method", "unknown-family", "path-union-without-totals"])
def test_bad_methods_and_sweep_configs_are_rejected_by_name(message, call):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()


def test_sweep_runs_and_counts():
    tally = VerdictTally(run_sweep("wheel", (1, 2), (3, 5), methods=("formula", "solver")))
    assert len(list(tally)) == 6
    assert tally.counts == {"AGREE": 6, "DISAGREE": 0, "ABORTED": 0}
    assert tally.exit_code == 0


def test_sweep_exit_code_for_aborts():
    tally = VerdictTally(run_sweep("fan", (4, 4), (6, 6), methods=("solver",), node_budget=1))
    assert len(list(tally)) == 1
    assert tally.counts["ABORTED"] == 1
    assert tally.exit_code == 3


def test_tally_reads_its_rows_once_and_counts_what_a_renderer_reads():
    rows = [evaluate_row(graphs.path(4)), evaluate_row(graphs.fan(4, 6), node_budget=1)]
    tally = VerdictTally(iter(rows))
    assert [row.verdict for row in tally] == ["AGREE", "ABORTED"]
    assert list(tally) == []
    assert tally.counts == {"AGREE": 1, "DISAGREE": 0, "ABORTED": 1}
    # a renderer wraps the tally it is given in its own, and the given tally
    # still counts every row: cli._report reads its exit code from it
    for render in (render_tsv, render_json):
        tally = VerdictTally(iter(rows))
        render(tally)
        assert list(tally) == []
        assert tally.counts == {"AGREE": 1, "DISAGREE": 0, "ABORTED": 1}
        assert tally.exit_code == 3


def test_lemma_trials_report():
    trials = list(run_lemma_trials(3, graphs.path(4), trials=25, seed=3))
    assert len(trials) == 25
    assert all(t.verdict == "AGREE" for t in trials)
    margins = [t.improved_size - t.start_size for t in trials]
    assert min(margins) >= 0
    assert sum(margins) / len(margins) >= 0.0


def test_lemma_trials_are_drawn_when_asked_for(monkeypatch):
    draws = []
    real = harness.random_independent_set_with_cross

    def counting_draw(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "random_independent_set_with_cross", counting_draw)
    trials = run_lemma_trials(3, graphs.path(8), trials=20, seed=1)
    assert draws == []
    next(trials)
    assert len(draws) == 1
    # the arguments are checked by the call itself, before any trial is asked for
    for n, count in ((3, 0), (0, 20)):
        with pytest.raises(ParameterError):
            run_lemma_trials(n, graphs.path(8), trials=count, seed=1)
    assert len(draws) == 1


def test_lemma_trials_report_the_pair_each_trial_was_seeded_with():
    # replay the draws of random_independent_set_with_cross: one choice of a
    # cross vertex, then one shuffle of every token vertex, per trial
    n, h_spec, seed = 6, graphs.path(14), 5
    tg = build_f2(generate(graphs.fan(n, h_spec.m)))
    cross = members(join_partition(tg, n).r)
    rng = random.Random(seed)
    count = 0
    for count, trial in enumerate(run_lemma_trials(n, h_spec, trials=300, seed=seed), 1):
        drawn = rng.choice(cross)
        rng.shuffle(list(range(tg.graph.order)))
        assert trial.seed_pair == tg.pairs[drawn]
    assert count == 300


@pytest.mark.parametrize("length", [0, 1, 2, 3, 45, 190])
def test_the_written_out_shuffle_is_the_stdlib_shuffle(length):
    # lemma-check's trials, and so its pinned stdout, rest on this: the
    # same permutation as random.shuffle, and the generator left where
    # random.shuffle leaves it
    widths = draw_tables(Graph.build(length, [])).widths
    for seed in range(200):
        ours, stdlib = random.Random(seed), random.Random(seed)
        expected = list(range(length))
        stdlib.shuffle(expected)
        assert harness._shuffled_range(widths, ours.getrandbits) == expected, seed
        assert ours.getrandbits(64) == stdlib.getrandbits(64), seed


@given(st.sampled_from(["fan", "wheel"]), st.integers(1, 3), st.integers(3, 6),
       st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_a_random_set_is_maximal_and_starts_at_its_cross_vertex(kind, n, m, seed):
    tg = build_f2(generate(graphs.FamilySpec(kind, n=n, m=m)))
    cross = members(join_partition(tg, n).r)
    start, inside = harness.random_independent_set_with_cross(
        draw_tables(tg.graph), cross, random.Random(seed))
    assert start == random.Random(seed).choice(cross)
    assert inside >> start & 1
    assert is_independent(tg.graph, inside)
    masks = tg.graph.masks
    for v in range(tg.graph.order):
        assert inside >> v & 1 or masks[v] & inside, v   # nothing can be added


def test_lemma_trials_never_call_the_solver(monkeypatch):
    def no_solver(*args, **kwargs):
        raise AssertionError("the lemma trials called the solver")

    built = []

    def counting_build_f2(g):
        built.append(g.order)
        return build_f2(g)

    monkeypatch.setattr(harness, "max_independent_set", no_solver)
    monkeypatch.setattr(harness, "build_f2", counting_build_f2)
    for h_spec in (graphs.path(6), graphs.cycle(7), graphs.complete(4), graphs.empty(5)):
        built.clear()
        trials = run_lemma_trials(3, h_spec, trials=40, seed=2)
        assert all(t.verdict == "AGREE" for t in trials)
        assert built == [3 + h_spec.m]   # F2(E_n + H), once


def test_a_faulty_associated_set_fails_its_lemma_trials(construction_fault):
    failures = [t for t in run_lemma_trials(3, graphs.path(8), trials=20, seed=1)
                if t.verdict != "AGREE"]
    assert failures
    assert not any(t.independent for t in failures)


def _check_f2_minus_s2(h, s2):
    """The recipe's set for F2(h - s2) avoids s2, is independent there and
    is as large as the solver's maximum."""
    pairs = pairs_of_rows(harness._max_ind_rows_of_f2(h, s2))
    assert not any(s2 >> v & 1 for pair in pairs for v in pair), s2
    sub, kept = delete_vertices(h, s2)
    if sub.order < 2:
        assert pairs == frozenset(), s2
        return
    tg = build_f2(sub)
    new_label = {old: new for new, old in enumerate(kept)}
    indices = tg.indices_of(frozenset((new_label[a], new_label[b]) for a, b in pairs))
    assert is_independent(tg.graph, indices), s2
    assert len(pairs) == max_independent_set(tg.graph).size, s2


@pytest.mark.parametrize("kind, orders", [
    ("path", range(1, 11)), ("cycle", range(3, 11)),
    ("complete", range(1, 8)), ("empty", range(1, 8)),
])
def test_construction_of_f2_minus_s2_is_maximum(kind, orders):
    # the lemma trials trust this set without a solve, so check it against
    # the solver for every independent S2 of small H
    for m in orders:
        h = generate(graphs.FamilySpec(kind, m=m))
        for s2 in independent_sets(h):
            _check_f2_minus_s2(h, s2)


def test_recipe_is_maximum_on_every_small_graph():
    # the recipe reads the shape off the graph, not a family name: every
    # graph H of order 1..7 and every independent S2 that leaves a union of
    # paths or a clique gets a maximum set of F2(H - S2)
    nx = pytest.importorskip("networkx")
    graphs_seen = cases = 0
    for atlas in nx.graph_atlas_g():
        k = atlas.number_of_nodes()
        if k == 0:
            continue
        graphs_seen += 1
        h = Graph.build(k, atlas.edges())
        for s2 in independent_sets(h):
            rest = atlas.subgraph(v for v in atlas if not s2 >> v & 1)
            left = rest.number_of_nodes()
            clique = rest.number_of_edges() == left * (left - 1) // 2
            if clique or (nx.is_forest(rest) and max(d for _, d in rest.degree()) <= 2):
                _check_f2_minus_s2(h, s2)
                cases += 1
    assert (graphs_seen, cases) == (1252, 8749)


@pytest.mark.parametrize("h_spec, removed, walks", [
    (graphs.path(7), (2, 4), [[0, 1], [3], [5, 6]]),
    (graphs.cycle(7), (2, 4), [[3], [1, 0, 6, 5]]),   # the path through 6, 0
    (graphs.cycle(6), (0,), [[1, 2, 3, 4, 5]]),
])
def test_recipe_walks_start_at_their_lower_end(h_spec, removed, walks):
    # the parity set of an even-length walk depends on its direction, so
    # construction witnesses stay fixed only if every walk starts low
    h = generate(h_spec)
    rows = harness._max_ind_rows_of_f2(h, sum(1 << v for v in removed))
    assert rows == harness.path_union_independent_set(walks, h.order)


def test_one_path_walker_serves_the_recipe_and_the_side_generators(monkeypatch):
    # the recipe and the side's generators read their paths through
    # graphs.path_walks, once per call: neither keeps a walk of its own.
    # Each row's solve drops an orbit, so it reads its side once
    calls = collections.Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    walker = counted("path_walks", graphs.path_walks)
    monkeypatch.setattr(graphs, "path_walks", walker)
    monkeypatch.setattr(harness, "path_walks", walker)
    monkeypatch.setattr(harness, "_max_ind_rows_of_f2",
                        counted("recipe", harness._max_ind_rows_of_f2))
    monkeypatch.setattr(mis, "cycle_or_path_generators",
                        counted("side", graphs.cycle_or_path_generators))
    for spec in (graphs.wheel(4, 11), graphs.fan(3, 6), graphs.cycle(9)):
        calls.clear()
        assert evaluate_row(spec).verdict == "AGREE"
        recipes = 2 if spec.n else 1   # a join's side and cross candidates
        assert calls == {"recipe": recipes, "side": 1, "path_walks": recipes + 1}, spec.label()


@pytest.mark.parametrize("kind, first, alpha", [
    ("path", 1, lambda m: (m + 1) // 2), ("cycle", 3, lambda m: m // 2),
    ("complete", 1, lambda m: 1), ("empty", 1, lambda m: m),
])
def test_greedy_set_of_every_join_h_is_maximum(kind, first, alpha):
    # the cross candidate of E_n + H takes H's greedy set in label order
    # as its S2; one short of alpha(H) would surface only as DISAGREE rows
    for m in range(first, 41):
        h = generate(graphs.FamilySpec(kind, m=m))
        s2 = greedy_independent_set(h.masks, (1 << h.order) - 1)
        assert is_independent(h, s2), (kind, m)
        assert s2.bit_count() == alpha(m), (kind, m)


def test_lemma_trials_require_positive_count():
    with pytest.raises(ParameterError):
        run_lemma_trials(2, graphs.path(3), trials=0, seed=1)


def test_solver_abort_keeps_the_construction():
    # the budget caps the solver alone: the row aborts, and its
    # construction, which never calls the solver, is still built and checked
    row = evaluate_row(graphs.wheel(1, 11), node_budget=1)
    assert row.construction_size == 27
    assert row.construction_valid
    assert row.solver is None and row.solver_millis is not None
    assert row.verdict == "ABORTED"
    tally = VerdictTally([row])
    assert list(tally) == [row]
    assert tally.exit_code == 3


def test_specs_that_generate_the_same_graph_agree():
    # split(n,3) = wheel(n,3), complete(m+1) = split(1,m), fan(n,1) =
    # split(n,1) = complete_bipartite(n,1), ...: one graph, so one alpha
    # from each closed form and one construction size, with no solver.
    # The masks may differ, as join and one-graph rows take different routes
    specs = [graphs.FamilySpec(kind, n=n, m=m)
             for kind in ("fan", "wheel", "split", "complete_bipartite")
             for n in range(1, 9) for m in range(graphs.FAMILIES[kind]["m"], 11)]
    specs += [graphs.FamilySpec(kind, m=m) for kind in ("path", "cycle", "empty", "complete")
              for m in range(max(2, graphs.FAMILIES[kind]["m"]), 13)]
    specs += [graphs.path_union(parts)
              for total in range(2, 9) for parts in harness.compositions(total)]
    by_graph = {}
    for spec in specs:
        by_graph.setdefault(generate(spec).masks, []).append(spec)
    groups = [group for group in by_graph.values() if len(group) > 1]
    assert (len(specs), len(groups)) == (601, 44)
    for group in groups:
        base = generate(group[0])
        assert len({alpha_closed_form(spec).value for spec in group}) == 1, group
        assert len({construction_pairs(spec, base).bit_count() for spec in group}) == 1, group


_CONSTRUCTIONS = {"none": (None, None), "valid": (0b1111, True), "invalid": (0b1111, False)}


@pytest.mark.parametrize("aborted, construction, formula, verdict, exit_code", [
    (False, "none", 4, "AGREE", 0),
    (False, "none", 5, "DISAGREE", 1),
    (False, "valid", 4, "AGREE", 0),
    (False, "valid", 5, "DISAGREE", 1),
    (False, "invalid", 4, "DISAGREE", 1),
    (False, "invalid", 5, "DISAGREE", 1),
    (True, "none", 4, "ABORTED", 3),
    (True, "none", 5, "ABORTED", 3),
    (True, "valid", 4, "ABORTED", 3),
    (True, "valid", 5, "ABORTED", 3),
    (True, "invalid", 4, "ABORTED", 3),
    (True, "invalid", 5, "ABORTED", 3),
])
def test_verdict_and_exit_code_table(aborted, construction, formula, verdict, exit_code):
    # the construction and an unaborted solver find 4; formula 5 differs
    witness, valid = _CONSTRUCTIONS[construction]
    row = harness.RowResult("t", graphs.fan(2, 3), AlphaFormulaResult(formula, False, "t"),
                            witness, valid, solver=None if aborted else MisResult(4, 0b1111, 1),
                            aborted=aborted)
    assert row.verdict == verdict
    tally = VerdictTally([row])
    assert list(tally) == [row]
    assert tally.exit_code == exit_code
    # beside an aborted row, a disagreement still outranks the abort
    tally = VerdictTally([row, harness.RowResult("b", aborted=True)])
    list(tally)
    assert tally.exit_code == (1 if verdict == "DISAGREE" else 3)


@pytest.mark.parametrize("independent, start, improved, verdict", [
    (True, 4, 4, "AGREE"), (True, 4, 5, "AGREE"),
    (True, 4, 3, "DISAGREE"), (False, 4, 5, "DISAGREE"),
])
def test_lemma_trial_verdicts(independent, start, improved, verdict):
    trial = harness.LemmaTrial(start, improved, independent, (0, 1))
    assert trial.verdict == verdict
    tally = VerdictTally([trial])
    list(tally)
    assert tally.exit_code == (0 if verdict == "AGREE" else 1)


def test_lemma_check_exits_1_under_each_fault(capsys, construction_fault):
    # the exit code is the trials' tally's, as a report's is its rows'
    assert cli.main(["lemma-check", "--n", "3", "--family", "path", "--m", "8",
                     "--trials", "20", "--seed", "1"]) == 1
    trials = list(run_lemma_trials(3, graphs.path(8), trials=20, seed=1))
    failures = [i for i, t in enumerate(trials) if t.verdict != "AGREE"]
    tally = VerdictTally(trials)
    assert [i for i, t in enumerate(tally) if t.verdict == "DISAGREE"] == failures
    assert tally.exit_code == 1
