import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from token_alpha import graphs
from token_alpha.constructions import (
    AssociatedSetInput,
    associated_independent_set,
    cycle_independent_set,
    extract_s1_s2,
    path_union_independent_set,
)
from token_alpha.errors import ParameterError
from token_alpha.formulas import alpha_cycle, alpha_path_union
from token_alpha.graphs import Graph, components, delete_vertices, generate, join, members
from token_alpha.harness import (
    construction_pairs,
    draw_tables,
    random_independent_set_with_cross,
)
from token_alpha.mis import is_independent, max_independent_set, max_independent_set_exhaustive
from token_alpha.tokens import build_f2, join_partition


def associated_set_size(inp):
    """|s1||s2| + C(n-|s1|, 2) + |mis|, the cardinality the set always attains."""
    r, s = inp.s1.bit_count(), inp.s2.bit_count()
    rest = inp.n - r
    return r * s + rest * (rest - 1) // 2 + len(inp.mis_h_minus_s2)


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def test_parity_set_of_single_p3():
    assert path_union_independent_set([range(3)]) == {(0, 1), (1, 2)}


def test_parity_set_of_two_isolated_vertices():
    assert path_union_independent_set([[0], [1]]) == {(0, 1)}


def test_parity_set_of_p3_and_p2_is_maximum():
    # frozen from the exhaustive oracle on the 10-vertex token graph
    chosen = path_union_independent_set([range(3), range(3, 5)])
    assert len(chosen) == 6
    tg = build_f2(generate(graphs.path_union([3, 2])))
    assert is_independent(tg.graph, tg.indices_of(chosen))
    assert max_independent_set_exhaustive(tg.graph).size == 6


def test_cycle_independent_set_is_maximum():
    # formula.alpha_cycle is checked against the solver by the acceptance
    # suite; the construction must reach it in generate's labels
    for m in range(3, 41):
        chosen = cycle_independent_set(m)
        tg = build_f2(generate(graphs.cycle(m)))
        assert is_independent(tg.graph, tg.indices_of(chosen)), m
        assert len(chosen) == alpha_cycle(m), m


@pytest.mark.parametrize("total", range(2, 15))
def test_parity_set_size_and_independence_for_all_compositions(total):
    # The harness's witness must be independent in the graph generate
    # builds, which is the graph export writes.
    for parts in compositions(total):
        spec = graphs.path_union(parts)
        base = generate(spec)
        chosen = construction_pairs(spec, base)
        assert len(chosen) == alpha_path_union(parts)
        tg = build_f2(base)
        assert is_independent(tg.graph, tg.indices_of(chosen)), parts


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda ps: sum(ps) >= 2),
       st.randoms())
@settings(max_examples=60)
def test_parity_set_is_independent_in_any_order_and_labelling(parts, rng):
    labels = list(range(sum(parts)))
    rng.shuffle(labels)
    walks, start = [], 0
    for p in parts:
        walks.append(labels[start:start + p])
        start += p
    rng.shuffle(walks)
    base = Graph.build(len(labels), [(x, y) for w in walks for x, y in zip(w, w[1:])])
    chosen = path_union_independent_set(walks)
    assert len(chosen) == alpha_path_union(parts)
    tg = build_f2(base)
    assert is_independent(tg.graph, tg.indices_of(chosen))


def test_associated_set_example_with_full_s1():
    # n=2, H=P3, S1 = both hub vertices, S2 = the middle path vertex
    inp = AssociatedSetInput(
        n=2,
        s1=0b11,
        s2=0b010,
        mis_h_minus_s2=frozenset([(0, 2)]),
    )
    out = associated_independent_set(inp)
    assert out == {(0, 3), (1, 3), (2, 4)}
    assert len(out) == associated_set_size(inp) == 3
    tg = build_f2(generate(graphs.fan(2, 3)))
    assert is_independent(tg.graph, tg.indices_of(out))


def test_associated_set_example_with_singleton_s1():
    # n=3, H=P3, S1 a singleton, S2 an end vertex: 1*1 + C(2,2) + 1 = 3
    inp = AssociatedSetInput(
        n=3,
        s1=0b001,
        s2=0b001,
        mis_h_minus_s2=frozenset([(1, 2)]),
    )
    out = associated_independent_set(inp)
    assert out == {(0, 3), (1, 2), (4, 5)}
    assert len(out) == 3
    tg = build_f2(generate(graphs.fan(3, 3)))
    assert is_independent(tg.graph, tg.indices_of(out))


def test_associated_set_attains_exceptional_fan_value():
    # S1 = all of E_n, S2 = alternating vertices of P_m, m odd, n = (m+1)/2
    m, n = 5, 3
    inp = AssociatedSetInput(
        n=n,
        s1=0b111,
        s2=0b10101,
        mis_h_minus_s2=frozenset([(1, 3)]),
    )
    out = associated_independent_set(inp)
    assert len(out) == n * ((m + 1) // 2) + 1  # n*ceil(m/2) + C(floor(m/2), 2)
    tg = build_f2(generate(graphs.fan(n, m)))
    assert is_independent(tg.graph, tg.indices_of(out))


def test_extract_from_single_cross_pair():
    s1, s2 = extract_s1_s2(frozenset([(0, 2)]), 2)
    assert s1 == 0b1
    assert s2 == 0b1


def test_extract_picks_largest_neighborhood():
    # E2 + P3: cross pairs around hub 0 dominate
    i = frozenset([(0, 2), (0, 4), (1, 2)])
    s1, s2 = extract_s1_s2(i, 2)
    assert s1 == 0b11
    assert s2 == 0b101


def test_extract_breaks_ties_to_the_lowest_vertex():
    # E3 + P3: hubs 1 and 2 each pair with two H vertices; hub 1 wins
    i = frozenset([(1, 3), (1, 5), (4, 2), (2, 5)])
    assert extract_s1_s2(i, 3) == (0b110, 0b101)


def test_extract_requires_a_cross_pair():
    with pytest.raises(ParameterError, match="no cross pair"):
        extract_s1_s2(frozenset([(0, 1)]), 2)


def _solver_mis_pairs(h, s2):
    sub, kept = delete_vertices(h, s2)
    if sub.order < 2:
        return frozenset()
    tg = build_f2(sub)
    res = max_independent_set(tg.graph)
    return frozenset((kept[a], kept[b]) for a, b in (tg.pairs[i] for i in members(res.witness)))


@pytest.mark.parametrize("h_spec,n", [
    (graphs.path(4), 3),
    (graphs.cycle(5), 2),
    (graphs.complete(3), 2),
])
def test_improvement_lemma_on_random_independent_sets(h_spec, n):
    h = generate(h_spec)
    tg = build_f2(join(generate(graphs.empty(n)), h))
    cross = members(join_partition(tg, n).r)
    tables = draw_tables(tg.graph)
    rng = random.Random(97)
    for _ in range(60):
        indices = random_independent_set_with_cross(tables, cross, rng)
        pairs = frozenset(tg.pairs[i] for i in indices)
        s1, s2 = extract_s1_s2(pairs, n)
        mis2 = _solver_mis_pairs(h, s2)
        improved = associated_independent_set(AssociatedSetInput(
            n=n, s1=s1, s2=s2, mis_h_minus_s2=mis2))
        assert is_independent(tg.graph, tg.indices_of(improved))
        assert len(improved) >= len(pairs)


@given(st.integers(2, 4), st.integers(2, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_cardinality_identity(n, m, data):
    h = generate(graphs.path(m))
    s1 = sum(1 << u for u in data.draw(st.sets(st.integers(0, n - 1))))
    odds = list(range(0, m, 2))
    s2_members = data.draw(st.sets(st.sampled_from(odds)) if odds else st.just(set()))
    s2 = sum(1 << v for v in s2_members)
    mis2 = _solver_mis_pairs(h, s2)
    inp = AssociatedSetInput(n=n, s1=s1, s2=s2, mis_h_minus_s2=mis2)
    out = associated_independent_set(inp)
    r, s = s1.bit_count(), len(s2_members)
    assert len(out) == r * s + (n - r) * (n - r - 1) // 2 + len(mis2)


@pytest.mark.parametrize("m", range(3, 9))
def test_deleted_path_alpha_matches_odd_component_formula(m):
    # every independent S2 of P_m: alpha(F2(P_m - S2)) = ((m-s)^2 + t^2 - 2t)/4
    h = generate(graphs.path(m))
    for size in range(1, (m + 1) // 2 + 1):
        for s2_members in itertools.combinations(range(m), size):
            if any(b - a == 1 for a, b in zip(s2_members, s2_members[1:])):
                continue
            sub, _ = delete_vertices(h, sum(1 << v for v in s2_members))
            if sub.order < 2:
                continue
            t = sum(len(c) % 2 for c in components(sub))
            s = len(s2_members)
            expected = ((m - s) ** 2 + t * t - 2 * t) // 4
            assert max_independent_set(build_f2(sub).graph).size == expected
