import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from token_alpha import graphs, harness
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
from token_alpha.tokens import build_f2, join_partition, partner_rows_mask

import reference
from reference import mask_of_pairs, pairs_of_mask, pairs_of_rows, rows_of_pairs


def associated_set_size(inp):
    """|s1||s2| + C(n-|s1|, 2) + |mis|, the cardinality the set always attains."""
    r, s = inp.s1.bit_count(), inp.s2.bit_count()
    rest = inp.n - r
    return r * s + rest * (rest - 1) // 2 + len(pairs_of_rows(inp.mis_h_minus_s2))


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def test_parity_set_of_single_p3():
    assert pairs_of_rows(path_union_independent_set([range(3)], 3)) == {(0, 1), (1, 2)}


def test_parity_set_of_two_isolated_vertices():
    assert pairs_of_rows(path_union_independent_set([[0], [1]], 2)) == {(0, 1)}


def test_parity_set_of_p3_and_p2_is_maximum():
    # frozen from the exhaustive oracle on the 10-vertex token graph
    chosen = partner_rows_mask(path_union_independent_set([range(3), range(3, 5)], 5))
    assert chosen.bit_count() == 6
    tg = build_f2(generate(graphs.path_union([3, 2])))
    assert is_independent(tg.graph, chosen)
    assert max_independent_set_exhaustive(tg.graph).size == 6


def test_cycle_independent_set_is_maximum():
    # formula.alpha_cycle is checked against the solver by the acceptance
    # suite; the construction must reach it in generate's labels
    for m in range(3, 41):
        chosen = partner_rows_mask(cycle_independent_set(m))
        tg = build_f2(generate(graphs.cycle(m)))
        assert is_independent(tg.graph, chosen), m
        assert chosen.bit_count() == alpha_cycle(m), m


@pytest.mark.parametrize("total", range(2, 15))
def test_parity_set_size_and_independence_for_all_compositions(total):
    # The harness's witness must be independent in the graph generate
    # builds, which is the graph export writes.
    for parts in compositions(total):
        spec = graphs.path_union(parts)
        base = generate(spec)
        chosen = construction_pairs(spec, base)
        assert chosen.bit_count() == alpha_path_union(parts)
        tg = build_f2(base)
        assert is_independent(tg.graph, chosen), parts


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
    chosen = partner_rows_mask(path_union_independent_set(walks, len(labels)))
    assert chosen.bit_count() == alpha_path_union(parts)
    tg = build_f2(base)
    assert is_independent(tg.graph, chosen)


def test_associated_set_example_with_full_s1():
    # n=2, H=P3, S1 = both hub vertices, S2 = the middle path vertex
    inp = AssociatedSetInput(
        n=2,
        s1=0b11,
        s2=0b010,
        mis_h_minus_s2=rows_of_pairs([(0, 2)], 3),
    )
    out = associated_independent_set(inp)
    assert pairs_of_mask(out, 5) == {(0, 3), (1, 3), (2, 4)}
    assert out.bit_count() == associated_set_size(inp) == 3
    tg = build_f2(generate(graphs.fan(2, 3)))
    assert is_independent(tg.graph, out)


def test_associated_set_example_with_singleton_s1():
    # n=3, H=P3, S1 a singleton, S2 an end vertex: 1*1 + C(2,2) + 1 = 3
    inp = AssociatedSetInput(
        n=3,
        s1=0b001,
        s2=0b001,
        mis_h_minus_s2=rows_of_pairs([(1, 2)], 3),
    )
    out = associated_independent_set(inp)
    assert pairs_of_mask(out, 6) == {(0, 3), (1, 2), (4, 5)}
    assert out.bit_count() == 3
    tg = build_f2(generate(graphs.fan(3, 3)))
    assert is_independent(tg.graph, out)


def test_associated_set_attains_exceptional_fan_value():
    # S1 = all of E_n, S2 = alternating vertices of P_m, m odd, n = (m+1)/2
    m, n = 5, 3
    inp = AssociatedSetInput(
        n=n,
        s1=0b111,
        s2=0b10101,
        mis_h_minus_s2=rows_of_pairs([(1, 3)], 5),
    )
    out = associated_independent_set(inp)
    assert out.bit_count() == n * ((m + 1) // 2) + 1  # n*ceil(m/2) + C(floor(m/2), 2)
    tg = build_f2(generate(graphs.fan(n, m)))
    assert is_independent(tg.graph, out)


def test_extract_from_single_cross_pair():
    s1, s2 = extract_s1_s2(mask_of_pairs([(0, 2)], 3), 2, 3)
    assert s1 == 0b1
    assert s2 == 0b1


def test_extract_picks_largest_neighborhood():
    # E2 + P3: cross pairs around hub 0 dominate
    i = mask_of_pairs([(0, 2), (0, 4), (1, 2)], 5)
    s1, s2 = extract_s1_s2(i, 2, 5)
    assert s1 == 0b11
    assert s2 == 0b101


def test_extract_breaks_ties_to_the_lowest_vertex():
    # E3 + P3: hubs 1 and 2 each pair with two H vertices; hub 1 wins
    i = mask_of_pairs([(1, 3), (1, 5), (4, 2), (2, 5)], 6)
    assert extract_s1_s2(i, 3, 6) == (0b110, 0b101)


def test_extract_requires_a_cross_pair():
    with pytest.raises(ParameterError, match="no cross pair"):
        extract_s1_s2(mask_of_pairs([(0, 1)], 4), 2, 4)


def _solver_mis_rows(h, s2):
    """A maximum independent set of F2(h - s2) from the solver, as partner
    rows in h's labels."""
    sub, kept = delete_vertices(h, s2)
    if sub.order < 2:
        return [0] * h.order
    tg = build_f2(sub)
    res = max_independent_set(tg.graph)
    return rows_of_pairs([(kept[a], kept[b]) for a, b in
                          (tg.pairs[i] for i in members(res.witness))], h.order)


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
        _, chosen = random_independent_set_with_cross(tables, cross, rng)
        s1, s2 = extract_s1_s2(chosen, n, tg.base.order)
        mis2 = _solver_mis_rows(h, s2)
        improved = associated_independent_set(AssociatedSetInput(
            n=n, s1=s1, s2=s2, mis_h_minus_s2=mis2))
        assert is_independent(tg.graph, improved)
        assert improved.bit_count() >= chosen.bit_count()


@given(st.integers(2, 4), st.integers(2, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_cardinality_identity(n, m, data):
    h = generate(graphs.path(m))
    s1 = sum(1 << u for u in data.draw(st.sets(st.integers(0, n - 1))))
    odds = list(range(0, m, 2))
    s2_members = data.draw(st.sets(st.sampled_from(odds)) if odds else st.just(set()))
    s2 = sum(1 << v for v in s2_members)
    mis2 = _solver_mis_rows(h, s2)
    inp = AssociatedSetInput(n=n, s1=s1, s2=s2, mis_h_minus_s2=mis2)
    out = associated_independent_set(inp)
    r, s = s1.bit_count(), len(s2_members)
    assert out.bit_count() == r * s + (n - r) * (n - r - 1) // 2 + len(pairs_of_rows(mis2))


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


# ---------------------------------------------------------------------------
# The token masks against the pair-by-pair reference builders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("total", range(2, 13))
def test_path_union_masks_equal_the_reference_pairs(total):
    for parts in compositions(total):
        spec = graphs.path_union(parts)
        base = generate(spec)
        expected = mask_of_pairs(reference.construction_pairs(spec, base), base.order)
        assert construction_pairs(spec, base) == expected, parts


@pytest.mark.parametrize("kind, orders", [
    ("path", range(2, 13)), ("cycle", range(3, 13)),
    ("complete", range(2, 10)), ("empty", range(2, 10)),
])
def test_f2_minus_s2_and_associated_masks_equal_the_reference_pairs(kind, orders):
    # every independent S2 of H: the recipe's set of F2(H - S2), and the
    # associated sets of E_2 + H built on it, whatever S1
    n = 2
    for m in orders:
        h = generate(graphs.FamilySpec(kind, m=m))
        for s2 in reference.independent_sets(h):
            rows = harness._max_ind_rows_of_f2(h, s2)
            pairs = reference.max_ind_pairs_of_f2(h, s2)
            assert partner_rows_mask(rows) == mask_of_pairs(pairs, m), (m, s2)
            for s1 in range(1 << n):
                got = associated_independent_set(AssociatedSetInput(n, s1, s2, rows))
                expected = reference.associated_pairs(n, s1, s2, pairs)
                assert got == mask_of_pairs(expected, n + m), (m, s1, s2)


FAMILY_GRIDS = ([graphs.fan(n, m) for n in range(1, 7) for m in range(1, 13)]
                + [graphs.wheel(n, m) for n in range(1, 7) for m in range(3, 13)]
                + [graphs.split(n, m) for n in range(1, 7) for m in range(1, 19)]
                + [graphs.complete_bipartite(n, m) for n in range(1, 8) for m in range(1, 13)]
                + [graphs.path(m) for m in range(2, 13)]
                + [graphs.cycle(m) for m in range(3, 41)]
                + [graphs.complete(m) for m in range(2, 31)]
                + [graphs.empty(m) for m in range(2, 10)])


def test_family_grid_masks_equal_the_reference_pairs():
    # the grids the sweeps, the acceptance suite and the benchmark run
    for spec in FAMILY_GRIDS:
        base = generate(spec)
        expected = mask_of_pairs(reference.construction_pairs(spec, base), base.order)
        assert construction_pairs(spec, base) == expected, spec.label()


@pytest.mark.parametrize("n, h_spec, draws", [
    (3, graphs.path(6), 500), (6, graphs.path(14), 500), (2, graphs.cycle(7), 400),
    (4, graphs.complete(4), 300), (3, graphs.empty(5), 300),
])
def test_mask_extraction_equals_pair_extraction_on_random_sets(n, h_spec, draws):
    # 2 000 seeded draws in all, as the lemma trials draw them; ties for
    # the largest H-neighbourhood go to the lowest hub on both sides
    tg = build_f2(join(generate(graphs.empty(n)), generate(h_spec)))
    cross = members(join_partition(tg, n).r)
    tables = draw_tables(tg.graph)
    rng = random.Random(2024)
    ties = 0
    for _ in range(draws):
        _, chosen = random_independent_set_with_cross(tables, cross, rng)
        pairs = [tg.pairs[i] for i in members(chosen)]
        s1, s2 = extract_s1_s2(chosen, n, tg.base.order)
        assert (s1, s2) == reference.extract_s1_s2_pairs(pairs, n)
        sizes = [sum(1 for a, b in pairs if a == u and b >= n) for u in range(n)]
        ties += sizes.count(max(sizes)) > 1
    assert ties, "no draw had a tie to break"


@given(st.integers(1, 5), st.integers(1, 6), st.data())
@settings(max_examples=200)
def test_mask_extraction_equals_pair_extraction_on_any_mask(n, h_order, data):
    order = n + h_order
    mask = data.draw(st.integers(0, (1 << order * (order - 1) // 2) - 1))
    pairs = pairs_of_mask(mask, order)
    try:
        expected = reference.extract_s1_s2_pairs(pairs, n)
    except ParameterError:
        with pytest.raises(ParameterError, match="no cross pair"):
            extract_s1_s2(mask, n, order)
        return
    assert extract_s1_s2(mask, n, order) == expected
