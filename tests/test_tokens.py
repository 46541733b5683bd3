import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from token_alpha import graphs
from token_alpha.errors import ParameterError
from token_alpha.graphs import Graph, generate, members
from token_alpha.mis import is_independent, max_independent_set_exhaustive
from token_alpha.tokens import _pair_tables, build_f2, join_partition, partner_rows_mask


def test_f2_of_path_3():
    tg = build_f2(generate(graphs.path(3)))
    assert tg.graph.order == 3
    assert tg.pairs == ((0, 1), (0, 2), (1, 2))
    # {0,1}~{0,2} via edge (1,2); {0,2}~{1,2} via edge (0,1)
    assert set(tg.graph.sorted_edges()) == {(0, 1), (1, 2)}
    assert max_independent_set_exhaustive(tg.graph).size == 2


def test_f2_of_edgeless_graph_is_edgeless():
    tg = build_f2(generate(graphs.empty(4)))
    assert tg.graph.order == 6
    assert tg.graph.edge_count == 0


def test_f2_of_k4():
    tg = build_f2(generate(graphs.complete(4)))
    assert tg.graph.order == 6
    assert tg.graph.edge_count == (4 - 2) * 6
    assert max_independent_set_exhaustive(tg.graph).size == 2


def test_f2_requires_two_vertices():
    with pytest.raises(ParameterError):
        build_f2(Graph.build(1, []))


@st.composite
def random_graphs(draw, min_order=2, max_order=12):
    n = draw(st.integers(min_order, max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return Graph.build(n, edges)


@given(random_graphs(max_order=9))
@settings(max_examples=60)
def test_adjacency_is_symmetric_difference_rule(g):
    tg = build_f2(g)
    for (i, p), (j, q) in itertools.combinations(enumerate(tg.pairs), 2):
        diff = set(p) ^ set(q)
        expected = len(diff) == 2 and g.has_edge(*sorted(diff))
        assert tg.graph.has_edge(i, j) == expected


@given(random_graphs())
@settings(max_examples=80)
def test_token_edge_count_identity(g):
    tg = build_f2(g)
    assert tg.graph.edge_count == (g.order - 2) * g.edge_count


@given(random_graphs(max_order=9))
@settings(max_examples=40)
def test_token_edges_stay_within_base_components(g):
    component_of = {}
    for ci, comp in enumerate(graphs.components(g)):
        for v in comp:
            component_of[v] = ci
    tg = build_f2(g)
    for i, j in tg.graph.sorted_edges():
        a, b = sorted(set(tg.pairs[i]) ^ set(tg.pairs[j]))
        assert component_of[a] == component_of[b]


@given(random_graphs(max_order=8), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_f2_is_label_covariant(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    relabeled = Graph.build(g.order, [(perm[u], perm[v]) for u, v in g.sorted_edges()])
    tg = build_f2(g)
    tg2 = build_f2(relabeled)
    through2 = tg2.through
    mapped = set()
    for i, j in tg.graph.sorted_edges():
        (a, b), (c, d) = tg.pairs[i], tg.pairs[j]
        mapped.add(tuple(sorted((through2[perm[a]][perm[b]], through2[perm[c]][perm[d]]))))
    assert mapped == set(tg2.graph.sorted_edges())


def test_join_partition_of_fan_2_3():
    tg = build_f2(generate(graphs.fan(2, 3)))
    part = join_partition(tg, 2)
    assert (part.b1.bit_count(), part.b2.bit_count(), part.r.bit_count()) == (1, 3, 6)
    assert not (part.b1 & part.b2 or part.b1 & part.r or part.b2 & part.r)
    assert part.b1 | part.b2 | part.r == (1 << tg.graph.order) - 1


def test_join_partition_split_one_has_empty_b1():
    tg = build_f2(generate(graphs.fan(1, 4)))
    part = join_partition(tg, 1)
    assert part.b1 == 0
    assert part.r.bit_count() == 4


def test_join_partition_r_of_k22_is_independent():
    tg = build_f2(generate(graphs.complete_bipartite(2, 2)))
    part = join_partition(tg, 2)
    assert part.r.bit_count() == 4
    assert is_independent(tg.graph, part.r)


def test_indices_of_maps_either_orientation_and_rejects_non_pairs():
    tg = build_f2(generate(graphs.path(4)))
    assert tg.indices_of([(3, 2), (0, 1)]) == 1 << 0 | 1 << 5
    assert tg.indices_of([(1, 0), (2, 3)]) == 1 << 0 | 1 << 5
    assert tg.indices_of([]) == 0
    # a repeated pair, in either orientation, is one member
    assert tg.indices_of([(1, 3), (3, 1), (1, 3)]) == 1 << tg.through[1][3]
    # a negative vertex would otherwise index a table row from its end
    for bad in ((1, 1), (0, 4), (-1, 2), (2, -1)):
        with pytest.raises(ParameterError, match="is not a 2-subset"):
            tg.indices_of([bad])


@pytest.mark.parametrize("order", range(2, 15))
@given(st.data())
@settings(max_examples=25)
def test_partner_rows_mask_is_the_pair_table_indexing(order, data):
    # row x's pairs {x,y > x} as one shifted block must land on the indices
    # the pair table gives them, one bit per pair
    rows = data.draw(st.lists(st.integers(0, (1 << order) - 1),
                              min_size=order, max_size=order))
    _, through = _pair_tables(order)
    expected = 0
    for x, row in enumerate(rows):
        for y in members(row):
            if y > x:
                expected |= 1 << through[x][y]
    assert partner_rows_mask(rows) == expected


def test_partner_rows_mask_reads_each_pair_from_its_lower_row():
    assert partner_rows_mask([0b110, 0b101, 0b011]) == 0b111   # both ends
    assert partner_rows_mask([0b110, 0b100, 0]) == 0b111       # lower ends only
    assert partner_rows_mask([0, 0b001, 0b011]) == 0           # upper ends only
    assert partner_rows_mask([0] * 5) == 0


def test_join_partition_rejects_bad_split():
    tg = build_f2(generate(graphs.fan(2, 3)))
    for split in (0, 5, -1):
        with pytest.raises(ParameterError):
            join_partition(tg, split)


@given(st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=20)
def test_b1_and_b2_are_never_adjacent(n, m):
    tg = build_f2(generate(graphs.complete_bipartite(n, m)))
    part = join_partition(tg, n)
    for i in members(part.b1):
        for j in members(part.b2):
            assert not tg.graph.has_edge(i, j)


def test_token_graphs_of_one_order_share_their_pair_tables():
    tg = build_f2(generate(graphs.path(6)))
    other = build_f2(generate(graphs.fan(2, 4)))
    assert other.pairs is tg.pairs
    assert other.through is tg.through
    assert build_f2(generate(graphs.path(7))).pairs is not tg.pairs


def _fresh_f2(g):
    """Pairs, pair -> index table and token graph of g built from scratch,
    by the symmetric-difference rule, with no table shared."""
    pairs = tuple(itertools.combinations(range(g.order), 2))
    index = {p: i for i, p in enumerate(pairs)}
    through = tuple(tuple(index.get((min(x, w), max(x, w)), -1) for w in range(g.order))
                    for x in range(g.order))
    edges = [(i, j) for (i, p), (j, q) in itertools.combinations(enumerate(pairs), 2)
             if len(set(p) ^ set(q)) == 2 and g.has_edge(*sorted(set(p) ^ set(q)))]
    return pairs, through, Graph.build(len(pairs), edges)


def test_builds_from_shared_tables_equal_fresh_builds():
    # orders come round again and again, so most builds reuse a table
    rng = random.Random(13)
    bases = [generate(spec) for spec in (
        graphs.path(2), graphs.cycle(5), graphs.complete(6), graphs.empty(4),
        graphs.fan(3, 4), graphs.wheel(2, 5), graphs.split(2, 5),
        graphs.complete_bipartite(3, 3), graphs.path_union((3, 1, 2)))]
    for _ in range(30):
        n = rng.randrange(2, 10)
        bases.append(Graph.build(n, [e for e in itertools.combinations(range(n), 2)
                                     if rng.random() < 0.4]))
    for g in bases:
        tg = build_f2(g)
        pairs, through, graph = _fresh_f2(g)
        assert tg.pairs == pairs
        assert tg.through == through
        assert tg.graph == graph
