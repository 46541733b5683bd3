import re

import pytest
from hypothesis import given, settings, strategies as st

from token_alpha import graphs, harness
from token_alpha.errors import ParameterError
from token_alpha.graphs import (FamilySpec, Graph, cycle_or_path_generators, generate, join,
                                members, twin_class_of)
from token_alpha.tokens import build_f2

from reference import SPARSE_EDGES, SPARSE_ORDER, components, delete_vertices, planted_sides


def odd_component_count(g):
    return sum(len(c) % 2 for c in components(g))


def edge_set(g):
    return set(g.sorted_edges())


def test_path_generator():
    g = generate(graphs.path(3))
    assert g.order == 3
    assert edge_set(g) == {(0, 1), (1, 2)}


def test_fan_is_join_of_empty_and_path():
    g = generate(graphs.fan(1, 3))
    assert g.order == 4
    assert edge_set(g) == {(1, 2), (2, 3), (0, 1), (0, 2), (0, 3)}


def test_complete_bipartite_2_2_is_a_4_cycle():
    g = generate(graphs.complete_bipartite(2, 2))
    assert g.order == 4
    assert g.edge_count == 4
    assert [mask.bit_count() for mask in g.masks] == [2, 2, 2, 2]
    assert len(components(g)) == 1


def test_join_of_single_vertices_is_an_edge():
    g = join(Graph.build(1, []), Graph.build(1, []))
    assert edge_set(g) == {(0, 1)}


@pytest.mark.parametrize("n,m", [(1, 3), (2, 4), (3, 2)])
def test_join_empty_complete_edge_count(n, m):
    g = generate(graphs.split(n, m))
    assert g.edge_count == m * (m - 1) // 2 + n * m


def test_wheel_on_one_hub_and_triangle_is_k4():
    g = generate(graphs.wheel(1, 3))
    assert g.order == 4
    assert g.edge_count == 6


@pytest.mark.parametrize("bad", [
    lambda: graphs.cycle(2),
    lambda: graphs.path(0),
    lambda: graphs.empty(0),
    lambda: graphs.path_union([]),
    lambda: graphs.path_union([2, 0]),
    lambda: graphs.wheel(1, 2),
    lambda: graphs.fan(0, 3),
    # built directly, a spec is checked against the same ranges
    lambda: FamilySpec("wheel", n=1, m=2),
    lambda: FamilySpec("wheel", n=0, m=3),
    lambda: FamilySpec("fan", n=0, m=5),
    lambda: FamilySpec("fan", n=1, m=0),
    lambda: FamilySpec("cycle", m=2),
    lambda: FamilySpec("path", m=0),
    lambda: FamilySpec("empty", m=0),
    lambda: FamilySpec("complete", m=0),
    lambda: FamilySpec("split", n=0, m=1),
    lambda: FamilySpec("split", n=1, m=0),
    lambda: FamilySpec("complete_bipartite", n=0, m=1),
    lambda: FamilySpec("complete_bipartite", n=1, m=0),
    lambda: FamilySpec("path_union", parts=(3, 0, 2)),
    lambda: FamilySpec("path_union", parts=()),
    # E_1 + C_2 would be K3 with an AGREE row; it must not reach the solver
    lambda: harness.evaluate_row(FamilySpec("wheel", n=1, m=2), ("solver",)),
])
def test_invalid_family_parameters(bad):
    with pytest.raises(ParameterError):
        bad()


@pytest.mark.parametrize("spec, order", [
    (FamilySpec("path", m=1), 1),
    (FamilySpec("cycle", m=3), 3),
    (FamilySpec("empty", m=1), 1),
    (FamilySpec("complete", m=1), 1),
    (FamilySpec("path_union", parts=(1,)), 1),
    (FamilySpec("fan", n=1, m=1), 2),
    (FamilySpec("wheel", n=1, m=3), 4),
    (FamilySpec("split", n=1, m=1), 2),
    (FamilySpec("complete_bipartite", n=1, m=1), 2),
])
def test_least_family_parameters_are_accepted(spec, order):
    assert generate(spec).order == order


@pytest.mark.parametrize("message, build", [
    ("wheel requires m >= 3, got 2", lambda: graphs.wheel(1, 2)),
    ("fan requires n >= 1, got 0", lambda: FamilySpec("fan", n=0, m=2)),
    ("cycle requires m >= 3, got 2", lambda: graphs.cycle(2)),
    ("path_union requires parts[1] >= 1, got 0", lambda: graphs.path_union([3, 0, 2])),
    ("path_union requires at least one part", lambda: FamilySpec("path_union", parts=[])),
    # the tuple methods that build a spec run the same check
    ("fan requires m >= 1, got 0", lambda: graphs.fan(2, 3)._replace(m=0)),
    ("fan spec requires n", lambda: FamilySpec._make(("fan", None, 3, None))),
    ("unknown family kind 'moebius'", lambda: FamilySpec("moebius", m=4)),
])
def test_out_of_range_messages_name_the_parameter(message, build):
    with pytest.raises(ParameterError, match=re.escape(message) + "$"):
        build()


def test_path_union_parts_are_stored_as_a_tuple():
    spec = FamilySpec("path_union", parts=[2, 1])
    assert spec.parts == (2, 1)
    assert spec == graphs.path_union((2, 1))
    assert hash(spec) == hash(graphs.path_union((2, 1)))
    assert {spec: 1}[graphs.path_union([2, 1])] == 1
    with pytest.raises(AttributeError):
        spec.m = 5


@pytest.mark.parametrize("kwargs,field", [
    (dict(kind="fan", m=3), "n"),
    (dict(kind="fan", n=2), "m"),
    (dict(kind="path_union"), "parts"),
    (dict(kind="path", n=2, m=3), "n"),
    (dict(kind="cycle", m=5, parts=(5,)), "parts"),
    (dict(kind="path_union", m=3, parts=(1, 2)), "m"),
    (dict(kind="split"), "n"),
])
def test_family_spec_needs_exactly_its_kinds_parameters(kwargs, field):
    # a malformed spec is rejected when it is built, not deep in a formula
    with pytest.raises(ParameterError, match=f"{kwargs['kind']} spec .* {field}$"):
        FamilySpec(**kwargs)


def test_graph_rejects_self_loops_and_out_of_range():
    with pytest.raises(ParameterError):
        Graph.build(3, [(1, 1)])
    with pytest.raises(ParameterError):
        Graph.build(3, [(0, 3)])


def test_graph_rejects_a_negative_endpoint_and_a_negative_order():
    with pytest.raises(ParameterError, match=re.escape("edge (-1,2) endpoint out of range")):
        Graph.build(4, [(-1, 2)])
    with pytest.raises(ParameterError, match="order must be non-negative"):
        Graph.build(-1, [])


@pytest.mark.parametrize("mask, expected", [
    (0, []),
    (0b101100, [2, 3, 5]),
    (1 << 64 | 1 << 63 | 1, [0, 63, 64]),
    (1 << 200 | 1 << 70, [70, 200]),
])
def test_members_lists_a_mask_in_ascending_order(mask, expected):
    assert members(mask) == expected


def test_delete_middle_of_path():
    g = generate(graphs.path(5))
    sub, kept = delete_vertices(g, 1 << 2)
    assert sub.order == 4
    assert edge_set(sub) == {(0, 1), (2, 3)}
    assert kept == [0, 1, 3, 4]


def test_delete_two_from_cycle():
    g = generate(graphs.cycle(5))
    sub, kept = delete_vertices(g, 1 << 0 | 1 << 2)
    assert kept == [1, 3, 4]
    comps = components(sub)
    assert [list(c) for c in comps] == [[0], [1, 2]]


def test_delete_nothing_is_identity():
    g = generate(graphs.path(3))
    sub, kept = delete_vertices(g, 0)
    assert sub == g
    assert kept == [0, 1, 2]


def test_delete_out_of_range_member():
    # a bit at or past the order, or a negative mask, is no set of g's vertices
    g = generate(graphs.path(3))
    for removed in (1 << 3, 1 << 4 | 1, -1):
        with pytest.raises(ParameterError, match="not within a graph of order 3"):
            delete_vertices(g, removed)


def test_components_of_small_graphs():
    two_paths = generate(graphs.path_union([2, 2]))
    assert [list(c) for c in components(two_paths)] == [[0, 1], [2, 3]]
    assert [list(c) for c in components(generate(graphs.empty(3)))] == [[0], [1], [2]]
    assert [list(c) for c in components(generate(graphs.cycle(4)))] == [[0, 1, 2, 3]]


@pytest.mark.parametrize("parts,count", [([3, 2], 1), ([1, 1, 1], 3), ([2, 4], 0)])
def test_odd_component_count(parts, count):
    assert odd_component_count(generate(graphs.path_union(parts))) == count


# --- properties ------------------------------------------------------------

simple_specs = st.one_of(
    st.integers(1, 8).map(graphs.path),
    st.integers(3, 8).map(graphs.cycle),
    st.integers(1, 6).map(graphs.empty),
    st.integers(1, 6).map(graphs.complete),
    st.lists(st.integers(1, 4), min_size=1, max_size=3).map(graphs.path_union),
)

family_specs = st.one_of(
    simple_specs,
    st.tuples(st.integers(1, 4), st.integers(1, 6)).map(lambda t: graphs.fan(*t)),
    st.tuples(st.integers(1, 4), st.integers(3, 6)).map(lambda t: graphs.wheel(*t)),
    st.tuples(st.integers(1, 4), st.integers(1, 5)).map(lambda t: graphs.split(*t)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map(
        lambda t: graphs.complete_bipartite(*t)),
)


@st.composite
def random_graphs(draw, max_order=10):
    n = draw(st.integers(1, max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return Graph.build(n, edges)


@given(family_specs)
def test_generated_graphs_satisfy_invariants(spec):
    g = generate(spec)
    for u, mask in enumerate(g.masks):
        assert 0 <= mask < 1 << g.order
        assert not mask >> u & 1
        for v in range(g.order):
            assert mask >> v & 1 == g.masks[v] >> u & 1
    assert g == Graph.build(g.order, g.sorted_edges())


@given(random_graphs())
def test_component_sizes_partition_the_vertices(g):
    comps = components(g)
    all_members = [v for c in comps for v in c]
    assert sorted(all_members) == list(range(g.order))
    assert odd_component_count(g) % 2 == g.order % 2


@given(st.integers(2, 9), st.data())
@settings(max_examples=60)
def test_deleting_from_paths_and_cycles_leaves_paths(m, data):
    base_spec = data.draw(st.sampled_from(["path", "cycle"]))
    if base_spec == "cycle" and m < 3:
        m = 3
    g = generate(graphs.path(m) if base_spec == "path" else graphs.cycle(m))
    removal = data.draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=m - 1))
    sub, _ = delete_vertices(g, sum(1 << v for v in removal))
    for comp in components(sub):
        inside = set(comp)
        comp_edges = [e for e in sub.sorted_edges() if e[0] in inside and e[1] in inside]
        # a path component: connected with |E| = |V| - 1 and max degree <= 2
        assert len(comp_edges) == len(comp) - 1
        for v in inside:
            degree = sum(1 for e in comp_edges if v in e)
            assert degree <= 2


def test_neighbor_masks_are_computed_once_and_immutable():
    # the masks are the graph's one field, written when it is built
    g = generate(graphs.wheel(2, 5))
    masks = g.masks
    assert isinstance(masks, tuple)
    assert g.masks is masks
    with pytest.raises(AttributeError):
        g.masks = ()
    edges = g.sorted_edges()
    assert all(masks[u] >> v & 1 and masks[v] >> u & 1 for u, v in edges)
    assert sum(m.bit_count() for m in masks) == 2 * g.edge_count == 2 * len(edges)


def test_the_mask_cache_does_not_change_equality_or_hashing():
    # edge lists in any order, orientation or multiplicity build one graph
    a = generate(graphs.fan(2, 4))
    edges = a.sorted_edges()
    flipped = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(edges)]
    b = Graph.build(a.order, reversed(flipped))
    c = Graph.build(a.order, edges + flipped[::3])
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert a.masks == b.masks == c.masks


def _grid_specs():
    """Specs on the fan, wheel, split, complete-bipartite, path-union and
    cycle grids."""
    yield from (graphs.fan(n, m) for n in range(1, 7) for m in range(1, 15))
    yield from (graphs.wheel(n, m) for n in range(1, 7) for m in range(3, 15))
    yield from (graphs.split(n, m) for n in range(1, 6) for m in range(1, 11))
    yield from (graphs.complete_bipartite(n, m) for n in range(1, 7) for m in range(1, 7))
    yield from (graphs.path_union(parts) for total in range(1, 9)
                for parts in harness.compositions(total))
    yield from (graphs.cycle(m) for m in range(3, 21))


def _rebuilt(g):
    # sorted_edges() reads each mask above its own vertex only, so a mask
    # that is asymmetric or has its own bit set would not survive the trip
    return Graph.build(g.order, g.sorted_edges())


def test_every_grid_graph_and_its_token_graph_equal_their_rebuilds():
    for spec in _grid_specs():
        g = generate(spec)
        assert _rebuilt(g) == g, spec.label()
        if g.order >= 2:
            token = build_f2(g).graph
            assert _rebuilt(token) == token, spec.label()


@given(random_graphs(max_order=7), random_graphs(max_order=7))
@settings(max_examples=60)
def test_a_join_equals_its_rebuild_from_its_edge_list(g1, g2):
    g = join(g1, g2)
    assert _rebuilt(g) == g
    assert g.edge_count == g1.edge_count + g2.edge_count + g1.order * g2.order


def test_twin_classes_of_true_and_false_twins():
    # E_2 + P_3: the E_2 side (0, 1) are false twins, as are the path's
    # ends (2, 4); the middle 3 has no twin
    assert twin_class_of(generate(graphs.fan(2, 3))) == (0b11, 0b11, 0b10100, 0b1000, 0b10100)
    # K_4 is one class of true twins; E_3 + K_2 has a false and a true class
    assert twin_class_of(generate(graphs.complete(4))) == (0b1111,) * 4
    assert twin_class_of(generate(graphs.split(3, 2))) == (0b111,) * 3 + (0b11000,) * 2


def test_twin_classes_of_isolated_vertices_and_graphs_without_twins():
    # isolated vertices are false twins of each other, whatever else the graph holds
    g = Graph.build(5, [(0, 1), (1, 2)])
    assert twin_class_of(g) == (0b101, 0b10, 0b101, 0b11000, 0b11000)
    assert twin_class_of(Graph.build(1, [])) == (1,)
    assert twin_class_of(generate(graphs.path(4))) == (1, 2, 4, 8)
    assert twin_class_of(generate(graphs.cycle(5))) == (1, 2, 4, 8, 16)


@given(random_graphs(max_order=9))
def test_twin_classes_are_disjoint_and_every_transposition_is_an_automorphism(g):
    class_of = twin_class_of(g)
    assert len(class_of) == g.order
    masks = g.masks
    for v, c in enumerate(class_of):
        # every vertex lies in its own class, and the classes are disjoint:
        # each member's class is the same mask
        assert c >> v & 1
        assert all(class_of[u] == c for u in members(c))
        for u in members(c):
            if u <= v:
                continue
            assert (masks[u] | 1 << u == masks[v] | 1 << v) or masks[u] == masks[v]
            swap = {u: v, v: u}
            image = {tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in g.sorted_edges()}
            assert image == set(g.sorted_edges())
    # maximal: no vertex outside a class twins any vertex in it
    for u in range(g.order):
        for v in range(u + 1, g.order):
            twins = masks[u] == masks[v] or masks[u] | 1 << u == masks[v] | 1 << v
            assert twins == bool(class_of[u] >> v & 1)


# ---------------------------------------------------------------------------
# The cycle or path side: rotations and reflections beyond the twin classes
# ---------------------------------------------------------------------------

def is_automorphism(g, p):
    return {tuple(sorted((p[a], p[b]))) for a, b in g.sorted_edges()} == edge_set(g)


def generated_group(gens, order):
    """Every permutation the generators compose to, identity included."""
    group = {tuple(range(order))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for q in gens:
            pq = tuple(q[p[v]] for v in range(order))
            if pq not in group:
                group.add(pq)
                todo.append(pq)
    return group


@pytest.mark.parametrize("spec, count", [
    (graphs.cycle(9), 2), (graphs.cycle(5), 2), (graphs.wheel(1, 5), 2), (graphs.wheel(3, 7), 2),
    (graphs.path(8), 1), (graphs.path(4), 1), (graphs.fan(1, 4), 1), (graphs.fan(2, 6), 1),
    (graphs.path_union((4, 5)), 0), (graphs.path_union((3, 1, 2)), 0), (graphs.split(3, 5), 0),
    (graphs.split(1, 1), 0), (graphs.complete(5), 0), (graphs.complete_bipartite(2, 3), 0),
    # C_4 and P_3 leave twins: the classes, not the generators, hold their symmetry
    (graphs.wheel(2, 4), 0), (graphs.fan(2, 3), 0), (graphs.path(3), 0), (graphs.cycle(3), 0),
], ids=lambda x: x.label() if isinstance(x, FamilySpec) else str(x))
def test_the_generators_of_each_family(spec, count):
    g = generate(spec)
    gens = cycle_or_path_generators(g, twin_class_of(g))
    assert len(gens) == count
    for p in gens:
        assert sorted(p) == list(range(g.order)) and p != tuple(range(g.order))
        assert is_automorphism(g, p)
        # a join's E_n side is fixed: only the cycle or path moves
        assert all(p[v] == v for v in range(spec.n or 0))


def test_the_benchmark_sparse_graph_has_no_side_generator():
    g = Graph.build(SPARSE_ORDER, SPARSE_EDGES)
    assert cycle_or_path_generators(g, twin_class_of(g)) == ()


def expected_generator_count(nx, h):
    """Read with networkx: 2 when removing every vertex adjacent to all
    vertices outside its twin class leaves one cycle, 1 when it leaves one
    path of two or more vertices, else 0."""
    def twins(u, v):
        return set(h[u]) - {v} == set(h[v]) - {u}
    removed = {v for v in h if all(h.has_edge(v, u) or twins(u, v) for u in h if u != v)}
    side = h.subgraph(set(h) - removed)
    if side.number_of_nodes() < 2 or not nx.is_connected(side):
        return 0
    degrees = sorted(d for _, d in side.degree())
    if degrees[-1] > 2:
        return 0
    return 2 if degrees[0] == 2 else 1


def test_every_generator_of_an_atlas_graph_is_an_automorphism():
    nx = pytest.importorskip("networkx")
    tally = [0, 0, 0]
    for h in nx.graph_atlas_g():
        g = Graph.build(h.number_of_nodes(), h.edges())
        gens = cycle_or_path_generators(g, twin_class_of(g))
        assert len(gens) == expected_generator_count(nx, h), sorted(h.edges())
        for p in gens:
            assert sorted(p) == list(range(g.order)) and p != tuple(range(g.order))
            assert is_automorphism(g, p), sorted(h.edges())
        tally[len(gens)] += 1
    # C_5..C_7, alone or joined; P_4..P_7, alone or joined
    assert tally == [1_232, 14, 7]


def test_path_walks_read_every_linear_forest_of_an_atlas_graph():
    # every graph of order <= 6 against every vertex subset: wherever the
    # subset induces a union of paths, the walks are its paths, each from
    # its lower end, in ascending order of their first vertex
    nx = pytest.importorskip("networkx")
    cases = forests = 0
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() > 6:
            break
        g = Graph.build(h.number_of_nodes(), h.edges())
        for vertices in range(1 << g.order):
            cases += 1
            sub = h.subgraph(members(vertices))
            if sub and not (nx.is_forest(sub) and max(d for _, d in sub.degree()) <= 2):
                continue
            forests += 1
            walks, walked = graphs.path_walks(g, vertices)
            assert walked == vertices, (sorted(h.edges()), vertices)
            assert sorted(map(sorted, walks)) == sorted(map(sorted, nx.connected_components(sub)))
            for walk in walks:
                assert walk[0] <= walk[-1], (sorted(h.edges()), vertices, walks)
                assert all(h.has_edge(u, v) for u, v in zip(walk, walk[1:])), walks
            assert [walk[0] for walk in walks] == sorted(walk[0] for walk in walks)
    assert (cases, forests) == (11_291, 8_556)


@given(planted_sides(9, 3, 3))
@settings(max_examples=80, deadline=None)
def test_a_planted_side_gives_exactly_its_rotations_and_reflections(case):
    cyclic, g, walk = case
    gens = cycle_or_path_generators(g, twin_class_of(g))
    assert len(gens) == (2 if cyclic else 1)
    for p in gens:
        assert is_automorphism(g, p)
    k = len(walk)
    if cyclic:
        moves = [{walk[i]: walk[(j + s * i) % k] for i in range(k)}
                 for j in range(k) for s in (1, -1)]
    else:
        moves = [{}, dict(zip(walk, reversed(walk)))]
    expected = {tuple(move.get(v, v) for v in range(g.order)) for move in moves}
    assert generated_group(gens, g.order) == expected

