import gc
import inspect
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from token_alpha import graphs, mis
from token_alpha.errors import BudgetExceededError, ParameterError
from token_alpha.formulas import alpha_closed_form
from token_alpha.graphs import Graph, generate, join, members
from token_alpha.harness import sweep_specs
from token_alpha.mis import is_independent, max_independent_set
from token_alpha.report import witness_digest, witness_strings
from token_alpha.tokens import build_f2

from reference import SPARSE_EDGES, SPARSE_ORDER, max_independent_set_exhaustive


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.build(n, edges)


def test_is_independent():
    g = generate(graphs.path(3))
    assert is_independent(g, 0b101)
    assert not is_independent(g, 0b011)
    assert is_independent(g, 0)


@pytest.mark.parametrize("s", [1 << 3, 1 << 3 | 1, 1 << 70 | 0b101, -1])
def test_is_independent_rejects_a_mask_outside_the_order(s):
    with pytest.raises(ParameterError, match="not within a graph of order 3"):
        is_independent(generate(graphs.path(3)), s)


def test_exhaustive_on_trivial_graphs():
    assert max_independent_set_exhaustive(generate(graphs.empty(4))).size == 4
    assert max_independent_set_exhaustive(generate(graphs.complete(5))).size == 1


def test_exhaustive_on_f2_of_p4():
    # floor(16/4) = 4
    tg = build_f2(generate(graphs.path(4)))
    assert max_independent_set_exhaustive(tg.graph).size == 4


def test_exhaustive_witness_is_lexicographically_least():
    res = max_independent_set_exhaustive(generate(graphs.cycle(5)))
    assert res.size == 2
    assert members(res.witness) == [0, 2]
    res = max_independent_set_exhaustive(generate(graphs.empty(3)))
    assert members(res.witness) == [0, 1, 2]


def test_exhaustive_cap():
    with pytest.raises(ValueError, match="order 31 exceeds the exhaustive cap of 30"):
        max_independent_set_exhaustive(generate(graphs.empty(31)))


def test_solver_on_f2_of_c5():
    # floor(5 * floor(5/2) / 2) = 5
    tg = build_f2(generate(graphs.cycle(5)))
    assert max_independent_set(tg.graph).size == 5


def test_solver_on_f2_of_fan_2_3():
    # frozen from the exhaustive oracle over the 10-vertex token graph
    tg = build_f2(generate(graphs.fan(2, 3)))
    assert max_independent_set(tg.graph).size == 4


def test_solver_on_f2_of_e3_plus_k4():
    # frozen from the exhaustive oracle over the 21-vertex token graph;
    # equals floor(4/2) + C(3,2)
    tg = build_f2(generate(graphs.split(3, 4)))
    assert max_independent_set(tg.graph).size == 5


def test_solver_witness_is_always_independent():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.5, 0.8]))
        res = max_independent_set(g)
        assert is_independent(g, res.witness)
        assert res.witness.bit_count() == res.size


def test_solver_matches_exhaustive_on_random_graphs():
    rng = random.Random(5)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.1, 0.3, 0.5, 0.8]))
        assert max_independent_set(g).size == max_independent_set_exhaustive(g).size


def test_adding_edges_never_increases_alpha():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(4, 10)
        g = Graph.build(n, [])
        previous = n
        missing = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(missing)
        for u, v in missing[:10]:
            g = Graph.build(n, g.sorted_edges() + [(u, v)])
            size = max_independent_set(g).size
            assert size <= previous
            previous = size


def test_join_lower_bound_on_random_pairs():
    rng = random.Random(31)
    for _ in range(25):
        g1 = random_graph(rng, rng.randint(2, 5), rng.random())
        g2 = random_graph(rng, rng.randint(2, 5), rng.random())
        whole = max_independent_set(build_f2(join(g1, g2)).graph).size
        split_sum = (max_independent_set(build_f2(g1).graph).size
                     + max_independent_set(build_f2(g2).graph).size)
        assert whole >= split_sum


def test_budget_abort_is_distinct():
    tg = build_f2(generate(graphs.fan(4, 6)))
    with pytest.raises(BudgetExceededError) as err:
        max_independent_set(tg.graph, node_budget=1)
    assert err.value.nodes_explored > 1
    # and without a budget the same instance solves fine
    assert max_independent_set(tg.graph).size == 15


def test_a_deep_search_ends_on_its_budget_not_the_recursion_limit():
    # the generalized Petersen graph GP(50,2): outer cycle, spokes, inner
    # edges i to i+2.  Its token graph's search dives ~600 levels within
    # 600 nodes; run under a limit 300 frames above this one, it ends on
    # its budget, with the limit left as it was, because the search keeps
    # its open nodes on a list and does not recurse
    edges = [e for i in range(50)
             for e in ((i, (i + 1) % 50), (i, 50 + i), (50 + i, 50 + (i + 2) % 50))]
    tg = build_f2(Graph.build(100, edges))
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 300)
    try:
        limit = sys.getrecursionlimit()
        with pytest.raises(BudgetExceededError):
            max_independent_set(tg, node_budget=600)
        assert sys.getrecursionlimit() == limit
        max_independent_set(build_f2(generate(graphs.fan(4, 6))))
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(saved)


def test_a_deep_search_never_sets_the_recursion_limit(monkeypatch):
    # GP(50,2)'s ~600-level dive, under a limit 40 frames above this one
    # that the solve cannot raise: the search's depth is its list of open
    # nodes, not the interpreter's stack
    edges = [e for i in range(50)
             for e in ((i, (i + 1) % 50), (i, 50 + i), (50 + i, 50 + (i + 2) % 50))]
    tg = build_f2(Graph.build(100, edges))

    def refuse(limit):
        raise AssertionError(f"the solve set the recursion limit to {limit}")

    set_limit, saved = sys.setrecursionlimit, sys.getrecursionlimit()
    set_limit(len(inspect.stack(0)) + 40)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        with pytest.raises(BudgetExceededError):
            max_independent_set(tg, node_budget=600)
    finally:
        set_limit(saved)


def test_budget_edge_is_the_node_count():
    tg = build_f2(generate(graphs.fan(4, 6)))
    full = max_independent_set(tg.graph)
    assert full.nodes_explored == 11
    exact = max_independent_set(tg.graph, node_budget=full.nodes_explored)
    assert exact.size == full.size
    with pytest.raises(BudgetExceededError):
        max_independent_set(tg.graph, node_budget=full.nodes_explored - 1)


def test_split_5_14_solves_without_a_budget():
    # C(5,2) + floor(14/2); this dense join must finish without a node budget
    tg = build_f2(generate(graphs.split(5, 14)))
    res = max_independent_set(tg.graph)
    assert res.size == 17
    assert res.nodes_explored == 16_612
    assert res.witness.bit_count() == 17
    assert is_independent(tg.graph, res.witness)
    assert witness_digest(witness_strings(tg.pairs, res.witness)) == "9e739c30105d"


def test_folds_can_lift_size_above_the_incumbent():
    # the degree-0/1 folds below the root reach a chosen set larger than
    # the incumbent while candidates remain, so that node keeps every clique
    edges = [(0, 9), (3, 6), (3, 13), (4, 5), (4, 6), (4, 18), (4, 22), (5, 6), (5, 13),
             (6, 14), (6, 22), (7, 11), (7, 14), (8, 15), (9, 11), (9, 19), (9, 22),
             (13, 14), (15, 20), (15, 21), (16, 21), (16, 22), (17, 20), (17, 23), (20, 23)]
    g = Graph.build(24, edges)
    res = max_independent_set(g)
    assert res.size == max_independent_set_exhaustive(g).size
    assert is_independent(g, res.witness)


def test_a_fold_can_force_a_lower_vertex():
    # folding 3 (its one neighbour is 0) leaves 1 with the single neighbour 4;
    # the search folds the lowest forced vertex first, so 1 joins before 4 can
    g = Graph.build(7, [(0, 1), (0, 3), (0, 5), (0, 6), (1, 4), (2, 5), (2, 6)])
    res = max_independent_set(g)
    assert res.size == 4
    assert members(res.witness) == [1, 3, 5, 6]
    assert res.nodes_explored == 1


def test_a_dropped_branch_vertex_can_force_a_distant_vertex():
    # no vertex is forced at the root; in the renumbered search, once the
    # root's branch loop has dropped a vertex, a later child holds a forced
    # vertex more than two steps from that child's own branch vertex
    edges = [(0, 1), (0, 8), (0, 9), (0, 10), (1, 5), (1, 7), (2, 3), (2, 6), (2, 8),
             (3, 4), (3, 7), (3, 8), (4, 5), (5, 8), (6, 9), (7, 8), (8, 9), (8, 10)]
    g = Graph.build(11, edges)
    res = max_independent_set(g)
    assert res.size == max_independent_set_exhaustive(g).size == 5
    assert members(res.witness) == [1, 2, 4, 9, 10]
    assert res.nodes_explored == 3


@pytest.mark.parametrize("order,edges,witness", [
    # triangles 045 and 123, with 6 next to 0, 1 and 3; the root branches
    # on 6, whose child {2, 4, 5} keeps only 2 of the triangle 123, at
    # degree 1 (next to 4): the child folds 2, then 5
    pytest.param(7, [(0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 6), (2, 3), (2, 4),
                     (3, 5), (3, 6), (4, 5)], [2, 5, 6], id="one-member-left"),
    # the root branches on 6, whose child {2, 3, 4} keeps 3 and 4 of the
    # triangle 347, each at degree 1 (next to the other): the child folds
    # 4, then 2
    pytest.param(8, [(0, 1), (0, 2), (0, 5), (0, 6), (1, 2), (1, 3), (1, 5), (1, 6),
                     (2, 5), (2, 7), (3, 4), (3, 7), (4, 7), (5, 6), (6, 7)],
                 [2, 4, 6], id="two-members-left"),
])
def test_a_child_folds_its_lowest_forced_vertex_first(order, edges, witness):
    # the child solves by its folds, without a further node
    g = Graph.build(order, edges)
    res = max_independent_set(g)
    assert res.size == max_independent_set_exhaustive(g).size == 3
    assert members(res.witness) == witness
    assert res.nodes_explored == 2


@pytest.mark.parametrize("family,n_range,m_range,nodes", [
    pytest.param("fan", (1, 6), (2, 10), 304, id="fan"),
    pytest.param("wheel", (1, 6), (3, 10), 790, id="wheel"),
    pytest.param("path_union", None, (2, 10), 1_022, id="path_union"),
    pytest.param("complete_bipartite", (1, 6), (1, 8), 73, id="complete_bipartite"),
    pytest.param("split", (1, 5), (1, 10), 4_860, id="split"),
    pytest.param("complete", None, (2, 14), 36_573, id="complete"),
])
def test_search_tree_sizes_are_pinned(family, n_range, m_range, nodes):
    # total nodes_explored over a sweep's token graphs: any change to the
    # fold order, the renumbering, the clique cover or the branching order
    # moves it
    specs = sweep_specs(family, n_range, m_range)
    total = sum(max_independent_set(build_f2(generate(spec)).graph).nodes_explored
                for spec in specs)
    assert total == nodes


FOLD_SPECS = [spec for family, n_range, m_range in [
    ("fan", (1, 6), (2, 12)), ("wheel", (1, 6), (3, 12)), ("path_union", None, (2, 10)),
    ("complete_bipartite", (1, 6), (1, 8)), ("split", (1, 5), (1, 10)),
    ("complete", None, (2, 14)),
] for spec in sweep_specs(family, n_range, m_range)] + [
    graphs.wheel(8, 23), graphs.fan(10, 19), graphs.wheel(1, 23)]


@pytest.mark.parametrize("route", ["token", "plain"])
def test_every_fold_starts_with_each_low_degree_candidate_dirty(monkeypatch, route):
    # the folds check only their dirty vertices, so a candidate of degree
    # <= 1 outside the mask would never be folded; a search that forgets
    # a vertex it removed can still find alpha, so check every call
    real = mis._fold
    calls = 0

    def checked(adj, cand, dirty, chosen):
        nonlocal calls
        calls += 1
        clean = cand & ~dirty
        low = [v for v in range(len(adj)) if clean >> v & 1 and (adj[v] & cand).bit_count() < 2]
        assert not low, (calls, low)
        return real(adj, cand, dirty, chosen)

    monkeypatch.setattr(mis, "_fold", checked)
    for spec in FOLD_SPECS:
        tg = build_f2(generate(spec))
        max_independent_set(tg if route == "token" else tg.graph)
    assert calls > len(FOLD_SPECS)   # folds below the roots were checked too


def test_complete_20_spends_its_whole_budget():
    # F2(K_20) has alpha = 10 against a cover bound of 19, so the search is
    # still open after 100 000 nodes and aborts on the next one
    tg = build_f2(generate(graphs.complete(20)))
    with pytest.raises(BudgetExceededError) as err:
        max_independent_set(tg.graph, node_budget=100_000)
    assert err.value.nodes_explored == 100_001


@pytest.mark.parametrize("spec,budget,alpha", [
    (graphs.fan(6, 18), 100, 96),
    (graphs.wheel(6, 18), 100, 96),
    (graphs.fan(12, 23), 1_000, 199),
], ids=["fan(6,18)", "wheel(6,18)", "fan(12,23)"])
def test_fans_and_wheels_past_the_old_reach(spec, budget, alpha):
    # searched in the token graph's lexicographic numbering, the m = 18
    # rows take 270 968 and 187 953 nodes and fan(12,23) exceeds 1 000
    tg = build_f2(generate(spec))
    res = max_independent_set(tg.graph, node_budget=budget)
    assert res.size == alpha == alpha_closed_form(spec).value
    assert is_independent(tg.graph, res.witness)


def test_zero_order_graph():
    res = max_independent_set(Graph.build(0, []))
    assert (res.size, res.witness, res.nodes_explored) == (0, 0, 0)


@st.composite
def small_graphs(draw, max_order=10):
    n = draw(st.integers(1, max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    return Graph.build(n, edges)


@given(small_graphs())
@settings(max_examples=60)
def test_two_solvers_agree_and_witnesses_hold(g):
    a = max_independent_set_exhaustive(g)
    b = max_independent_set(g)
    assert a.size == b.size
    assert is_independent(g, a.witness)
    assert is_independent(g, b.witness)


@st.composite
def sparse_graphs(draw):
    """Sparse graphs and forests, in which folds cascade through chains of
    degree-0/1 vertices."""
    n = draw(st.integers(1, 18))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        order = list(range(n))
        rng.shuffle(order)
        edges = [(order[rng.randrange(i)], order[i]) for i in range(1, n) if rng.random() < 0.9]
    else:
        p = draw(st.floats(0.05, 0.25))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.build(n, edges)


@given(sparse_graphs())
@settings(max_examples=100)
def test_solvers_agree_on_sparse_graphs(g):
    a = max_independent_set_exhaustive(g)
    b = max_independent_set(g)
    assert a.size == b.size
    assert b.witness.bit_count() == b.size
    assert is_independent(g, b.witness)


@st.composite
def dense_graphs(draw):
    """Dense graphs, whose clique covers hold many cliques of 3 or more."""
    n = draw(st.integers(1, 18))
    rng = draw(st.randoms(use_true_random=False))
    p = draw(st.floats(0.6, 0.95))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.build(n, edges)


@given(dense_graphs())
@settings(max_examples=100)
def test_solvers_agree_on_dense_graphs(g):
    a = max_independent_set_exhaustive(g)
    b = max_independent_set(g)
    assert a.size == b.size
    assert b.witness.bit_count() == b.size
    assert is_independent(g, b.witness)


@st.composite
def graphs_with_subsets(draw):
    g = draw(small_graphs(max_order=12))
    chosen = draw(st.sets(st.integers(0, g.order - 1)))
    return g, sum(1 << v for v in chosen)


@given(graphs_with_subsets())
@settings(max_examples=100)
def test_is_independent_matches_the_edge_scan(case):
    g, s = case
    by_edges = not any(s >> u & 1 and s >> v & 1 for u, v in g.sorted_edges())
    assert is_independent(g, s) == by_edges


@st.composite
def graphs_with_masks_near_an_edge(draw):
    """A graph with at least one edge, its edge list as drawn, and a random
    mask that, half the time, holds both ends of one of those edges."""
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    s = draw(st.integers(0, (1 << n) - 1))
    if draw(st.booleans()):
        u, v = draw(st.sampled_from(edges))
        s |= 1 << u | 1 << v
    flipped = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    return Graph.build(n, flipped), sorted(edges), s


@given(graphs_with_masks_near_an_edge())
@settings(max_examples=200)
def test_is_independent_is_the_edge_list_definition(case):
    # the judge of every witness against the definition, on sets that are
    # and are not independent; sorted_edges lists the edges g was built from
    g, edges, s = case
    assert g.sorted_edges() == edges
    assert is_independent(g, s) == (not any(s >> u & 1 and s >> v & 1 for u, v in edges))


# ---------------------------------------------------------------------------
# Pruning by twin orbits: the solver is given the token graph it solves
# ---------------------------------------------------------------------------

def solve_with_orbits(spec, node_budget=None):
    tg = build_f2(generate(spec))
    res = max_independent_set(tg, node_budget=node_budget)
    assert res.witness.bit_count() == res.size
    assert is_independent(tg.graph, res.witness)
    return res


@pytest.mark.parametrize("spec,budget,alpha,nodes,digest", [
    (graphs.split(5, 14), None, 17, 6, "9e739c30105d"),
    (graphs.complete(16), None, 8, 7, "f310e7a114a8"),
    (graphs.complete(20), 100_000, 10, 9, "4bf4420f2c5d"),
    (graphs.split(6, 18), None, 24, 8, "7a4ab537896b"),
    (graphs.wheel(8, 23), None, 154, 145, "5f0fee242cb9"),
    (graphs.cycle(29), None, 203, 63, "a2a277c0ee02"),
    (graphs.wheel(1, 23), None, 126, 197, "ae1201de270e"),
    (graphs.fan(10, 19), None, 136, 73, "0d67b05d7fc8"),
    (graphs.wheel(4, 11), None, 33, 41, "912c61d0326d"),
], ids=["split(5,14)", "complete(16)", "complete(20)", "split(6,18)", "wheel(8,23)",
        "cycle(29)", "wheel(1,23)", "fan(10,19)", "wheel(4,11)"])
def test_symmetric_search_trees_are_pinned(spec, budget, alpha, nodes, digest):
    # the plain search takes 16 612 nodes on split(5,14), 218 387 on
    # complete(16), 3 023 on wheel(8,23), and exceeds 100 000 on complete(20)
    # and 300 000 on split(6,18); the last three rows branch and fold
    # below the root, so the witness digest of the solver's pairs moves
    # with any change to the fold order, the cover or the branching.
    # wheel(4,11) pins _Orbits.free: a group that also moved base vertex
    # 0, which chosen pairs touch, searched 37 nodes, not 41
    tg = build_f2(generate(spec))
    res = max_independent_set(tg, node_budget=budget)
    assert res.witness.bit_count() == res.size
    assert is_independent(tg.graph, res.witness)
    assert res.size == alpha == alpha_closed_form(spec).value
    assert res.nodes_explored == nodes
    assert witness_digest(witness_strings(tg.pairs, res.witness)) == digest


@pytest.mark.parametrize("family,n_range,m_range,nodes", [
    pytest.param("fan", (1, 6), (2, 10), 284, id="fan"),
    pytest.param("wheel", (1, 6), (3, 10), 338, id="wheel"),
    pytest.param("path_union", None, (2, 10), 1_022, id="path_union"),
    pytest.param("complete_bipartite", (1, 6), (1, 8), 73, id="complete_bipartite"),
    pytest.param("split", (1, 5), (1, 10), 118, id="split"),
    pytest.param("complete", None, (2, 14), 43, id="complete"),
])
def test_symmetric_search_tree_sizes_are_pinned(family, n_range, m_range, nodes):
    # the same sweeps as test_search_tree_sizes_are_pinned; each of the
    # 1 022 path-union rows closes at its root, on both routes
    specs = sweep_specs(family, n_range, m_range)
    assert sum(solve_with_orbits(spec).nodes_explored for spec in specs) == nodes


def test_orbits_without_twins_leave_the_search_tree_alone():
    # neither base has a twin class or a side that is one cycle or path, so
    # the group is trivial: F2(C5 + C7) branches below its root, and the
    # path union closes at it
    for base in (cycle_union(5, 7), generate(graphs.path_union((4, 5)))):
        tg = build_f2(base)
        assert graphs.twin_class_of(base) == tuple(1 << v for v in range(base.order))
        assert graphs.cycle_or_path_generators(base, graphs.twin_class_of(base)) == ()
        plain = max_independent_set(tg.graph)
        pruned = max_independent_set(tg)
        assert (pruned.size, pruned.nodes_explored, pruned.witness) == (
            plain.size, plain.nodes_explored, plain.witness)


@pytest.mark.parametrize("spec,plain_nodes,nodes", [
    (graphs.cycle(9), 3, 2), (graphs.cycle(15), 16, 7), (graphs.wheel(1, 11), 19, 11),
], ids=["cycle(9)", "cycle(15)", "wheel(1,11)"])
def test_a_cycle_side_shrinks_the_search_tree_but_not_alpha(spec, plain_nodes, nodes):
    # none of these bases has a twin class, so every orbit drop comes from
    # the cycle's rotations and reflections
    tg = build_f2(generate(spec))
    assert graphs.twin_class_of(tg.base) == tuple(1 << v for v in range(tg.base.order))
    assert len(graphs.cycle_or_path_generators(tg.base, graphs.twin_class_of(tg.base))) == 2
    plain = max_independent_set(tg.graph)
    pruned = max_independent_set(tg)
    assert (plain.nodes_explored, pruned.nodes_explored) == (plain_nodes, nodes)
    assert pruned.size == plain.size == alpha_closed_form(spec).value
    assert pruned.witness.bit_count() == pruned.size
    assert is_independent(tg.graph, pruned.witness)


def test_a_side_that_a_forced_pair_touches_leaves_the_group():
    # F2(P_8)'s root folds {0,1}, a vertex of degree 1; a group that moved
    # the path would not fix that pair, so the reversal must stay out of it
    # (with nothing forced, every token vertex is left to renumber)
    tg = build_f2(generate(graphs.path(8)))
    forced = 1 << tg.through[0][1]
    order = [t for t in range(tg.graph.order) if not forced >> t & 1]
    side = (1 << 8) - 1
    for fixed, left, free in ((0, list(range(tg.graph.order)), side), (forced, order, 0)):
        assert mis._Orbits(tg, fixed, left).free(0) == free


def test_no_node_group_moves_a_forced_base_vertex(monkeypatch):
    # _Orbits takes the root's forced pairs out of its class table once, and
    # free reads only the node's chosen set; a group that moved a forced
    # pair's base vertex would not fix that pair.  The sparse graph's four
    # twin classes all meet the forced pairs, so only the node pin saw that
    seen = []

    class Checked(mis._Orbits):
        def __init__(self, token, forced, order):
            super().__init__(token, forced, order)
            self.fixed = 0
            for t in members(forced):
                a, b = token.pairs[t]
                self.fixed |= 1 << a | 1 << b

        def free(self, chosen):
            out = super().free(chosen)
            assert not out & self.fixed
            seen.append(out)
            return out

    monkeypatch.setattr(mis, "_Orbits", Checked)
    for base in (Graph.build(SPARSE_ORDER, SPARSE_EDGES), generate(graphs.wheel(4, 11)),
                 generate(graphs.split(5, 14)), generate(graphs.fan(10, 19))):
        max_independent_set(build_f2(base))
    assert any(seen)


def test_orbit_tables_wait_for_the_first_orbit_drop(monkeypatch):
    # a solve makes its _Orbits where its branch loop first drops an orbit
    # and goes on branching: fan(1,4) and fan(1,5) renumber and search
    # without one, a path union closes at its root, and wheel(4,11) and
    # cycle(9) drop orbits and make exactly one, which reads the base
    # graph's twin classes once: the side's generators take its table
    made, classes = [], []
    real = graphs.twin_class_of

    class Counting(mis._Orbits):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    def counted(g):
        classes.append(g)
        return real(g)

    monkeypatch.setattr(mis, "_Orbits", Counting)
    monkeypatch.setattr(mis, "twin_class_of", counted)
    monkeypatch.setattr(graphs, "twin_class_of", counted)
    for spec, nodes, count in ((graphs.fan(1, 4), 1, 0), (graphs.fan(1, 5), 2, 0),
                               (graphs.path_union((3, 4)), 1, 0),
                               (graphs.wheel(4, 11), 41, 1), (graphs.cycle(9), 2, 1)):
        made.clear()
        classes.clear()
        res = max_independent_set(build_f2(generate(spec)))
        assert (res.nodes_explored, len(made), len(classes)) == (nodes, count, count), spec.label()


def networkx_alpha(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.sorted_edges())
    clique, _ = nx.max_weight_clique(nx.complement(h), weight=None)
    return len(clique)


@st.composite
def planted_twin_graphs(draw):
    """A random graph on a few types, each blown up into a class of false
    or true twins, with its vertices shuffled so no class is contiguous."""
    types = draw(st.integers(1, 5))
    sizes = [draw(st.integers(1, 4)) for _ in range(types)]
    adjacent_inside = [draw(st.booleans()) for _ in range(types)]
    type_edges = {(i, j) for i in range(types) for j in range(i + 1, types)
                  if draw(st.booleans())}
    kinds = [i for i, size in enumerate(sizes) for _ in range(size)][:10]
    if len(kinds) < 2:
        kinds = [0, 0]
    labels = draw(st.permutations(range(len(kinds))))
    edges = [(labels[u], labels[v])
             for u in range(len(kinds)) for v in range(u + 1, len(kinds))
             if (kinds[u] == kinds[v] and adjacent_inside[kinds[u]])
             or (kinds[u], kinds[v]) in type_edges]
    return Graph.build(len(kinds), edges)


@given(planted_twin_graphs())
@settings(max_examples=80, deadline=None)
def test_orbit_pruning_keeps_alpha_and_witnesses(base):
    tg = build_f2(base)
    pruned = max_independent_set(tg)
    assert pruned.size == max_independent_set(tg.graph).size
    if tg.graph.order <= 30:
        assert pruned.size == max_independent_set_exhaustive(tg.graph).size
    else:
        assert pruned.size == networkx_alpha(tg.graph)
    assert pruned.witness.bit_count() == pruned.size
    assert is_independent(tg.graph, pruned.witness)


@pytest.mark.parametrize("budget", [None, 2])
def test_a_solve_frees_the_token_graph_without_the_garbage_collector(budget):
    # the search must leave no reference cycle holding the token graph: on
    # thousands of small rows, freeing it only at the next collection
    # tripled the collections and slowed a path-union sweep by 5-8%
    gc.disable()
    try:
        tg = build_f2(generate(graphs.split(3, 7)))
        ref = weakref.ref(tg)
        try:
            max_independent_set(tg, node_budget=budget)
        except BudgetExceededError:
            pass
        del tg
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Disconnected residuals: the root searches each component on its own
# ---------------------------------------------------------------------------

def test_sparse_graph_solves_by_its_components():
    # searched whole, this 780-vertex token graph exceeds 200 000 nodes; the
    # root's folds leave 8 components, the largest of 195 vertices
    tg = build_f2(Graph.build(SPARSE_ORDER, SPARSE_EDGES))
    res = max_independent_set(tg)
    assert res.size == 393
    assert res.nodes_explored == 6_706
    assert res.witness.bit_count() == res.size
    assert is_independent(tg.graph, res.witness)


def cycle_union(*lengths):
    edges, offset = [], 0
    for m in lengths:
        edges += [(offset + i, offset + (i + 1) % m) for i in range(m)]
        offset += m
    return Graph.build(offset, edges)


@pytest.mark.parametrize("route", ["token", "plain"])
def test_budget_edge_counts_the_nodes_of_every_component(route):
    # F2(C5 + C7) is F2(C5), F2(C7) and C5 x C7, alpha 5 + 10 + 14; its root
    # does not close, so more than one component is searched
    tg = build_f2(cycle_union(5, 7))
    g = tg if route == "token" else tg.graph
    full = max_independent_set(g)
    assert full.size == 29
    assert full.nodes_explored == 42
    exact = max_independent_set(g, node_budget=full.nodes_explored)
    assert (exact.size, exact.nodes_explored, exact.witness) == (
        full.size, full.nodes_explored, full.witness)
    with pytest.raises(BudgetExceededError) as err:
        max_independent_set(g, node_budget=full.nodes_explored - 1)
    assert err.value.nodes_explored == full.nodes_explored


@pytest.mark.parametrize("route", ["token", "plain"])
def test_a_zero_budget_aborts_at_the_root(route):
    # the root is node 1, so a budget below it aborts there
    tg = build_f2(generate(graphs.wheel(2, 5)))
    with pytest.raises(BudgetExceededError) as err:
        max_independent_set(tg if route == "token" else tg.graph, node_budget=0)
    assert err.value.nodes_explored == 1


BLOCK_SIZES = {"cycle": (3, 5), "path": (2, 4), "clique": (2, 4), "isolated": (1, 1)}


@st.composite
def disjoint_unions(draw):
    """Disjoint unions of small cycles, paths, cliques and isolated
    vertices, of order 2..10, with the labels shuffled: isolated vertices,
    path ends and clique members are twins across components."""
    blocks = []
    order = 0
    while order < 2 or draw(st.booleans()):
        kind = draw(st.sampled_from(sorted(BLOCK_SIZES)))
        size = draw(st.integers(*BLOCK_SIZES[kind]))
        if order + size > 10:
            break
        blocks.append((kind, size))
        order += size
    labels = draw(st.permutations(range(order)))
    edges, offset = [], 0
    for kind, size in blocks:
        if kind == "clique":
            local = [(i, j) for i in range(size) for j in range(i + 1, size)]
        else:
            local = [(i, i + 1) for i in range(size - 1)]
            if kind == "cycle":
                local.append((0, size - 1))
        edges += [(labels[offset + u], labels[offset + v]) for u, v in local]
        offset += size
    return Graph.build(order, edges)


@given(disjoint_unions())
@settings(max_examples=60, deadline=None)
def test_disjoint_unions_match_networkx_on_both_routes(base):
    tg = build_f2(base)
    alpha = networkx_alpha(tg.graph)
    for res in (max_independent_set(tg), max_independent_set(tg.graph)):
        assert res.size == alpha
        assert res.witness.bit_count() == res.size
        assert is_independent(tg.graph, res.witness)


# ---------------------------------------------------------------------------
# The root's certificate: a greedy set and a clique cover of one size, both
# in the input's labels, close the solve before any renumbering
# ---------------------------------------------------------------------------

def count_renumberings(monkeypatch):
    """Patches mis._renumber to count its calls; a root the certificate
    closes never renumbers."""
    real = mis._renumber
    calls = [0]

    def counted(adj, cand):
        calls[0] += 1
        return real(adj, cand)

    monkeypatch.setattr(mis, "_renumber", counted)
    return calls


@pytest.mark.parametrize("route", ["token", "plain"])
def test_every_path_union_row_closes_at_the_root_in_its_own_labels(monkeypatch, route):
    # F2 of a path union: the greedy set of its lexicographic labels is as
    # large as their greedy clique cover, on all 1 022 rows of totals 2..10
    calls = count_renumberings(monkeypatch)
    rows = 0
    for spec in sweep_specs("path_union", None, (2, 10)):
        tg = build_f2(generate(spec))
        res = max_independent_set(tg if route == "token" else tg.graph)
        assert res.nodes_explored == 1, spec
        assert res.size == alpha_closed_form(spec).value, spec
        assert is_independent(tg.graph, res.witness)
        rows += 1
    assert (rows, calls[0]) == (1_022, 0)


def test_a_root_closed_by_its_certificate_is_maximum_on_every_atlas_graph(monkeypatch):
    # the cover bounds alpha of what the folds leave, so a greedy set of its
    # size is maximum; rows where the certificate fails are searched instead
    nx = pytest.importorskip("networkx")
    calls = count_renumberings(monkeypatch)
    closed = searched = 0
    for h in nx.graph_atlas_g()[1:]:   # every graph but the null graph, which has no root
        g = Graph.build(h.number_of_nodes(), h.edges())
        before = calls[0]
        res = max_independent_set(g)
        assert res.size == max_independent_set_exhaustive(g).size, sorted(h.edges())
        assert res.witness.bit_count() == res.size
        assert is_independent(g, res.witness)
        if calls[0] == before:
            closed += 1
            assert res.nodes_explored == 1
        else:
            searched += 1
    assert (closed, searched) == (909, 343)
