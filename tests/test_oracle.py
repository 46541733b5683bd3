"""Cross-checks of the branch-and-bound solver through networkx and scipy.
Above the exhaustive oracle's cap: alpha(G) is the clique number of the
complement of G, which networkx's max_weight_clique computes by an
unrelated algorithm, and the optimum of the edge formulation's integer
program, which scipy's milp (HiGHS) solves.  Below it: the token graph of
every graph in networkx's atlas of order 2..7, against the oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from token_alpha import graphs
from token_alpha.graphs import Graph, generate
from token_alpha.mis import is_independent, max_independent_set
from token_alpha.tokens import TokenGraph, build_f2

from reference import EXHAUSTIVE_CAP, max_independent_set_exhaustive, planted_sides

nx = pytest.importorskip("networkx")


def networkx_alpha(g: Graph) -> int:
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.sorted_edges())
    clique, _ = nx.max_weight_clique(nx.complement(h), weight=None)
    return len(clique)


def check_against_networkx(g):
    """Solve g, a plain graph or a token graph (whose ``.graph`` is solved,
    pruned by its base graph's symmetries), and check it against networkx."""
    res = max_independent_set(g)
    plain = g.graph if isinstance(g, TokenGraph) else g
    assert res.size == networkx_alpha(plain)
    assert is_independent(plain, res.witness)
    assert res.witness.bit_count() == res.size


@pytest.mark.parametrize("spec", [graphs.fan(3, 8), graphs.wheel(4, 9), graphs.split(4, 11),
                                  graphs.cycle(13), graphs.wheel(2, 9)],
                         ids=lambda spec: spec.label())
def test_family_token_graphs_match_networkx(spec):
    # on both routes: pruned by the base graph's symmetries, and plain
    tg = build_f2(generate(spec))
    assert tg.graph.order > EXHAUSTIVE_CAP
    check_against_networkx(tg)
    check_against_networkx(tg.graph)


@st.composite
def base_graphs(draw, lo=7, hi=12):
    # orders 7..12 give token graphs of 21..66 vertices, 8..14 of 28..91
    n = draw(st.integers(lo, hi))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.build(n, [p for p in pairs if draw(st.booleans())])


@given(base_graphs())
@settings(max_examples=40, deadline=None)
def test_random_token_graphs_match_networkx(base):
    check_against_networkx(build_f2(base).graph)


@given(planted_sides(7, 2, 2))
@settings(max_examples=30, deadline=None)
def test_planted_cycle_and_path_sides_match_networkx(case):
    # token graphs of up to 55 vertices that the search prunes by the
    # side's rotations and reflections as well as by the twins
    _, base, _ = case
    assert graphs.cycle_or_path_generators(base, graphs.twin_class_of(base))
    check_against_networkx(build_f2(base))


def test_every_atlas_graph_of_order_2_to_7_matches_the_oracle():
    # with and without the twin-orbit pruning, which only a token graph gets
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() >= 2]
    assert len(atlas) == 1251
    for h in atlas:
        tg = build_f2(Graph.build(h.number_of_nodes(), h.edges()))
        alpha = max_independent_set_exhaustive(tg.graph).size
        for res in (max_independent_set(tg), max_independent_set(tg.graph)):
            assert res.size == alpha, sorted(h.edges())
            assert is_independent(tg.graph, res.witness)
            assert res.witness.bit_count() == res.size


def milp_independent_set(g: Graph) -> tuple[int, int]:
    """The edge formulation of alpha(g) solved by scipy's milp: a binary x_v
    per vertex, x_u + x_v <= 1 per edge, maximise the sum of x.  Returns
    the optimum it states and the set x picks, as a bitmask."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    edges = g.sorted_edges()
    rows = [e for e in range(len(edges)) for _ in range(2)]
    cols = [v for edge in edges for v in edge]
    a = sparse.csr_array(([1] * len(cols), (rows, cols)), shape=(len(edges), g.order))
    res = optimize.milp([-1] * g.order, integrality=[1] * g.order,
                        bounds=optimize.Bounds(0, 1),
                        constraints=optimize.LinearConstraint(a, ub=1))
    assert res.success, res.message
    chosen = sum(1 << v for v, x in enumerate(res.x) if x > 0.5)
    return round(-res.fun), chosen


def check_against_milp(tg):
    size, chosen = milp_independent_set(tg.graph)
    assert is_independent(tg.graph, chosen)
    assert chosen.bit_count() == size
    res = max_independent_set(tg)
    assert res.size == size
    return res


# spec, alpha, and the solver's node count on the token route: these are
# the deepest family search trees tier-1 solves, so the counts pin them
MILP_FAMILY_ROWS = [
    (graphs.cycle(41), 410, 960), (graphs.wheel(1, 27), 175, 773),
    (graphs.fan(6, 14), 64, 13), (graphs.split(5, 14), 17, 6), (graphs.complete(20), 10, 9),
]


@pytest.mark.parametrize("spec, alpha, nodes", MILP_FAMILY_ROWS,
                         ids=[f"{spec.label()}-{alpha}" for spec, alpha, _ in MILP_FAMILY_ROWS])
def test_family_token_graphs_match_milp(spec, alpha, nodes):
    tg = build_f2(generate(spec))
    assert tg.graph.order > EXHAUSTIVE_CAP
    res = check_against_milp(tg)
    assert (res.size, res.nodes_explored) == (alpha, nodes)


@given(base_graphs(8, 14))
@settings(max_examples=25, deadline=None)
def test_random_token_graphs_match_milp(base):
    check_against_milp(build_f2(base))
