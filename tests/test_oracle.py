"""Cross-check of the branch-and-bound solver above the exhaustive oracle's
cap: alpha(G) is the clique number of the complement of G, which networkx's
max_weight_clique computes by an unrelated algorithm."""

import pytest
from hypothesis import given, settings, strategies as st

from token_alpha import graphs
from token_alpha.graphs import Graph, generate
from token_alpha.mis import EXHAUSTIVE_CAP, is_independent, max_independent_set
from token_alpha.tokens import build_f2

nx = pytest.importorskip("networkx")


def networkx_alpha(g: Graph) -> int:
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.sorted_edges())
    clique, _ = nx.max_weight_clique(nx.complement(h), weight=None)
    return len(clique)


def check_against_networkx(g: Graph):
    res = max_independent_set(g)
    assert res.size == networkx_alpha(g)
    assert is_independent(g, res.witness)
    assert res.witness.bit_count() == res.size


@pytest.mark.parametrize("spec", [graphs.fan(3, 8), graphs.wheel(4, 9), graphs.split(4, 11)],
                         ids=lambda spec: spec.label())
def test_family_token_graphs_match_networkx(spec):
    tg = build_f2(generate(spec))
    assert tg.graph.order > EXHAUSTIVE_CAP
    check_against_networkx(tg.graph)


@st.composite
def base_graphs(draw):
    # orders 7..12 give token graphs of 21..66 vertices
    n = draw(st.integers(7, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.build(n, [p for p in pairs if draw(st.booleans())])


@given(base_graphs())
@settings(max_examples=40, deadline=None)
def test_random_token_graphs_match_networkx(base):
    check_against_networkx(build_f2(base).graph)
