import pytest

from token_alpha import graphs
from token_alpha.errors import ParameterError
from token_alpha.formulas import (
    alpha_closed_form,
    alpha_complete,
    alpha_complete_bipartite,
    alpha_cycle,
    alpha_empty,
    alpha_fan,
    alpha_path,
    alpha_path_union,
    alpha_split,
    alpha_wheel,
)


@pytest.mark.parametrize("m,expected", [(2, 1), (4, 4), (7, 12)])
def test_alpha_path(m, expected):
    assert alpha_path(m) == expected


@pytest.mark.parametrize("m,expected", [(3, 1), (5, 5), (6, 9)])
def test_alpha_cycle(m, expected):
    assert alpha_cycle(m) == expected


def test_alpha_empty_complete_star():
    assert alpha_empty(4) == 6
    assert alpha_complete(5) == 2
    assert [alpha_fan(n, 1).value for n in (1, 2, 3, 4)] == [1, 2, 3, 6]


@pytest.mark.parametrize("parts,expected", [
    ([5], 6),
    ([3, 2], 6),       # frozen from the exhaustive oracle on F2(P3 ⊔ P2)
    ([1, 1, 1], 3),
])
def test_alpha_path_union(parts, expected):
    assert alpha_path_union(parts) == expected


def test_path_union_of_one_part_matches_path():
    for m in range(2, 15):
        assert alpha_path_union([m]) == alpha_path(m)


def test_alpha_fan_examples():
    # (2,3) and (4,3) frozen from the exhaustive oracle
    res = alpha_fan(2, 3)
    assert res.value == 4 and res.exceptional
    res = alpha_fan(4, 3)
    assert res.value == 8 and not res.exceptional
    res = alpha_fan(1, 1)
    assert res.value == 1 and res.formula_id == "fan.star"
    assert alpha_fan(3, 5).value == 10  # n = (m+1)/2, frozen from the oracle
    assert alpha_fan(4, 5).value == 13  # n = (m+3)/2
    assert alpha_fan(4, 5).exceptional


def test_fan_exceptional_branch_requires_odd_m():
    for n in range(1, 8):
        for m in range(2, 9, 2):
            assert not alpha_fan(n, m).exceptional


def test_alpha_wheel_examples():
    assert alpha_wheel(1, 3).value == 2
    assert alpha_wheel(1, 3).exceptional
    assert alpha_wheel(2, 3).value == 3
    assert alpha_wheel(2, 3).exceptional
    res = alpha_wheel(3, 5)  # frozen from the exact solver on the 28-vertex token graph
    assert res.value == 8 and not res.exceptional


def test_wheel_and_fan_agree_for_even_m():
    for m in (4, 6, 8):
        for n in range(1, 7):
            assert alpha_wheel(n, m).value == alpha_fan(n, m).value


def test_alpha_split_examples():
    assert alpha_split(1, 3).value == 2
    assert alpha_split(2, 5).value == 4   # frozen from the exact solver
    assert alpha_split(3, 4).value == 5   # frozen from the exact solver
    assert alpha_split(1, 3).formula_id == "split.n1"
    assert alpha_split(2, 5).formula_id == "split.n2"
    assert alpha_split(3, 4).formula_id == "split.general"


def test_alpha_complete_bipartite():
    assert alpha_complete_bipartite(2, 2) == 4 == alpha_cycle(4)
    assert alpha_complete_bipartite(1, 1) == 1
    assert alpha_complete_bipartite(3, 7) == 24
    for n in range(1, 8):
        for m in range(1, 8):
            value = alpha_complete_bipartite(n, m)
            assert value >= n * m
            assert value >= n * (n - 1) // 2 + m * (m - 1) // 2


@pytest.mark.parametrize("func,arg", [
    (alpha_path, 1), (alpha_empty, 1), (alpha_complete, 1),
])
def test_domain_errors(func, arg):
    with pytest.raises(ParameterError):
        func(arg)


def test_dispatcher_known_families():
    assert alpha_closed_form(graphs.fan(2, 3)).value == 4
    assert alpha_closed_form(graphs.path_union([3, 2])).value == 6
    assert alpha_closed_form(graphs.cycle(6)).value == 9
    assert alpha_closed_form(graphs.complete_bipartite(3, 7)).value == 24
    assert alpha_closed_form(graphs.split(2, 5)).value == 4


@pytest.mark.parametrize("spec,message", [
    (graphs.path(1), "path formula requires m >= 2, got 1"),
    (graphs.path_union([1]), "path-union formula requires total order >= 2, got 1"),
    (graphs.empty(1), "empty formula requires m >= 2, got 1"),
    (graphs.complete(1), "complete formula requires m >= 2, got 1"),
], ids=["path(1)", "path_union([1])", "empty(1)", "complete(1)"])
def test_dispatcher_rejects_a_base_graph_below_order_2(spec, message):
    # no token graph exists below order 2; the family formula says so
    with pytest.raises(ParameterError, match=message):
        alpha_closed_form(spec)
