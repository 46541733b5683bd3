"""Closed-form independence numbers of 2-token graphs, family by family.

Each function returns the exact value for its family; the join families
(fan, wheel, E_n + K_m) return a result object that also records which
branch fired, since those theorems have exceptional cases.  A family's
parameter ranges are checked when its ``FamilySpec`` is built; the
functions here reject only a base graph below order 2, which has no
token graph.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import ParameterError
from .graphs import FamilySpec


class AlphaFormulaResult(NamedTuple):
    value: int
    exceptional: bool
    formula_id: str


def alpha_path(m: int) -> int:
    """floor(m^2 / 4) for the path on m >= 2 vertices."""
    if m < 2:
        raise ParameterError(f"path formula requires m >= 2, got {m}")
    return m * m // 4


def alpha_cycle(m: int) -> int:
    """floor(m * floor(m/2) / 2) for the cycle on m >= 3 vertices."""
    return m * (m // 2) // 2


def alpha_empty(m: int) -> int:
    """C(m, 2): the token graph of an edgeless graph has no edges."""
    if m < 2:
        raise ParameterError(f"empty formula requires m >= 2, got {m}")
    return comb(m, 2)


def alpha_complete(m: int) -> int:
    """floor(m / 2): disjoint pairs are the only non-adjacent tokens in K_m."""
    if m < 2:
        raise ParameterError(f"complete formula requires m >= 2, got {m}")
    return m // 2


def alpha_path_union(parts) -> int:
    """(m^2 + t^2 - 2t)/4 for a disjoint union of paths with t odd parts."""
    parts = tuple(parts)
    m = sum(parts)
    if m < 2:
        raise ParameterError(f"path-union formula requires total order >= 2, got {m}")
    t = sum(1 for p in parts if p % 2 == 1)
    # m and t share a parity, so the numerator is divisible by 4.
    return (m * m + t * t - 2 * t) // 4


def alpha_fan(n: int, m: int) -> AlphaFormulaResult:
    """Fan E_n + P_m.

    m = 1 collapses to the star K_{n,1} on n leaves, whose value is
    ``alpha_complete_bipartite(n, 1)``.  For m >= 2 the value is
    floor(m^2/4) + C(n, 2) except when 2n is m+1 or m+3 (possible only for
    odd m), where cross pairs win and the value is n*ceil(m/2) + C(floor(m/2), 2).
    """
    if m == 1:
        return AlphaFormulaResult(alpha_complete_bipartite(n, 1), False, "fan.star")
    if 2 * n == m + 1 or 2 * n == m + 3:
        value = n * ((m + 1) // 2) + comb(m // 2, 2)
        return AlphaFormulaResult(value, True, "fan.exceptional")
    return AlphaFormulaResult(m * m // 4 + comb(n, 2), False, "fan.general")


def alpha_wheel(n: int, m: int) -> AlphaFormulaResult:
    """Wheel E_n + C_m: floor(m*floor(m/2)/2) + C(n, 2), except the two
    small cases (m, n) = (3, 1) and (3, 2) where the value is 2 resp. 3."""
    if (m, n) == (3, 1):
        return AlphaFormulaResult(2, True, "wheel.exceptional")
    if (m, n) == (3, 2):
        return AlphaFormulaResult(3, True, "wheel.exceptional")
    return AlphaFormulaResult(m * (m // 2) // 2 + comb(n, 2), False, "wheel.general")


def alpha_split(n: int, m: int) -> AlphaFormulaResult:
    """E_n + K_m: three branches.

    n = 1 gives K_{m+1} and floor((m+1)/2); n = 2 gives ceil((m+2)/2);
    n >= 3 gives floor(m/2) + C(n, 2).
    """
    if n == 1:
        return AlphaFormulaResult((m + 1) // 2, False, "split.n1")
    if n == 2:
        return AlphaFormulaResult((m + 3) // 2, False, "split.n2")
    return AlphaFormulaResult(m // 2 + comb(n, 2), False, "split.general")


def alpha_complete_bipartite(n: int, m: int) -> int:
    """max(mn, C(m,2) + C(n,2)): the cross pairs and the within-side pairs
    are each independent, and one of them is always maximum."""
    return max(m * n, comb(m, 2) + comb(n, 2))


# kind -> the closed form of a spec of that kind
_CLOSED_FORMS = {
    "path": lambda s: AlphaFormulaResult(alpha_path(s.m), False, "path"),
    "cycle": lambda s: AlphaFormulaResult(alpha_cycle(s.m), False, "cycle"),
    "empty": lambda s: AlphaFormulaResult(alpha_empty(s.m), False, "empty"),
    "complete": lambda s: AlphaFormulaResult(alpha_complete(s.m), False, "complete"),
    "path_union": lambda s: AlphaFormulaResult(alpha_path_union(s.parts), False, "path-union"),
    "fan": lambda s: alpha_fan(s.n, s.m),
    "wheel": lambda s: alpha_wheel(s.n, s.m),
    "split": lambda s: alpha_split(s.n, s.m),
    "complete_bipartite": lambda s: AlphaFormulaResult(
        alpha_complete_bipartite(s.n, s.m), False, "complete-bipartite"),
}


def alpha_closed_form(spec: FamilySpec) -> AlphaFormulaResult:
    """The closed form of a family spec, from its kind's formula.  A spec
    whose base graph has order below 2 has no token graph and no closed
    form: its family function raises ParameterError."""
    return _CLOSED_FORMS[spec.kind](spec)
