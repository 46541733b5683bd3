"""Verification harness: evaluate formula / construction / exact solver on
family instances, sweep parameter grids, and exercise the improvement lemma
on random independent sets.

The solver is the ground truth; a row whose methods disagree is a DISAGREE
row and fails the run.  Every method works on the graph that
``graphs.generate`` builds for the spec, so witnesses are in the labels
that ``export`` writes.  Constructions never call the solver, so they
check it independently and the node budget caps the solver alone; from
``mis`` they take only the greedy maximal independent set, as the S2 of
a join family's cross candidate.  Their witnesses are always re-checked
for independence before their size is trusted.  The solver runs only
for a row's solver cell (``_solve``).  A row generates its graph once,
and a formula-only row not at all: the construction reads it, and a
join's H is read off it.  Every construction route, the one-graph kinds,
both join candidates and the lemma trials, takes its maximum set of an
F2(H - S2) from one recipe, ``_max_ind_rows_of_f2``, which reads the
shape of H - S2 off H's adjacency bitsets (paths, through
``graphs.path_walks``, a clique or a whole cycle), not from a family
name.  S1, S2 and the recipe's removed set are bitmasks, as the
adjacency bitsets are.  Constructions, lemma-trial sets and solver
witnesses are token masks, and a row keeps them so: it carries its token
graph's pair table, which ``report`` reads to write a JSON witness.

A family row (``evaluate_row``) and a file row (``evaluate_graph_row``,
the solver only) share one body, ``_row``.  A sweep is one pass:
``run_sweep(family, n_range, m_range, methods, node_budget)`` yields each
row as soon as it is evaluated, and ``VerdictTally`` counts the verdicts
of rows, or of lemma trials, as they go by, so a report needs no row once
it has rendered it.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Iterator
from typing import NamedTuple

from .constructions import (
    AssociatedSetInput,
    associated_independent_set,
    cycle_independent_set,
    extract_s1_s2,
    path_union_independent_set,
)
from .errors import BudgetExceededError, ParameterError
from .formulas import AlphaFormulaResult, alpha_closed_form
from .graphs import FAMILIES, FamilySpec, Graph, generate, join, members, path_walks
from .mis import MisResult, greedy_independent_set, is_independent, max_independent_set
from .tokens import (TokenGraph, TokenPair, build_f2, check_token_cap, join_partition,
                     partner_rows_mask)

METHODS = ("formula", "construction", "solver")
VERDICTS = ("AGREE", "DISAGREE", "ABORTED")


# ---------------------------------------------------------------------------
# Construction recipes
# ---------------------------------------------------------------------------

def _max_ind_rows_of_f2(g: Graph, removed: int) -> list[int]:
    """A maximum independent set of F2(g - removed) as partner rows in g's
    labels (``constructions``), built without the solver and chosen by
    the shape of what is left, as g's adjacency bitsets show it; removed
    is a bitmask of g's vertices.  The one-graph constructions, both join
    candidates and the lemma trials all take it.

    The paths of g - removed come from ``graphs.path_walks``, each walked
    from its lower-labelled end for the reason given there (an isolated
    vertex is a walk of one, and K2 is a path); if they cover every
    survivor, the parity construction on the walks is maximum.  Otherwise
    a clique is covered by a matching, and anything else gets the cycle
    construction, which is maximum only for a whole cycle numbered
    0..m-1 around itself as ``generate`` builds it: the only other shape a
    family leaves.  Any other shape, such as a vertex of degree 3 or more
    beside a path end, may get a wrong set; a row's ``is_independent``
    check and solver cell, or a trial's size check, are what judge it.
    """
    adj = g.masks
    left = (1 << g.order) - 1 & ~removed
    walks, walked = path_walks(g, left)
    if walked == left:
        return path_union_independent_set(walks, g.order)
    survivors = members(left)
    if all(adj[v] & left == left ^ 1 << v for v in survivors):
        rows = [0] * g.order
        for x, y in zip(survivors[0::2], survivors[1::2]):
            rows[x] = 1 << y
        return rows
    return cycle_independent_set(g.order)


def construction_pairs(spec: FamilySpec, base: Graph) -> int:
    """Explicit independent set for the family instance, as the token mask
    of F2(base), built without the exact solver from base, the graph
    ``generate`` builds for spec.

    Paths, path unions, cycles, cliques and edgeless graphs get the
    maximum set of their own token graph, read off base.  Join families
    E_n + H (the kinds with an n) read H off base, where ``generate`` puts
    it past the E_n side 0..n-1, and get the larger of two candidates: the
    side set (all E_n pairs plus a maximum set of F2(H)) and the
    cross-heavy associated set built from S1 = V(E_n) and a maximum
    independent set S2 of H.  S2 is H's greedy maximal independent set in
    label order, which is maximum for every H a join family has: the even
    labels of a path or a cycle, one vertex of a clique, all of an
    edgeless graph.
    """
    n = spec.n
    if n is None:
        return partner_rows_mask(_max_ind_rows_of_f2(base, 0))

    h = Graph(tuple(mask >> n for mask in base.masks[n:]))
    side = associated_independent_set(AssociatedSetInput(
        n=n, s1=0, s2=0, mis_h_minus_s2=_max_ind_rows_of_f2(h, 0)))
    s2 = greedy_independent_set(h.masks, (1 << h.order) - 1)
    cross = associated_independent_set(AssociatedSetInput(
        n=n, s1=(1 << n) - 1, s2=s2, mis_h_minus_s2=_max_ind_rows_of_f2(h, s2)))
    return cross if cross.bit_count() > side.bit_count() else side


def base_graph_for(spec: FamilySpec) -> Graph:
    """Graph whose token graph the harness verifies: the one ``generate``
    builds.  It is refused from the spec's order, before it is built, when
    that token graph would exceed the cap."""
    check_token_cap(spec.order)
    return generate(spec)


# ---------------------------------------------------------------------------
# Row evaluation
# ---------------------------------------------------------------------------

class RowResult:
    """One row's method results.  The construction and the solver's witness
    are token masks over ``token_pairs``, the token graph's pair table.  A
    slot class, not a tuple: memory tests weakly reference rows."""

    __slots__ = ("label", "spec", "formula", "construction", "construction_valid",
                 "solver", "token_pairs", "solver_millis", "aborted", "__weakref__")

    def __init__(self, label: str, spec: FamilySpec | None = None,
                 formula: AlphaFormulaResult | None = None, construction: int | None = None,
                 construction_valid: bool | None = None, solver: MisResult | None = None,
                 token_pairs: tuple[TokenPair, ...] | None = None,
                 solver_millis: int | None = None, aborted: bool = False):
        self.label, self.spec, self.formula = label, spec, formula
        self.construction, self.construction_valid = construction, construction_valid
        self.solver, self.token_pairs = solver, token_pairs
        self.solver_millis, self.aborted = solver_millis, aborted

    @property
    def construction_size(self) -> int | None:
        return None if self.construction is None else self.construction.bit_count()

    @property
    def values(self) -> list[int]:
        out = []
        if self.formula is not None:
            out.append(self.formula.value)
        if self.construction is not None:
            out.append(self.construction.bit_count())
        if self.solver is not None:
            out.append(self.solver.size)
        return out

    @property
    def verdict(self) -> str:
        """ABORTED when a node budget ran out; DISAGREE when the construction
        is not independent or the methods' values differ; else AGREE."""
        if self.aborted:
            return "ABORTED"
        if self.construction_valid is False or len(set(self.values)) > 1:
            return "DISAGREE"
        return "AGREE"


class VerdictTally:
    """The rows of one report, or the trials of a lemma check, read once,
    with each verdict counted as its row goes by: the one place verdicts
    become counts and an exit code.  It keeps no row, so a renderer fed
    from a sweep holds one at a time.  A tally over a tally counts in
    both, so a renderer's own tally and its caller's read the same rows."""

    def __init__(self, rows):
        self._rows = iter(rows)
        self.counts = dict.fromkeys(VERDICTS, 0)

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self._rows)
        self.counts[row.verdict] += 1
        return row

    @property
    def exit_code(self) -> int:
        """1 on any disagreement, else 3 on any budget abort, else 0."""
        if self.counts["DISAGREE"]:
            return 1
        return 3 if self.counts["ABORTED"] else 0


def _solve(tg: TokenGraph, node_budget: int | None) -> dict:
    """Timed exact solve of the token graph, as the RowResult solver fields.
    The search prunes by the base graph's symmetries.  A budget overrun
    leaves the solver empty and marks the row aborted."""
    start = time.perf_counter()
    try:
        result = max_independent_set(tg, node_budget=node_budget)
    except BudgetExceededError:
        result = None
    millis = int((time.perf_counter() - start) * 1000)
    return {"solver": result, "solver_millis": millis, "aborted": result is None}


def _checked_methods(methods) -> tuple[str, ...]:
    methods = tuple(methods)
    for name in methods:
        if name not in METHODS:
            raise ParameterError(f"unknown method {name!r}; choose from {','.join(METHODS)}")
    if not methods:
        raise ParameterError("at least one method is required")
    return methods


def _row(label: str, order: int, spec: FamilySpec | None, base: Graph | None,
         methods: tuple[str, ...], node_budget: int | None) -> RowResult:
    """The one row body: checked methods on base, spec's graph or a file's
    (no spec), of this order; a formula-only row has no base.  Below order
    2 there is no token graph, so the row is rejected."""
    if order < 2:
        raise ParameterError(f"{label} has order {order}; no token graph exists below order 2")
    tg = build_f2(base) if base is not None else None

    formula = alpha_closed_form(spec) if "formula" in methods else None

    witness = valid = None
    if "construction" in methods:
        witness = construction_pairs(spec, base)
        valid = is_independent(tg.graph, witness)

    solved = _solve(tg, node_budget) if "solver" in methods else {}
    return RowResult(label, spec, formula, witness, valid,
                     token_pairs=tg.pairs if tg else None, **solved)


def evaluate_row(spec: FamilySpec, methods=METHODS,
                 node_budget: int | None = None) -> RowResult:
    """Run the requested methods on one family instance and compare.  The
    base graph is built only for the construction or the solver: a
    formula-only row needs none, whatever the spec's order."""
    methods = _checked_methods(methods)
    base = base_graph_for(spec) if "solver" in methods or "construction" in methods else None
    return _row(spec.label(), spec.order, spec, base, methods, node_budget)


def evaluate_graph_row(label: str, base: Graph, node_budget: int | None = None) -> RowResult:
    """Solver row, the only method it has, for an imported base graph."""
    return _row(label, base.order, None, base, ("solver",), node_budget)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def compositions(total: int):
    """All compositions of total into positive parts, lexicographically."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def sweep_specs(family: str, n_range: tuple[int, int] | None = None,
                m_range: tuple[int, int] | None = None) -> Iterator[FamilySpec]:
    """Family instances for a sweep over the inclusive ranges, in
    deterministic lexicographic order.  The family and its ranges are
    checked at once; each instance is checked against ``FAMILIES`` when the
    sweep reaches it and builds it.  Path unions take the m range as totals
    from 2, the least order with a token graph, and walk all their
    compositions."""
    if family not in FAMILIES:
        raise ParameterError(f"family {family!r} cannot be swept")
    ranges = {"n": n_range, "m": m_range}
    for label, rng in ranges.items():
        if rng is not None and rng[0] > rng[1]:
            raise ParameterError(f"empty {label} range {rng[0]}..{rng[1]}")
    params = FAMILIES[family]
    if "parts" in params:
        if m_range is None:
            raise ParameterError(f"{family} sweep requires an m range of totals")
        lo, hi = m_range
        if lo < 2:
            raise ParameterError(f"{family} sweep requires totals >= 2, got m range {lo}..{hi}")
        return (FamilySpec(family, parts=parts)
                for total in range(lo, hi + 1) for parts in compositions(total))
    if any(ranges[p] is None for p in params):
        raise ParameterError(f"{family} sweep requires a range for {' and '.join(params)}")
    grid = itertools.product(*(range(ranges[p][0], ranges[p][1] + 1) for p in params))
    return (FamilySpec(family, **dict(zip(params, values))) for values in grid)


def run_sweep(family: str, n_range: tuple[int, int] | None = None,
              m_range: tuple[int, int] | None = None, methods=METHODS,
              node_budget: int | None = None) -> Iterator[RowResult]:
    """The sweep's rows, each yielded once it is evaluated; nothing here
    keeps a row after yielding it.  ``sweep_specs`` checks the family and
    ranges before the first row is asked for."""
    return (evaluate_row(s, methods, node_budget)
            for s in sweep_specs(family, n_range, m_range))


# ---------------------------------------------------------------------------
# Improvement-lemma trials
# ---------------------------------------------------------------------------

class LemmaTrial(NamedTuple):
    start_size: int
    improved_size: int
    independent: bool
    seed_pair: TokenPair

    @property
    def verdict(self) -> str:
        ok = self.independent and self.improved_size >= self.start_size
        return "AGREE" if ok else "DISAGREE"


class LemmaReport(NamedTuple):
    trials: tuple[LemmaTrial, ...]

    @property
    def failures(self) -> list[int]:
        return [i for i, t in enumerate(self.trials) if t.verdict != "AGREE"]

    @property
    def min_margin(self) -> int:
        return min(t.improved_size - t.start_size for t in self.trials)

    @property
    def mean_margin(self) -> float:
        return sum(t.improved_size - t.start_size for t in self.trials) / len(self.trials)


class DrawTables(NamedTuple):
    """What ``random_independent_set_with_cross`` reads of one graph, built
    once per graph by ``draw_tables``: each vertex's closed neighbourhood
    ``closed[v] = masks[v] | 1 << v``, its own bit ``bits[v] = 1 << v``,
    and ``widths[i] = (i + 1).bit_length()``, the number of random bits
    the shuffle draws for position i."""

    closed: tuple[int, ...]
    bits: tuple[int, ...]
    widths: tuple[int, ...]


def draw_tables(g: Graph) -> DrawTables:
    """g's tables for ``random_independent_set_with_cross``."""
    bits = tuple(1 << v for v in range(g.order))
    return DrawTables(closed=tuple(m | b for m, b in zip(g.masks, bits)), bits=bits,
                      widths=tuple((i + 1).bit_length() for i in range(g.order)))


def _shuffled_range(widths: tuple[int, ...], getrandbits) -> list[int]:
    """0..len(widths)-1 shuffled by the Fisher-Yates that CPython's
    ``random.Random.shuffle`` runs, written out: for i from the last
    position down to 1, ``getrandbits(widths[i])``, drawn again while it
    exceeds i, picks the position swapped with i.  So ``rng.shuffle`` of
    ``list(range(len(widths)))`` gives the same list and leaves rng in the
    same state, without its per-draw ``_randbelow`` call."""
    order = list(range(len(widths)))
    for i in range(len(widths) - 1, 0, -1):
        k = widths[i]
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return order


def random_independent_set_with_cross(tables: DrawTables, cross: list[int],
                                      rng: random.Random) -> tuple[int, int]:
    """Greedy closure of a shuffled vertex order around a forced cross pair
    drawn from ``cross``, the members of the mixed region R of
    ``join_partition`` in ascending order, yielding a maximal independent
    set, meeting that region, of the graph ``tables`` was built from.
    Returns the forced vertex and the set's bitmask.

    The draws are ``rng.choice(cross)``, then ``_shuffled_range`` over
    every vertex: the same draws as ``rng.shuffle``, so a seed gives the
    same sets on every Python whose ``choice`` and ``getrandbits`` give the
    same values.
    """
    seed = rng.choice(cross)
    closed, bits = tables.closed, tables.bits
    chosen = bits[seed]
    blocked = closed[seed]
    for v in _shuffled_range(tables.widths, rng.getrandbits):
        if not blocked & bits[v]:
            chosen |= bits[v]
            blocked |= closed[v]
    return seed, chosen


def run_lemma_trials(n: int, h_spec: FamilySpec, trials: int, seed: int) -> LemmaReport:
    """Check the improvement property on random independent sets of
    F2(E_n + H): the associated set built from the extracted (S1, S2) must
    be independent and at least as large.  F2(H - S2)'s maximum set comes
    from the construction, not the solver; were it ever short of maximum,
    the improved set would shrink and the trial would fail."""
    if n < 1:
        raise ParameterError(f"lemma-check requires n >= 1, got {n}")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    check_token_cap(n + h_spec.order)
    h = generate(h_spec)
    tg = build_f2(join(Graph.build(n, []), h))
    order = tg.base.order
    cross = members(join_partition(tg, n).r)
    tables = draw_tables(tg.graph)
    rng = random.Random(seed)
    results = []
    for _ in range(trials):
        seed_vertex, chosen = random_independent_set_with_cross(tables, cross, rng)
        s1, s2 = extract_s1_s2(chosen, n, order)
        improved = associated_independent_set(AssociatedSetInput(
            n=n, s1=s1, s2=s2, mis_h_minus_s2=_max_ind_rows_of_f2(h, s2)))
        results.append(LemmaTrial(
            start_size=chosen.bit_count(), improved_size=improved.bit_count(),
            independent=is_independent(tg.graph, improved),
            seed_pair=tg.pairs[seed_vertex]))
    return LemmaReport(trials=tuple(results))
