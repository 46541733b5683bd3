"""Tracing from outside the program: wraps the names callers look up
(module attributes such as ``harness.build_f2`` and the method
``TokenGraph.indices_of``) so that each call records a span.

Spans are kept in memory as [parent, name, start_ns, end_ns] with the
index of the enclosing span as parent (-1 for a root), and summarized per
name into calls, inclusive time and self time.  Self time is a span's
duration minus the time of its direct children, so nested layers (the
solver inside construction_pairs, build_f2 inside the lemma's solver
route) are not counted twice, and the self times of all spans add up to
the root spans' time.  The span stack is shared, so the traced program
must run single-threaded (run.py pins TOKEN_ALPHA_THREADS=1).
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

from token_alpha import cli, harness
from token_alpha.errors import BudgetExceededError
from token_alpha.tokens import TokenGraph


def _count_nodes(counts, result, exc):
    if exc is None:
        counts["nodes"] += result.nodes_explored
    elif isinstance(exc, BudgetExceededError):
        counts["nodes"] += exc.nodes_explored
        counts["aborts"] += 1


def _count_token_graph(counts, result, exc):
    if exc is None:
        counts["token_vertices"] += result.graph.order
        counts["token_edges"] += result.graph.edge_count


def _count_bytes(counts, result, exc):
    if exc is None:
        counts["bytes"] += len(result.encode("utf-8"))


# (owner, attribute, span name, counter hook).  cli and harness each hold
# their own reference to the functions they import, so both are wrapped.
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "parse_graph", "fileio.parse_graph", None),
    (cli, "render_tsv", "report.render_tsv", _count_bytes),
    (cli, "evaluate_row", "harness.evaluate_row", None),
    (cli, "evaluate_graph_row", "harness.evaluate_graph_row", None),
    (cli, "run_sweep", "harness.run_sweep", None),
    (cli, "run_lemma_trials", "harness.run_lemma_trials", None),
    (harness, "evaluate_row", "harness.evaluate_row", None),
    (harness, "base_graph_for", "harness.base_graph_for", None),
    (harness, "construction_pairs", "harness.construction_pairs", None),
    (harness, "random_independent_set_with_cross",
     "harness.random_independent_set_with_cross", None),
    (harness, "alpha_closed_form", "formulas.alpha_closed_form", None),
    (harness, "build_f2", "tokens.build_f2", _count_token_graph),
    (harness, "max_independent_set", "mis.max_independent_set", _count_nodes),
    (harness, "is_independent", "mis.is_independent", None),
    (harness, "AssociatedSetInput", "constructions.AssociatedSetInput", None),
    (harness, "associated_independent_set", "constructions.associated_independent_set", None),
    (harness, "extract_s1_s2", "constructions.extract_s1_s2", None),
    (harness, "path_union_independent_set", "constructions.path_union_independent_set", None),
    (TokenGraph, "indices_of", "tokens.indices_of", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.counts.clear()

    def install(self) -> None:
        for owner, attr, name, hook in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, hook):
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            span = [stack[-1] if stack else -1, name, 0, 0]
            spans.append(span)
            stack.append(index)
            result = exc = None
            span[2] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                span[3] = perf_counter_ns()
                stack.pop()
                if hook is not None:
                    hook(self.counts[name], result, exc)

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ns, self ns and each call's ns."""
        child_ns = [0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for index, (_, name, start, end) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "each_ns": []})
            entry["calls"] += 1
            entry["ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
            entry["each_ns"].append(end - start)
        for name, counts in self.counts.items():
            out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "each_ns": []}).update(counts)
        return out


def _ms(summary, name, key="ns"):
    return summary.get(name, {}).get(key, 0) / 1e6


def _count(summary, name, key):
    return summary.get(name, {}).get(key, 0)


def rep_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, in BENCHMARK.json's units."""
    mis = "mis.max_independent_set"
    nodes = _count(summary, mis, "nodes")
    return {
        f"{mis}.calls": _count(summary, mis, "calls"),
        f"{mis}.ms": _ms(summary, mis),
        f"{mis}.nodes": nodes,
        f"{mis}.us_per_node": _ms(summary, mis) * 1000 / nodes if nodes else 0.0,
        f"{mis}.aborts": _count(summary, mis, "aborts"),
        "tokens.build_f2.calls": _count(summary, "tokens.build_f2", "calls"),
        "tokens.build_f2.ms": _ms(summary, "tokens.build_f2"),
        "tokens.build_f2.token_vertices": _count(summary, "tokens.build_f2", "token_vertices"),
        "tokens.build_f2.token_edges": _count(summary, "tokens.build_f2", "token_edges"),
        "tokens.indices_of.ms": _ms(summary, "tokens.indices_of"),
        "mis.is_independent.calls": _count(summary, "mis.is_independent", "calls"),
        "mis.is_independent.ms": _ms(summary, "mis.is_independent"),
        "constructions.AssociatedSetInput.ms": _ms(summary, "constructions.AssociatedSetInput"),
        "constructions.associated_independent_set.ms":
            _ms(summary, "constructions.associated_independent_set"),
        "constructions.extract_s1_s2.ms": _ms(summary, "constructions.extract_s1_s2"),
        "constructions.path_union_independent_set.ms":
            _ms(summary, "constructions.path_union_independent_set"),
        "harness.random_independent_set_with_cross.ms":
            _ms(summary, "harness.random_independent_set_with_cross"),
        "harness.construction_pairs.self_ms":
            _ms(summary, "harness.construction_pairs", "self_ns"),
        "harness.base_graph_for.ms": _ms(summary, "harness.base_graph_for"),
        "harness.evaluate_row.calls": _count(summary, "harness.evaluate_row", "calls"),
        "harness.evaluate_row.self_ms": _ms(summary, "harness.evaluate_row", "self_ns"),
        "formulas.alpha_closed_form.ms": _ms(summary, "formulas.alpha_closed_form"),
        "report.render_tsv.ms": _ms(summary, "report.render_tsv"),
        "report.render_tsv.bytes": _count(summary, "report.render_tsv", "bytes"),
        "fileio.parse_graph.ms": _ms(summary, "fileio.parse_graph"),
        "cli.main.ms": _ms(summary, "cli.main"),
    }
