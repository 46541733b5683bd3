"""Command-line front end.

Subcommands: alpha (one verification row), sweep (parameter grids),
lemma-check (random improvement-lemma trials), export and import (graph
files).  Exit codes, from ``harness.VerdictTally``: 0 all rows agree, 1
any disagreement or failed lemma trial, 2 usage or IO error or out of
memory, 3 node-budget aborts only.  A file row (``alpha --input``) has
the solver only, so it takes no --methods.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import ParameterError, ParseError
from .fileio import declared_order, parse_graph, read_text, render_graph
from .graphs import FamilySpec
from . import graphs
from .harness import (
    METHODS,
    VerdictTally,
    base_graph_for,
    evaluate_graph_row,
    evaluate_row,
    run_lemma_trials,
    run_sweep,
)
from .report import render_json, render_tsv
from .tokens import TOKEN_VERTEX_CAP, build_f2, check_token_cap, render_token_graph

_LEMMA_H_FAMILIES = tuple(sorted(graphs.JOIN_H_KIND.values()))


def _family_kind(args) -> str:
    """The family kind --family stands for (hyphens in place of the kind's
    underscores), once no family flag names a parameter the kind does not
    take.  Path-union sweeps read --m-range as totals."""
    name = args.family
    kind = name.replace("-", "_")
    if "_" in name or kind not in graphs.FAMILIES:
        choices = sorted(k.replace("_", "-") for k in graphs.FAMILIES)
        raise ParameterError(f"unknown family {name!r}; choose from {', '.join(choices)}")
    params = graphs.FAMILIES[kind]
    if args.command == "sweep" and "parts" in params:
        params = ("m",)
    for flag in ("n", "m", "parts", "n_range", "m_range"):
        if getattr(args, flag, None) is not None and flag.split("_")[0] not in params:
            raise ParameterError(f"--family {name} does not take --{flag.replace('_', '-')}")
    return kind


def _require(args, name: str) -> int:
    value = getattr(args, name)
    if value is None:
        raise ParameterError(f"--family {args.family} requires --{name}")
    return value


def _parts(args) -> tuple[int, ...]:
    if not args.parts:
        raise ParameterError("--family path-union requires --parts A,B,...")
    try:
        return tuple(int(p) for p in args.parts.split(","))
    except ValueError:
        raise ParameterError(f"cannot parse --parts {args.parts!r}") from None


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError:
        raise ParameterError(f"cannot parse range {text!r}; expected A..B") from None


def _budget(args) -> int | None:
    if args.budget is not None and args.budget < 0:
        raise ParameterError(f"--budget must be >= 0, got {args.budget}")
    return args.budget


def _parse_methods(text: str | None) -> tuple[str, ...]:
    """The comma list's names, or every method when --methods is not given;
    ``harness.evaluate_row`` rejects unknown or missing methods."""
    return METHODS if text is None else tuple(m.strip() for m in text.split(",") if m.strip())


def _family_spec(args) -> FamilySpec:
    kind = _family_kind(args)
    return FamilySpec(kind, **{p: _parts(args) if p == "parts" else _require(args, p)
                               for p in graphs.FAMILIES[kind]})


def _report(rows, args, extra: dict | None = None) -> tuple[str, int]:
    """The rendered report and its exit code, both from one pass over rows."""
    tally = VerdictTally(rows)
    text = render_json(tally, extra) if args.format == "json" else render_tsv(tally)
    return text, tally.exit_code


def _cmd_alpha(args) -> tuple[str, int]:
    if (args.input is None) == (args.family is None):
        raise ParameterError("alpha requires exactly one of --family or --input")
    if args.input is not None:
        for flag in ("n", "m", "parts", "methods"):
            if getattr(args, flag) is not None:
                raise ParameterError(f"--input does not take --{flag}")
        text = read_text(args.input)
        check_token_cap(declared_order(text))   # before a mask per vertex is built
        row = evaluate_graph_row(f"file:{os.path.basename(args.input)}", parse_graph(text),
                                 node_budget=_budget(args))
    else:
        spec = _family_spec(args)
        row = evaluate_row(spec, _parse_methods(args.methods), node_budget=_budget(args))
    return _report([row], args)


def _cmd_sweep(args) -> tuple[str, int]:
    methods = _parse_methods(args.methods)
    rows = run_sweep(_family_kind(args),
                     _parse_range(args.n_range) if args.n_range else None,
                     _parse_range(args.m_range) if args.m_range else None,
                     methods, _budget(args))
    extra = {"config": {"family": args.family, "n_range": args.n_range,
                        "m_range": args.m_range, "methods": list(methods),
                        "budget": args.budget}}
    # rows stream from evaluation into the renderer
    return _report(rows, args, extra)


def _cmd_lemma_check(args) -> tuple[str, int]:
    if args.family not in _LEMMA_H_FAMILIES:
        raise ParameterError(
            f"lemma-check H family must be one of {', '.join(_LEMMA_H_FAMILIES)}")
    h_spec = FamilySpec(args.family, m=args.m)
    report = run_lemma_trials(args.n, h_spec, args.trials, args.seed)
    tally = VerdictTally(report.trials)
    lines = [f"FAIL trial={index} seed={args.seed} start={trial.start_size} "
             f"improved={trial.improved_size} independent={trial.independent} "
             f"seed_pair={{{trial.seed_pair[0]},{trial.seed_pair[1]}}}"
             for index, trial in enumerate(tally) if trial.verdict == "DISAGREE"]
    lines.append(f"lemma-check n={args.n} H={args.family}(m={args.m}) "
                 f"trials={len(report.trials)} ok={tally.counts['AGREE']} "
                 f"min_margin={report.min_margin} mean_margin={report.mean_margin:.3f}")
    return "\n".join(lines) + "\n", tally.exit_code


def _check_order(order: int) -> None:
    """Refuse a graph above ``TOKEN_VERTEX_CAP`` vertices, more than any
    graph the program writes, before a mask per vertex is allocated."""
    if order > TOKEN_VERTEX_CAP:
        raise ParameterError(f"graph of order {order} is above the cap of "
                             f"{TOKEN_VERTEX_CAP} vertices")


def _cmd_export(args) -> tuple[str, int]:
    spec = _family_spec(args)
    if not args.token:
        _check_order(spec.order)
        return render_graph(graphs.generate(spec), comments=[spec.label()]), 0
    return render_token_graph(build_f2(base_graph_for(spec))), 0


def _cmd_import(args) -> tuple[str, int]:
    text = read_text(args.path)
    _check_order(declared_order(text))
    return render_graph(parse_graph(text)), 0


def _add_row_flags(sub):
    sub.add_argument("--methods", default=None,
                     help=f"comma list from {','.join(METHODS)}")
    sub.add_argument("--budget", type=int, default=None,
                     help="solver node budget; exceeding it aborts the row")
    sub.add_argument("--format", choices=("tsv", "json"), default="tsv",
                     help="json also writes each row's witness sets")
    sub.add_argument("--out", default=None, help="write the report to this path")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and kept
    for the process: parsing leaves no state in it, so every later call
    parses as a fresh parser would."""
    parser = argparse.ArgumentParser(
        prog="token-alpha",
        description="Verify closed-form independence numbers of 2-token graphs "
                    "against explicit constructions and an exact solver.")
    subs = parser.add_subparsers(dest="command", required=True)

    alpha = subs.add_parser("alpha", help="evaluate one family instance or graph file")
    alpha.add_argument("--family", default=None)
    alpha.add_argument("--n", type=int, default=None)
    alpha.add_argument("--m", type=int, default=None)
    alpha.add_argument("--parts", default=None, help="path-union part sizes, e.g. 3,2")
    alpha.add_argument("--input", default=None, help="edge-list or DIMACS base graph")
    _add_row_flags(alpha)
    alpha.set_defaults(handler=_cmd_alpha)

    sweep = subs.add_parser("sweep", help="cross-check a parameter grid")
    sweep.add_argument("--family", required=True)
    sweep.add_argument("--n-range", dest="n_range", default=None, metavar="A..B")
    sweep.add_argument("--m-range", dest="m_range", default=None, metavar="A..B",
                       help="for path-union: totals, all compositions of each")
    _add_row_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    lemma = subs.add_parser("lemma-check",
                            help="random independent sets vs the associated-set bound")
    lemma.add_argument("--n", type=int, required=True)
    lemma.add_argument("--family", required=True,
                       help=f"H family: {', '.join(_LEMMA_H_FAMILIES)}")
    lemma.add_argument("--m", type=int, required=True)
    lemma.add_argument("--trials", type=int, default=200)
    lemma.add_argument("--seed", type=int, default=0)
    lemma.add_argument("--out", default=None)
    lemma.set_defaults(handler=_cmd_lemma_check)

    export = subs.add_parser("export", help="write a family graph as an edge list")
    export.add_argument("--family", required=True)
    export.add_argument("--n", type=int, default=None)
    export.add_argument("--m", type=int, default=None)
    export.add_argument("--parts", default=None)
    export.add_argument("--token", action="store_true",
                        help="export the 2-token graph with its pair mapping")
    export.add_argument("--out", default=None)
    export.set_defaults(handler=_cmd_export)

    imp = subs.add_parser("import", help="read an edge-list/DIMACS file, print normalized")
    imp.add_argument("path")
    imp.add_argument("--out", default=None)
    imp.set_defaults(handler=_cmd_import)

    return parser


def main(argv=None) -> int:
    """Run one command; the only writer of a command's output.  A handler
    returns its whole text before anything is written, so a command that
    fails, a sweep part-way included, writes nothing and creates no file."""
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (ParameterError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # a row too big for memory is no verdict: exit 1 would read as a
        # DISAGREE
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
