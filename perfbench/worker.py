"""One repetition of a workload, in a fresh interpreter started by run.py.

Prints "ready" once token_alpha.cli is imported, so that run.py can time
set-up, then runs the workload's command list once through
``token_alpha.cli.main`` in process, checks every output with the gate and
prints one JSON object.  With --trace 1 the program's layers are wrapped
by tracing.Tracer for the whole command list.
"""

from __future__ import annotations

import sys

import token_alpha.cli as cli  # PYTHONPATH is set by run.py

print("ready", flush=True)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
MAX_PROBLEMS = 20


def run_once(commands) -> tuple[float, list[tuple[int, str]]]:
    outputs = []
    start = perf_counter()
    for cmd in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(cmd.argv))
        outputs.append((code, buf.getvalue()))
    return perf_counter() - start, outputs


def write_spans(path: Path, spans) -> None:
    origin = spans[0][2] if spans else 0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["parent", "name", "start_ns", "end_ns"],
                   "spans": [[p, n, s - origin, e - origin] for p, n, s, e in spans]}, fh)


def print_layers(summary: dict) -> None:
    print(f"{'layer':45} {'calls':>8} {'ms':>10} {'self_ms':>10}", file=sys.stderr)
    for name, entry in sorted(summary.items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"{name:45} {entry['calls']:8d} {entry['ns'] / 1e6:10.1f} "
              f"{entry['self_ns'] / 1e6:10.1f}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the spans and a layer table")
    args = parser.parse_args()

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"token_alpha was imported from {cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    commands = workloads.build(args.workload, args.seed, WORK_DIR)

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    try:
        wall, outputs = run_once(commands)
    finally:
        tracer.uninstall()

    report = {"wall_s": wall, "attempted": 0, "aborted": 0, "failed": 0, "problems": []}
    for cmd, (code, text) in zip(commands, outputs):
        result = gate.check(cmd, code, text)
        report["attempted"] += result.attempted
        report["aborted"] += result.aborted
        report["failed"] += len(result.problems)
        report["problems"] += result.problems[:MAX_PROBLEMS - len(report["problems"])]
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        summary = tracer.summary()
        report["layers"] = tracing.rep_metrics(summary)
        report["row_ns"] = summary.get("harness.evaluate_row", {}).get("each_ns", [])
        report["self_sum_s"] = sum(entry["self_ns"] for entry in summary.values()) / 1e9
        if args.spans:
            write_spans(ROOT / args.spans, tracer.spans)
            print_layers(summary)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
