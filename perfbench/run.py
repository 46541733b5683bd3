"""Benchmark entry point for token-alpha.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from the
checkout's own src/ (pure Python, nothing to build).  Each repetition of
the workload's command list runs in a fresh interpreter with
TOKEN_ALPHA_THREADS=1 and PYTHONHASHSEED=0, so set-up time and peak
memory are measured per repetition.  Repetitions go on for S seconds and
every metric is their median.  With --trace 1, untraced and traced
repetitions alternate and the per-layer metrics come from the traced
ones.  The last line of stdout is one JSON object; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", TOKEN_ALPHA_THREADS="1")
    return env


def run_repetition(args, env, trace: bool, spans: str | None,
                   deadline: float) -> tuple[float, dict]:
    """Start one worker; returns its set-up seconds (start until
    token_alpha.cli is imported) and its JSON report."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(int(trace))]
    if spans:
        argv += ["--spans", spans]
    start = perf_counter()
    with subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if ready != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return setup, json.loads(out.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "token_alpha" / "cli.py").is_file():
        print(f"error: no token_alpha sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = perf_counter()
    deadline = began + TIME_LIMIT_S
    env = pinned_env()
    # Writes the bytecode cache, which an installed package already has.
    subprocess.run([sys.executable, "-c", "import token_alpha.cli"],
                   env=env, cwd=ROOT, check=True, timeout=60)
    spans_file = f".perfbench/trace-{args.workload}-{args.seed}.json"
    plain, traced = [], []
    while True:
        trace = bool(args.trace) and len(plain) > len(traced)
        spans = spans_file if trace and not traced else None
        rep_start = perf_counter()
        try:
            setup, report = run_repetition(args, env, trace, spans, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report["setup_s"] = setup
        report["rep_s"] = perf_counter() - rep_start
        (traced if trace else plain).append(report)
        reps = plain + traced
        spent = perf_counter() - began
        if (not args.trace or traced) and \
                spent + statistics.mean(r["rep_s"] for r in reps) > args.seconds:
            break

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for report in reps:
        for problem in report["problems"]:
            print(f"gate: {problem}", file=sys.stderr)
    walls = [r["wall_s"] for r in plain]
    print(f"repetitions={len(plain)} walls_s=" + ",".join(f"{w:.3f}" for w in walls),
          file=sys.stderr)
    if args.trace:
        values = traced_values(plain, traced)
        print(f"spans written to {spans_file}", file=sys.stderr)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "completed_share": (attempted - sum(r["aborted"] for r in reps)) / attempted,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": declared_metrics(
                          "per_layer" if args.trace else "end_to_end", values)}))
    return 0 if failed == 0 else 1


def percentile_ms(values_ns: list[int], q: int) -> float:
    """The q-th percentile in ms (0 without samples, the value with one)."""
    if len(values_ns) < 2:
        return values_ns[0] / 1e6 if values_ns else 0.0
    return statistics.quantiles(values_ns, n=100)[q - 1] / 1e6


def traced_values(plain, traced) -> dict[str, float]:
    """Per-layer medians over the traced repetitions, and the tracing overhead
    as the traced minus the untraced median wall time."""
    layers = [r["layers"] for r in traced]
    values = {name: statistics.median(rep[name] for rep in layers) for name in layers[0]}
    row_ns = [ns for r in traced for ns in r["row_ns"]]
    values["harness.evaluate_row.p50_ms"] = percentile_ms(row_ns, 50)
    values["harness.evaluate_row.p99_ms"] = percentile_ms(row_ns, 99)
    values["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in plain)
    values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.self_sum_s"] = statistics.median(r["self_sum_s"] for r in traced)
    return values


def declared_metrics(section: str, values: dict[str, float]) -> dict[str, dict]:
    """The metrics BENCHMARK.json declares in section, with its units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


if __name__ == "__main__":
    sys.exit(main())
