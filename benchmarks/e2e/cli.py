"""Command line of the benchmark.

``--workload NAME --seed N --seconds S --trace 0|1`` is one run, the form
BENCHMARK.json registers: it prints every metric by name and, as its last
line, one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  Without ``--workload`` the command runs every workload,
untraced then traced, each in its own child process, one at a time.
``--check-determinism`` and ``--repeat-check`` are the two self-checks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any

from .harness import BenchmarkFailure, measure_end_to_end
from .layers import measure_layers
from .workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
DEFAULT_TRACE_DIR = os.path.join(HERE, "out")

Metrics = dict[str, tuple[float, str]]


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rounds", type=int, default=None,
        help="run exactly this many measured rounds instead of a timed window",
    )
    parser.add_argument("--trace-out", default=None, help="span file (JSON lines)")
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    return parser.parse_args(argv)


def registered() -> dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


# -- one run ----------------------------------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    workload_cls = WORKLOADS[args.workload]
    seconds = args.seconds if args.seconds is not None else registered()["run_seconds"]
    try:
        if args.trace:
            trace_out = args.trace_out
            if trace_out is None:
                os.makedirs(DEFAULT_TRACE_DIR, exist_ok=True)
                # One file per workload, overwritten: a span file is tens of MB.
                trace_out = os.path.join(DEFAULT_TRACE_DIR, f"{args.workload}.jsonl")
            metrics, report = measure_layers(
                workload_cls, args.seed, seconds, args.rounds, trace_out
            )
        else:
            metrics, report = measure_end_to_end(workload_cls, args.seed, seconds, args.rounds)
    except BenchmarkFailure as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 2
    failures = report.pop("failures")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for key, value in report.items():
        print(f"# {key}: {value}")
    for text in failures[:10]:
        print(f"# WRONG OUTCOME: {text}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": report["attempted"],
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if failures else 0


# -- many runs, each a child process ---------------------------------------------------------


def child(workload: str, seed: int, trace: int, extra: list[str]) -> dict[str, Any]:
    """Run one workload in its own process; returns its final JSON object
    with the ``# key: value`` report lines under ``"report"``."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace), *extra,
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} (trace={trace}) exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = dict(
        line[2:].split(": ", 1) for line in lines if line.startswith("# ") and ": " in line
    )
    return result


def run_set(seed: int, extra: list[str], traces: tuple[int, ...] = (0, 1)) -> dict:
    """Every workload, one process at a time: ``{(workload, trace): result}``."""
    out = {}
    for workload in WORKLOADS:
        for trace in traces:
            out[workload, trace] = child(workload, seed, trace, extra)
            print(f"## {workload} trace={trace} schedule={out[workload, trace]['report']['schedule_sha256'][:16]}")
            for name, metric in out[workload, trace]["metrics"].items():
                print(f"{workload:<15} {name:<36} {metric['value']:>16.6f} {metric['unit']}")
    return out


def window(args: argparse.Namespace) -> list[str]:
    extra = []
    if args.seconds is not None:
        extra += ["--seconds", str(args.seconds)]
    if args.rounds is not None:
        extra += ["--rounds", str(args.rounds)]
    return extra


def repeats_exactly(name: str, unit: str) -> bool:
    """Is this metric a function of the seed alone (no wall clock in it)?"""
    if name in ("trace.overhead_frac", "trace.closure_frac"):
        return False
    virtual = name.startswith("virt_") or ".virt_" in name
    return virtual or unit in ("count", "ratio", "fraction")


def check_determinism(args: argparse.Namespace) -> int:
    """Same seed twice at a tenth of the size: every virtual-clock metric,
    the storage ratio and every count must repeat exactly; another seed
    must give another schedule."""
    problems = []
    for workload, cls in WORKLOADS.items():
        extra = ["--rounds", str(max(1, cls.virt_rounds // 10 + 1))]
        for trace in (0, 1):
            first = child(workload, args.seed, trace, extra)
            second = child(workload, args.seed, trace, extra)
            other = child(workload, args.seed + 1, trace, extra)
            for name, metric in first["metrics"].items():
                exact = repeats_exactly(name, metric["unit"])
                if exact and metric["value"] != second["metrics"][name]["value"]:
                    problems.append(
                        f"{workload} {name}: {metric['value']!r} != "
                        f"{second['metrics'][name]['value']!r}"
                    )
            if first["report"]["schedule_sha256"] != second["report"]["schedule_sha256"]:
                problems.append(f"{workload}: schedule differs for one seed")
            if first["report"]["schedule_sha256"] == other["report"]["schedule_sha256"]:
                problems.append(f"{workload}: schedule does not depend on the seed")
            print(f"{workload} trace={trace}: compared {len(first['metrics'])} metrics")
    for problem in problems:
        print(f"NOT DETERMINISTIC: {problem}")
    return 1 if problems else 0


def repeat_check(args: argparse.Namespace) -> int:
    """Two full untraced sets; every end-to-end pair must agree within the
    metric's registered bound (virtual metrics must agree exactly)."""
    bounds = {m["name"]: m for m in registered()["end_to_end"]}
    first = run_set(args.seed, window(args), traces=(0,))
    second = run_set(args.seed, window(args), traces=(0,))
    problems = []
    for key, result in first.items():
        for name, metric in result["metrics"].items():
            a, b = metric["value"], second[key]["metrics"][name]["value"]
            worse = (b - a) / a if bounds[name]["better"] == "lower" else (a - b) / a
            exact = repeats_exactly(name, metric["unit"])
            print(f"{key[0]:<15} {name:<28} {a:>14.6f} {b:>14.6f} {abs(worse):>8.2%}")
            if abs(worse) > bounds[name]["bound"] or (exact and a != b):
                problems.append(f"{key[0]} {name}: {a!r} vs {b!r}")
    for problem in problems:
        print(f"OUTSIDE BOUND: {problem}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.check_determinism:
        return check_determinism(args)
    if args.repeat_check:
        return repeat_check(args)
    if args.workload is None:
        run_set(args.seed, window(args))
        return 0
    return run_one(args)
