"""Benchmark of the CNT-interconnect platform, end to end and per layer.

Run one workload (each prints a metric table, an environment record and,
as its last stdout line, the JSON result)::

    python3 perfbench/run.py --workload paper_defaults --seed 1 --seconds 10 --trace 0

Run every workload, each in its own process, and print all metrics::

    python3 perfbench/run.py --seed 1

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` the per-layer ones, from a run that measures the same work
untraced and then traced, and writes its spans as JSONL to
``.perfbench_out/<workload>-<seed>.spans.jsonl`` (readable by
``python -m repro trace summary FILE``).  The exit code is 0 only when
every output check passed; 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_defaults", "sweep_store", "service_roundtrip")


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` (and nowhere else)."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    os.environ["PYTHONPATH"] = src + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
    )
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program under test from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"error: repro imported from {repro.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spans_path: str | None):
    from perfbench import paper_defaults, service_roundtrip, sweep_store

    module = {
        "paper_defaults": paper_defaults,
        "sweep_store": sweep_store,
        "service_roundtrip": service_roundtrip,
    }[name]
    return module.run(seed, seconds, trace, spans_path=spans_path)


def result_line(outcome, trace: bool) -> dict:
    """The final JSON object: exactly the metrics ``BENCHMARK.json`` names."""
    from perfbench import common

    section = "per_layer" if trace else "end_to_end"
    measured = outcome.per_layer if trace else outcome.end_to_end
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in common.metric_units(section).items()
    }
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main_one(args: argparse.Namespace) -> int:
    load_start = os.getloadavg()
    _import_program()
    from perfbench import common
    from perfbench.layers import render

    spans_path = None
    if args.trace:
        spans_path = os.path.join(common.OUT_DIR, f"{args.workload}-{args.seed}.spans.jsonl")
    started = time.perf_counter()
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spans_path)
    line = result_line(outcome, bool(args.trace))
    units = {name: entry["unit"] for name, entry in line["metrics"].items()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{time.perf_counter() - started:.1f} s")
    print(render({name: entry["value"] for name, entry in line["metrics"].items()}, units))
    for error in outcome.errors[:20]:
        print(f"  FAILED {error}")
    if spans_path is not None:
        print(f"spans: {spans_path}")
    print("env " + json.dumps(common.environment(load_start), sort_keys=True))
    print(json.dumps(line, separators=(",", ":")), flush=True)
    return 0 if line["correct"] else 1


def main_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; their tables in one listing."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if completed.returncode in (0, 1) else completed.stderr)
        status = max(status, completed.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long a run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.workload is None:
        return main_all(args)
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
