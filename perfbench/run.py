#!/usr/bin/env python3
"""perfbench: the packet-path benchmark of the SRR reproduction.

Run from the repository root::

    python3 perfbench/run.py [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
    python3 perfbench/run.py --calibrate N [--seed S] [--seconds N]

One measured run is invoked as ``--workload W --seed S --seconds N
--trace 0|1``, with N the ``run_seconds`` of ``BENCHMARK.json``.

With ``--workload`` one workload is measured in this process. Without it
every workload in ``BENCHMARK.json`` runs, each in its own fresh
interpreter, one after another. ``--trace`` reports the per-layer
metrics instead of the end-to-end ones. ``--calibrate N`` runs N rounds
of all workloads, rotating which goes first, on seeds S..S+N-1, and
prints each end-to-end metric's median and interquartile range.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
1 when any op failed or a check did not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
RESULTS_DIR = os.path.join(HERE, "results")
#: A child run measures for about run_seconds; this only stops a hang.
CHILD_TIMEOUT_S = 900


def _load_benchmark() -> Dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _require_sources() -> None:
    """Exit with status 2 unless this checkout's ``src/repro`` exists, so
    a bare copy of the benchmark never reports a result."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no sources at {SRC}; run from the root of a checkout of "
              "the repository")


def _import_measure():
    """Import the measuring code against this checkout's ``src``, never
    against a ``repro`` installed elsewhere."""
    _require_sources()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    where = os.path.realpath(os.path.dirname(repro.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        _fail(f"repro was imported from {where}, not {SRC}")
    import measure

    return measure


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: Dict[str, Dict]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _run_one(args, bench: Dict) -> int:
    measure = _import_measure()
    spans_path = None
    if args.trace:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        spans_path = os.path.join(
            RESULTS_DIR, f"spans-{args.workload}-s{args.seed}.jsonl")
    result = measure.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), spans_path=spans_path)
    listed = bench["per_layer" if args.trace else "end_to_end"]
    kind = "per-layer" if args.trace else "end-to-end"
    print(f"perfbench {args.workload} seed {args.seed} ({kind})")
    for note in result.notes:
        print(f"  {note}")
    for problem in result.problems:
        print(f"  PROBLEM: {problem}")
    metrics = {}
    for m in listed:
        value = result.metrics[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<34} {value!r:>22} {m['unit']}")
    print(f"  {'ops':<34} {result.ops!r:>22} count")
    print(f"  {'ops_failed':<34} {result.failed!r:>22} count")
    print(_result_line(result.correct, result.ops, result.failed, metrics))
    return 0 if result.correct else 1


def _child(workload: str, seed: int, seconds: float,
           trace: int) -> Optional[Dict]:
    """Run one workload in a fresh interpreter; echo its output and
    return its result object (None when it printed none)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode not in (0, 1) or not isinstance(result, dict):
        return None
    return result


def _run_all(args, bench: Dict) -> int:
    names = [w["name"] for w in bench["workloads"]]
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Dict] = {}
    for name in names:
        result = _child(name, args.seed, args.seconds, args.trace)
        if result is None:
            print(f"perfbench: {name} printed no result")
            correct = False
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def _calibrate(args, bench: Dict) -> int:
    names = [w["name"] for w in bench["workloads"]]
    samples: Dict[str, Dict[str, List[float]]] = {n: {} for n in names}
    correct, attempted, failed = True, 0, 0
    for i in range(args.calibrate):
        shift = i % len(names)
        for name in names[shift:] + names[:shift]:
            result = _child(name, args.seed + i, args.seconds, 0)
            if result is None:
                correct = False
                continue
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                samples[name].setdefault(metric, []).append(entry["value"])
    print(f"calibration: {args.calibrate} rounds, seeds {args.seed}.."
          f"{args.seed + args.calibrate - 1}")
    print(f"  {'workload':<16} {'metric':<14} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'iqr%':>7}")
    summary: Dict[str, Dict] = {}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name in names:
        for metric, values in samples[name].items():
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (median, median, median))
            spread = 100.0 * (q3 - q1) / median
            print(f"  {name:<16} {metric:<14} {median:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {spread:>7.2f}")
            summary[f"{name}.{metric}.median"] = {"value": median,
                                                  "unit": units[metric]}
            summary[f"{name}.{metric}.iqr_pct"] = {"value": spread,
                                                   "unit": "%"}
    print(_result_line(correct and failed == 0, attempted, failed, summary))
    return 0 if correct and failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    bench = _load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Packet-path benchmark: end-to-end metrics, or "
                    "per-layer metrics with --trace.")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]),
                        help="host seconds of timed repeats per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="N interleaved rounds of every workload")
    args = parser.parse_args(argv)
    _require_sources()
    if args.calibrate is not None:
        if args.calibrate < 1 or args.workload or args.trace:
            parser.error("--calibrate takes N >= 1 and runs every "
                         "workload untraced")
        return _calibrate(args, bench)
    if args.workload is None:
        return _run_all(args, bench)
    return _run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
