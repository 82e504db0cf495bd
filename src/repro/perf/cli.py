"""CLI for the perf suite: ``python -m repro.perf``.

Default: run every benchmark at committed-baseline scale, print a
throughput table plus the lean-replay speedup, and (with
``--output``) write the pytest-benchmark-compatible JSON document.
``--baseline PATH`` additionally compares against a committed document
and exits non-zero on regressions beyond ``--tolerance``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .benchmarks import all_benchmarks, run_benchmark
from .report import build_document, compare, fastpath_speedup

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Microbenchmarks: event loop, scheduler dequeue, "
                    "end-to-end scenario. See docs/performance.md.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer timing rounds (CI smoke); benchmark names and sizes "
             "are unchanged, so results stay comparable to the "
             "committed baseline",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full benchmark document as JSON on stdout",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the benchmark document to PATH "
             "(e.g. BENCH_runtime.json to refresh the baseline)",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="compare against a committed benchmark document and exit "
             "non-zero on regressions",
    )
    parser.add_argument(
        "--tolerance", type=float, default=1.25, metavar="X",
        help="regression threshold as a slowdown factor vs the baseline "
             "mean (default 1.25; CI uses 2.0 to absorb runner noise)",
    )
    parser.add_argument(
        "--group", action="append", default=None, metavar="NAME",
        choices=("event_loop", "scheduler_dequeue", "end_to_end"),
        help="run only this benchmark group (repeatable); note a "
             "baseline comparison then fails its other groups as missing",
    )
    args = parser.parse_args(argv)

    benches = all_benchmarks()
    if args.group:
        benches = [b for b in benches if b.group in args.group]
    results = []
    for bench in benches:
        if not args.json:
            print(f"  {bench.name} ...", end="", flush=True, file=sys.stderr)
        result = run_benchmark(bench, quick=args.quick)
        if not args.json:
            print(
                f" {result.throughput:,.0f}/s "
                f"(mean {result.mean:.4f}s over {len(result.times)} rounds)",
                file=sys.stderr,
            )
        results.append(result)
    doc = build_document(results)

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))

    for group, ratio in sorted(fastpath_speedup(doc).items()):
        print(
            f"lean replay vs event engine [{group}]: {ratio:.2f}x",
            file=sys.stderr,
        )

    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        failures = compare(doc, baseline, tolerance=args.tolerance)
        if failures:
            print("perf regressions vs baseline:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(
            f"no regressions vs {args.baseline} "
            f"(tolerance {args.tolerance:.2f}x)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
