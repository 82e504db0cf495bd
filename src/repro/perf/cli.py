"""CLI for the perf suite: ``python -m repro.perf``.

Default: run every benchmark at committed-baseline scale, print a
throughput table plus the calendar-vs-heap speedups, and (with
``--output``) write the pytest-benchmark-compatible JSON document.
``--baseline PATH`` additionally compares against a committed document
and exits non-zero on regressions beyond ``--tolerance``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .benchmarks import all_benchmarks, measure_obs_overhead, run_benchmark
from .report import (
    build_document,
    compare,
    fastpath_speedup,
    speedup_summary,
)

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
    parser.add_argument(
        "--obs-overhead", action="store_true",
        help="instead of the benchmark suite, measure the armed "
             "flight-recorder overhead (1/64 sampling, interleaved "
             "off/armed rounds) on the event loop and the e2e fastpath "
             "replay, and fail above --obs-tolerance",
    )
    parser.add_argument(
        "--obs-tolerance", type=float, default=3.0, metavar="PCT",
        help="maximum armed-recorder overhead accepted by "
             "--obs-overhead, in percent (default 3.0)",
    )
    args = parser.parse_args(argv)

    if args.obs_overhead:
        rows = measure_obs_overhead(
            quick=args.quick, tolerance=args.obs_tolerance
        )
        failures = []
        for row in rows:
            verdict = "ok"
            if row["overhead_pct"] > args.obs_tolerance:
                verdict = f"FAIL (> {args.obs_tolerance:.1f}%)"
                failures.append(row["name"])
            print(
                f"  {row['name']}: off {row['off_s']:.4f}s, armed "
                f"{row['armed_s']:.4f}s (1/{1 << row['sample_shift']} "
                f"sampling) -> {row['overhead_pct']:+.2f}% {verdict}",
                file=sys.stderr,
            )
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
        if failures:
            print(
                f"obs overhead gate FAILED: {', '.join(failures)}",
                file=sys.stderr,
            )
            return 1
        print(
            f"obs overhead within {args.obs_tolerance:.1f}% on "
            f"{len(rows)} benchmark(s)",
            file=sys.stderr,
        )
        return 0

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

    speedups = speedup_summary(doc)
    for group, ratio in sorted(speedups.items()):
        print(f"calendar vs heap [{group}]: {ratio:.2f}x", file=sys.stderr)
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
