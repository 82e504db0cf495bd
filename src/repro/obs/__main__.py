"""``python -m repro.obs`` — observability CLI (artifacts + live runs)."""

import argparse
import sys
from typing import List

from .report import load_metrics_block, render_metrics
from .top import DEFAULT_STALL_AFTER_S
from .top import main as top_main


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect the observability data of results/ artifacts "
                    "and watch running sweeps live.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="summarise the metrics blocks of run artifacts"
    )
    report.add_argument(
        "artifacts", nargs="+",
        help="results/<exp>/<timestamp>-<seed>.json artifact path(s)",
    )
    report.add_argument(
        "--family", default=None,
        help="only show one metric family (e.g. dequeue_ops)",
    )
    top = sub.add_parser(
        "top", help="live dashboard over the telemetry files of a results "
                    "dir (throughput, progress/ETA, stall detection)"
    )
    top.add_argument(
        "target",
        help="a results dir (scanned recursively) or one telemetry .jsonl",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single snapshot and exit (CI / scripting mode)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="refresh period in seconds (default 2)",
    )
    top.add_argument(
        "--stall-after", type=float, default=DEFAULT_STALL_AFTER_S,
        metavar="S",
        help="flag a source STALLED after this many frameless seconds "
             f"(default {DEFAULT_STALL_AFTER_S:g})",
    )
    args = parser.parse_args(argv)

    if args.command == "top":
        return top_main(
            args.target, once=args.once, interval_s=args.interval,
            stall_after=args.stall_after,
        )

    status = 0
    for path in args.artifacts:
        print(f"== {path}")
        try:
            metrics = load_metrics_block(path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        print(render_metrics(metrics, family=args.family))
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
