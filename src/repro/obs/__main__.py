"""``python -m repro.obs`` — observability CLI over run artifacts."""

import argparse
import sys
from typing import List

from .report import load_metrics_block, render_metrics


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect the observability data of results/ artifacts.",
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
    args = parser.parse_args(argv)

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
