"""``python -m repro`` — orientation entry point.

Prints the package version, the available schedulers, and how to run the
experiments and examples. The actual experiment CLI is
``python -m repro.bench``.
"""

import sys

from . import __version__
from .bench.experiments import SPECS
from .schedulers import available_schedulers


def main() -> int:
    print(f"repro {__version__} — reproduction of SRR (Guo, SIGCOMM 2001)")
    print()
    print("schedulers:", " ".join(available_schedulers()))
    print()
    print("experiments (python -m repro.bench <id> "
          "[--scale quick|default|full] [--jobs N] [--seed S] [--json]):")
    for name, spec in SPECS.items():
        print(f"  {name:4s} {spec.title}")
    print()
    print("observability: python -m repro.obs report results/<exp>/*.json")
    print("(metrics in artifacts; --trace PATH on repro.bench for "
          "packet-lifecycle JSONL)")
    print()
    print("performance: python -m repro.perf [--quick] "
          "[--baseline BENCH_runtime.json]")
    print("(event-loop/scheduler/end-to-end benches)")
    print()
    print("examples: see examples/*.py; docs: README.md, DESIGN.md,")
    print("EXPERIMENTS.md, docs/algorithms.md, docs/simulator.md,")
    print("docs/observability.md, docs/performance.md, docs/api.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
