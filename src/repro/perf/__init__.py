"""Performance measurement: microbenchmarks + regression gate.

``python -m repro.perf`` times three layers — the raw event loop,
per-scheduler dequeue cost, and an end-to-end E5-scale scenario — and
writes a pytest-benchmark-compatible JSON document. The committed
``BENCH_runtime.json`` is the baseline every perf-affecting change is
judged against (see ``docs/performance.md``).
"""

from .benchmarks import Benchmark, BenchResult, all_benchmarks, run_benchmark
from .report import build_document, compare, fastpath_speedup

__all__ = [
    "Benchmark",
    "BenchResult",
    "all_benchmarks",
    "build_document",
    "compare",
    "fastpath_speedup",
    "run_benchmark",
]
