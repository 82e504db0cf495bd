"""repro.obs — the unified observability layer.

Three complementary views of a run, all deterministic and all cheap (or
free) when disabled:

* :mod:`repro.obs.metrics` — a registry of counters, gauges and
  fixed-bucket histograms with labeled families. The serialized registry
  is the ``obs.metrics`` block of every ``results/`` artifact, and
  merges bit-identically across sweep processes.
* :mod:`repro.obs.trace` — a bounded ring buffer of typed
  packet-lifecycle events (``enqueue``/``dequeue``/``transmit``/
  ``drop``/``sched_decision``) emitted by output ports, exported as
  JSONL via the bench CLI's ``--trace`` flag.
* :mod:`repro.obs.profile` — per-dequeue op-count and WSS-scan-length
  distributions, the empirical evidence behind the paper's O(1) claim
  (experiment E5's p50/p99/max columns).

``python -m repro.obs report results/<exp>/<run>.json`` renders the
metrics block of any artifact. See docs/observability.md.
"""

from .metrics import (
    DELAY_BUCKETS_S,
    NULL_REGISTRY,
    OPS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    log2_buckets,
    log10_buckets,
    metric_key,
    set_registry,
)
from .profile import DequeueProfiler, percentile
from .report import load_metrics_block, render_metrics, split_key
from .trace import EVENT_KINDS, Tracer, get_tracer, set_tracer

__all__ = [
    "Counter",
    "DELAY_BUCKETS_S",
    "DequeueProfiler",
    "EVENT_KINDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "OPS_BUCKETS",
    "Tracer",
    "get_registry",
    "get_tracer",
    "load_metrics_block",
    "log10_buckets",
    "log2_buckets",
    "metric_key",
    "percentile",
    "render_metrics",
    "set_registry",
    "set_tracer",
    "split_key",
]
