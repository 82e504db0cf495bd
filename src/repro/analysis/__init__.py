"""Analysis: delay statistics, fairness indices, analytic bounds, curves.

Pure functions over traces and series; no simulator state. The benchmark
harness composes these into the per-experiment tables of EXPERIMENTS.md.
"""

from .bounds import (
    drr_delay_bound,
    end_to_end_bound,
    g3_delay_bound,
    nonzero_bits,
    rrr_delay_bound,
    srr_delay_bound,
    theta,
    wfq_delay_bound,
)
from .fairness import (
    GapStats,
    gap_statistics,
    jain_index,
    worst_case_lag,
)
from .metrics import DelayStats, jitter, percentile, summarize_delays
from .netcalc import (
    NETCALC_DISCIPLINES,
    RateLatency,
    TokenBucket,
    backlog_bound,
    convolve,
    deconvolve,
    delay_bound,
    drr_service_curve,
    iwrr_service_curve,
    service_curve,
    srr_service_curve,
    wrr_service_curve,
)
from .stats import (
    ReplicationSummary,
    summarize_replications,
    t_critical,
)
from .service_curves import max_ideal_lag
from .tables import format_table, print_table, records_table, rows_from_records

__all__ = [
    "DelayStats",
    "GapStats",
    "NETCALC_DISCIPLINES",
    "RateLatency",
    "TokenBucket",
    "backlog_bound",
    "convolve",
    "deconvolve",
    "delay_bound",
    "drr_delay_bound",
    "drr_service_curve",
    "end_to_end_bound",
    "format_table",
    "g3_delay_bound",
    "gap_statistics",
    "iwrr_service_curve",
    "jain_index",
    "jitter",
    "max_ideal_lag",
    "nonzero_bits",
    "percentile",
    "print_table",
    "records_table",
    "rows_from_records",
    "ReplicationSummary",
    "service_curve",
    "srr_service_curve",
    "summarize_replications",
    "t_critical",
    "rrr_delay_bound",
    "srr_delay_bound",
    "summarize_delays",
    "theta",
    "wfq_delay_bound",
    "worst_case_lag",
    "wrr_service_curve",
]
