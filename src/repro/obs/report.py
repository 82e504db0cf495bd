"""Render the metrics block of a ``results/`` artifact as tables.

``python -m repro.obs report results/e5/<run>.json`` summarises the
serialized registry a harness run embedded in its artifact: scalar
metrics (counters/gauges) in one table, histogram families in another
with count/mean/p50/p90/p99/max columns. This is how the O(1) evidence
is read off an e5 artifact — the ``dequeue_ops`` rows for SRR stay flat
across N while the timestamp schedulers' grow.

Percentiles here are bucket upper bounds (see
:class:`~repro.obs.metrics.Histogram.quantile`); the max column is
exact.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..analysis.tables import format_table
from .metrics import Histogram

__all__ = [
    "load_metrics_block",
    "load_flight_block",
    "render_flight",
    "render_metrics",
    "split_key",
]

_KEY_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")


def split_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a canonical metric key back into (family, labels)."""
    match = _KEY_RE.match(key)
    if match is None:
        return key, {}
    labels: Dict[str, str] = {}
    raw = match.group("labels")
    if raw:
        for part in raw.split(","):
            k, _, v = part.partition("=")
            labels[k] = v
    return match.group("name"), labels


def load_metrics_block(path: str) -> Dict[str, Any]:
    """The serialized registry out of one artifact (or raise KeyError)."""
    with open(path) as fh:
        data = json.load(fh)
    obs = data.get("obs") or {}
    metrics = obs.get("metrics")
    if not metrics:
        raise KeyError(
            f"{path}: no observability metrics block (run with metrics "
            "enabled, e.g. python -m repro.bench e5 ...)"
        )
    return metrics


def load_flight_block(path: str) -> Optional[Dict[str, Any]]:
    """The ``obs["flight"]`` block of one artifact, or ``None``.

    Unlike :func:`load_metrics_block` this is optional by design: the
    flight recorder only arms on request (``--flight`` /
    ``REPRO_FLIGHT``), so most artifacts legitimately have no block.
    """
    with open(path) as fh:
        data = json.load(fh)
    obs = data.get("obs") or {}
    return obs.get("flight")


def render_flight(flight: Mapping[str, Any]) -> str:
    """One summary table for a serialized flight-recorder block.

    The counters line shows sampling coverage (operations seen vs
    records kept vs overwritten by ring wraparound); when the block
    carries a record window, per-kind ops/terms percentiles follow —
    at ``sample_shift=0`` those are exact per-operation costs.
    """
    rate = flight.get("sample_rate")
    if rate is None and "sample_shift" in flight:
        rate = 1 << flight["sample_shift"]
    rows = [
        ["sample rate", f"1/{rate}" if rate else "?"],
        ["ops seen", flight.get("ops_seen", 0)],
        ["records", flight.get("recorded", 0)],
        ["dropped (ring wrap)", flight.get("dropped", 0)],
    ]
    # A per-process snapshot carries its ring capacity; a sweep-merged
    # block carries the number of points it aggregates instead.
    if "capacity" in flight:
        rows.append(["capacity", flight["capacity"]])
    if "points" in flight:
        rows.append(["sweep points", flight["points"]])
    sections = [format_table(
        ["field", "value"], rows, title="Flight recorder",
    )]
    window = flight.get("window") or []
    if window:
        from .profile import percentile

        kind_rows: List[List[Any]] = []
        for kind in ("push", "pull"):
            records = [r for r in window if r.get("kind") == kind]
            if not records:
                continue
            ops = sorted(r.get("ops", 0) for r in records)
            terms = sorted(r.get("terms", 0) for r in records)
            kind_rows.append([
                kind, len(records),
                percentile(ops, 0.50), percentile(ops, 0.99), ops[-1],
                percentile(terms, 0.50), percentile(terms, 0.99),
                terms[-1],
            ])
        if kind_rows:
            sections.append(format_table(
                ["kind", "records", "ops p50", "ops p99", "ops max",
                 "terms p50", "terms p99", "terms max"],
                kind_rows,
                title="Sampled records (per-dequeue ops / WSS terms)",
                precision=1,
            ))
    return "\n\n".join(sections)


def render_metrics(
    metrics: Mapping[str, Any], family: Optional[str] = None
) -> str:
    """Tables for one serialized registry; ``family`` filters by name."""
    scalar_rows: List[List[Any]] = []
    hist_rows: List[List[Any]] = []
    for key in sorted(metrics):
        name, labels = split_key(key)
        if family is not None and name != family:
            continue
        data = metrics[key]
        label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        if data["type"] == "histogram":
            hist = Histogram(data["bounds"])
            hist.merge(data)
            hist_rows.append([
                name, label_text, hist.count, hist.mean,
                hist.quantile(0.50), hist.quantile(0.90),
                hist.quantile(0.99), hist.maximum or 0,
            ])
        else:
            scalar_rows.append([name, label_text, data["type"],
                                data["value"]])
    sections = []
    if scalar_rows:
        sections.append(format_table(
            ["metric", "labels", "type", "value"], scalar_rows,
            title="Counters and gauges", precision=3,
        ))
    if hist_rows:
        sections.append(format_table(
            ["histogram", "labels", "count", "mean", "p50", "p90", "p99",
             "max"],
            hist_rows,
            title="Histograms (p* are bucket upper bounds; max is exact)",
            precision=2,
        ))
    if not sections:
        return "(no matching metrics)"
    return "\n\n".join(sections)
