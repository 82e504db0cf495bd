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

__all__ = ["load_metrics_block", "render_metrics", "split_key"]

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
