"""Fairness indices: Jain, worst-case lag, smoothness.

These operate on *service traces* — ordered ``(time, flow_id, size)``
transmissions at one port (see
:class:`~repro.net.monitors.ServiceTrace`) — or on plain service-order
sequences, and implement the measures the scheduling literature (and the
paper's fairness discussion) uses:

* **Jain's index** over weight-normalised throughputs: 1.0 = perfectly
  proportional shares.
* **Worst-case normalised lag** against the fluid reference: for each
  flow, ``max_t (w_i/W * S(0,t) - S_i(0,t))`` — how far the scheduler
  lets a flow fall behind its entitled share.
* **Smoothness statistics** of inter-service distances — the property SRR
  is named for (experiment E2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Sequence, Tuple

from ..core.errors import ConfigurationError

__all__ = [
    "jain_index",
    "worst_case_lag",
    "gap_statistics",
    "GapStats",
]

TraceEntry = Tuple[float, Hashable, int]


def jain_index(shares: Sequence[float]) -> float:
    """Jain's fairness index of (already weight-normalised) allocations.

    ``(Σx)² / (n·Σx²)``; 1.0 means perfectly equal normalised shares,
    ``1/n`` means one flow took everything.
    """
    xs = [float(x) for x in shares]
    if not xs:
        raise ConfigurationError("jain_index of empty allocation")
    if any(x < 0 for x in xs):
        raise ConfigurationError("allocations must be non-negative")
    total = sum(xs)
    squares = sum(x * x for x in xs)
    if squares == 0:
        return 1.0  # all-zero: vacuously fair
    return total * total / (len(xs) * squares)


def worst_case_lag(
    trace: Sequence[TraceEntry],
    weights: Dict[Hashable, float],
) -> Dict[Hashable, float]:
    """Per-flow worst normalised service lag vs. the fluid share.

    At each transmission completion, the fluid reference has served flow
    ``i`` exactly ``w_i / W`` of the total bytes; the lag is how far the
    actual cumulative service is behind that. Flows are assumed
    continuously backlogged.
    """
    total_weight = sum(weights.values())
    if total_weight <= 0:
        raise ConfigurationError("total weight must be positive")
    served = {f: 0.0 for f in weights}
    total = 0.0
    lag = {f: 0.0 for f in weights}
    for _t, fid, size in trace:
        total += size
        if fid in served:
            served[fid] += size
        for f in weights:
            entitled = weights[f] / total_weight * total
            lag[f] = max(lag[f], entitled - served[f])
    return lag


@dataclass(frozen=True)
class GapStats:
    """Inter-service distance statistics for one flow in a slot sequence."""

    flow_id: Hashable
    services: int
    min_gap: int
    max_gap: int
    mean_gap: float
    #: Coefficient of variation of the gaps; 0 = perfectly periodic
    #: (the "smoothness" scalar of experiment E2).
    cv: float


def gap_statistics(
    sequence: Sequence[Hashable], flow_id: Hashable
) -> GapStats:
    """Distances between consecutive services of ``flow_id`` in a service
    order (E2's smoothness measure; compare SRR vs WRR vs DRR)."""
    positions = [i for i, f in enumerate(sequence) if f == flow_id]
    if len(positions) < 2:
        raise ConfigurationError(
            f"flow {flow_id!r} served fewer than twice in the sequence"
        )
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    mean = sum(gaps) / len(gaps)
    var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    return GapStats(
        flow_id=flow_id,
        services=len(positions),
        min_gap=min(gaps),
        max_gap=max(gaps),
        mean_gap=mean,
        cv=(var ** 0.5) / mean if mean else 0.0,
    )
