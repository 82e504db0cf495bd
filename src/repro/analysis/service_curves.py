"""Service-curve utilities: a flow's service against the ideal rate line.

The paper's Definition 1 compares a flow's real service curve
``S_ps(t - t0)`` against the ideal fluid curve ``S_id(t - t0) = r(t-t0)``
and defines the scheduler delay as the worst horizontal deviation between
them (Fig. 7 of the supplied text). :func:`max_ideal_lag` measures
exactly that from a flow's per-packet finish times (E10 uses it).
"""

from __future__ import annotations

import math
from typing import Sequence

from ..core.errors import ConfigurationError

__all__ = ["max_ideal_lag"]


def _reject_nan(finish_times: Sequence[float]) -> None:
    # NaN compares false against everything, so sorted() would quietly
    # push it to wherever the sort left it and the deviation math below
    # would propagate NaN (or worse, drop it via max()).
    for t in finish_times:
        if math.isnan(t):
            raise ConfigurationError("finish times must not contain NaN")


def max_ideal_lag(
    finish_times: Sequence[float],
    rate_bps: float,
    packet_size: int,
    start_time: float = 0.0,
) -> float:
    """``max_i (t_i - t_i^id)`` with ``t_i^id = start + i*L/r`` — the
    per-packet form of Definition 1 (Eq. 2)."""
    if rate_bps <= 0 or packet_size <= 0:
        raise ConfigurationError("need positive rate and packet size")
    if not finish_times:
        raise ConfigurationError(
            "empty finish-time list: the flow received no service"
        )
    _reject_nan(finish_times)
    per_packet = packet_size * 8.0 / rate_bps
    worst = 0.0
    for i, t in enumerate(sorted(finish_times)):
        ideal = start_time + (i + 1) * per_packet
        worst = max(worst, t - ideal)
    return worst
