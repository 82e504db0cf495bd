"""Measurement probe: the per-port service trace.

The fairness indices of :mod:`repro.analysis.fairness` are defined over a
*service trace* — the timestamped sequence of (flow, bytes) transmissions
at one output port. :class:`ServiceTrace` hooks a port's transmit-complete
callback and accumulates exactly that.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Hashable, List, Tuple

from ..core.packet import Packet
from .port import OutputPort

__all__ = ["ServiceTrace"]


class ServiceTrace:
    """Per-port transmission log: ``(completion_time, flow_id, size)``."""

    def __init__(self, port: OutputPort) -> None:
        self.port = port
        self.entries: List[Tuple[float, Hashable, int]] = []
        # Completion timestamps, maintained incrementally alongside
        # ``entries`` (transmit hooks fire in nondecreasing simulation
        # time, so the list is always sorted). Window queries bisect this
        # instead of rebuilding it per call.
        self._times: List[float] = []
        port.on_transmit.append(self._record)

    def _record(self, now: float, packet: Packet) -> None:
        self.entries.append((now, packet.flow_id, packet.size))
        self._times.append(now)

    def flows(self) -> List[Hashable]:
        """Distinct flows observed, in first-seen order."""
        seen = {}
        for _t, fid, _s in self.entries:
            seen.setdefault(fid, None)
        return list(seen)

    def service_curve(self, flow_id: Hashable) -> List[Tuple[float, int]]:
        """Cumulative bytes served to ``flow_id`` as (time, total) steps."""
        total = 0
        curve = []
        for t, fid, size in self.entries:
            if fid == flow_id:
                total += size
                curve.append((t, total))
        return curve

    def service_in_window(
        self, flow_id: Hashable, t0: float, t1: float
    ) -> int:
        """Bytes served to ``flow_id`` with completion time in ``[t0, t1)``.

        O(log n + k) for k entries in the window (the timestamp index is
        maintained on record, not rebuilt per query).
        """
        lo = bisect_left(self._times, t0)
        hi = bisect_right(self._times, t1)
        return sum(
            size
            for t, fid, size in self.entries[lo:hi]
            if fid == flow_id and t0 <= t < t1
        )

    def slot_sequence(self) -> List[Hashable]:
        """Just the flow-id order of transmissions (smoothness analyses)."""
        return [fid for _t, fid, _s in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

