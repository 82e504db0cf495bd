"""Deficit Round Robin (Shreedhar & Varghese, SIGCOMM 1995).

The standard O(1) byte-fair round-robin scheduler and the paper's main
round-robin comparator. Each backlogged flow sits in a circular active
list; when visited it receives ``weight * quantum`` bytes of credit and
transmits head-of-line packets while the credit covers them, carrying any
remainder to its next visit. With ``quantum >= max packet size`` each
visit sends at least one packet, giving O(1) amortised work per packet.

Credit is accumulated *exactly* (as a float for fractional weights): a
flow whose per-visit grant ``weight * quantum`` is below one byte simply
accrues credit across visits until it covers the head-of-line packet.
Truncating the grant to an int instead — as a first version of this file
did — starves such flows forever and turns ``dequeue()`` into an
unbounded rotate loop once every other flow has drained. Weights so small
that the accrual itself would be unbounded are rejected at ``add_flow``
time (see ``MIN_VISIT_CREDIT``).

DRR's weakness relative to SRR is *latency and burstiness*: a flow's whole
per-round allocation is delivered in one contiguous burst, so the gap
between a flow's bursts grows with the number of active flows and with
total weight — exactly the effect experiments E2-E4 measure.
"""

from __future__ import annotations

from collections import deque
from typing import ClassVar, Deque, Optional

from ..core.errors import ConfigurationError
from ..core.flow import FlowState
from ..core.interfaces import FlowTableScheduler
from ..core.packet import Packet

__all__ = ["DRRScheduler"]


#: Smallest accepted per-visit credit ``weight * quantum`` in bytes.
#: Below this, serving a single MTU packet would take millions of active-
#: list rotations — indistinguishable from a livelock in practice — so the
#: configuration is rejected up front instead.
MIN_VISIT_CREDIT = 2.0 ** -20


class DRRScheduler(FlowTableScheduler):
    """Deficit Round Robin with per-flow ``weight * quantum`` byte credit."""

    name: ClassVar[str] = "drr"
    supports_reweight: ClassVar[bool] = True

    def __init__(self, *, quantum: int = 1500, **kwargs) -> None:
        super().__init__(**kwargs)
        if quantum < 1:
            raise ConfigurationError(f"quantum must be >= 1, got {quantum}")
        self.quantum = quantum
        self._active: Deque[FlowState] = deque()
        self._active_set = set()
        # True while the head flow has already been granted this round's
        # credit (it is mid-burst across dequeue() calls).
        self._head_charged = False

    def _on_flow_added(self, flow: FlowState) -> None:
        if flow.weight * self.quantum < MIN_VISIT_CREDIT:
            del self._flows[flow.flow_id]
            raise ConfigurationError(
                f"flow {flow.flow_id!r}: per-visit credit "
                f"{flow.weight} * {self.quantum} is below "
                f"MIN_VISIT_CREDIT={MIN_VISIT_CREDIT}; raise the weight or "
                f"the quantum"
            )

    def _on_backlogged(self, flow: FlowState) -> None:
        if flow.flow_id not in self._active_set:
            flow.deficit = 0
            self._active.append(flow)
            self._active_set.add(flow.flow_id)

    def _on_flow_removed(self, flow: FlowState) -> None:
        if flow.flow_id in self._active_set:
            if self._active and self._active[0] is flow:
                self._head_charged = False
            self._active.remove(flow)
            self._active_set.discard(flow.flow_id)

    def dequeue(self) -> Optional[Packet]:
        ops = self._ops
        active = self._active
        while active:
            ops.bump()
            flow = active[0]
            if not self._head_charged:
                # Exact (possibly fractional) credit. int() truncation here
                # would grant 0 bytes forever when weight * quantum < 1 and
                # livelock the rotate loop below.
                flow.deficit += flow.weight * self.quantum
                self._head_charged = True
            if flow.head_size() <= flow.deficit:
                packet = flow.take()
                flow.deficit -= packet.size
                if not flow.queue:
                    # Shreedhar-Varghese: leaving the active list resets
                    # the deficit — credit must not survive idling.
                    flow.deficit = 0
                    active.popleft()
                    self._active_set.discard(flow.flow_id)
                    self._head_charged = False
                return self._account_departure(packet)
            # Credit exhausted for this round: rotate, keep the deficit.
            active.rotate(-1)
            self._head_charged = False
        return None
