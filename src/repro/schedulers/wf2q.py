"""WF²Q+ — Worst-case Fair Weighted Fair Queueing (Bennett & Zhang).

WF²Q refines WFQ with an *eligibility* test: the server only considers
packets that the GPS fluid system would already have started
(``S_p <= V(t)``), and among those serves the smallest finish stamp. This
removes WFQ's up-to-one-round "run ahead" and gives the smallest possible
Worst-case Fairness Index. WF²Q+ (Bennett & Zhang, 1997) replaces GPS
tracking with the cheap virtual-time recursion::

    V(after transmitting l bytes) = max(V + l / W_total,
                                        min over backlogged flows of S_head)

where ``W_total`` is the total registered weight (the normalised link
rate). Tagging uses the same ``S = max(V, F_flow)`` rule as the others;
stamps are computed per packet at arrival and carried in the flow's tag
FIFO.

Only head-of-line packets participate in selection (as in the published
algorithm): each backlogged flow contributes exactly one entry, first to a
*pending* heap ordered by start stamp, migrating to an *eligible* heap
ordered by finish stamp once V passes its start. Cost is O(log N) per
packet.
"""

from __future__ import annotations

from collections import deque
from typing import ClassVar, Optional

from ..core.flow import FlowState
from ..core.interfaces import FlowTableScheduler
from ..core.packet import Packet
from ._heap import CountingHeap

__all__ = ["WF2QPlusScheduler"]


class WF2QPlusScheduler(FlowTableScheduler):
    """WF²Q+: eligibility-filtered smallest-finish-stamp service."""

    name: ClassVar[str] = "wf2q+"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._vtime = 0.0
        # Heap of (start, finish, uid, packet, flow): HOL, not yet eligible.
        self._pending = CountingHeap(op_counter=self._ops)
        # Heap of (finish, uid, packet, flow): HOL, eligible for service.
        self._eligible = CountingHeap(op_counter=self._ops)
        self._total_weight = 0.0

    def _on_flow_added(self, flow: FlowState) -> None:
        self._total_weight += flow.weight
        flow.tags = deque()

    def _on_flow_removed(self, flow: FlowState) -> None:
        # Heap entries for this flow go stale and are skipped lazily.
        self._total_weight -= flow.weight
        flow.finish_tag = 0.0
        flow.tags.clear()

    def enqueue(self, packet: Packet) -> bool:
        flow = self._lookup(packet.flow_id)
        if not super().enqueue(packet):
            return False
        start = self._vtime if flow.finish_tag < self._vtime else flow.finish_tag
        finish = start + packet.size / flow.weight
        flow.finish_tag = finish
        flow.tags.append((start, finish))
        if len(flow.queue) == 1:
            # The flow just became backlogged: its HOL enters selection.
            self._pending.push((start, finish, packet.uid, packet, flow))
        return True

    def dequeue(self) -> Optional[Packet]:
        self._promote_eligible()
        while True:
            entry = self._pop_valid_eligible()
            if entry is None:
                # Nothing eligible: jump V forward to the earliest pending
                # start (the max() term of the WF²Q+ recursion) and retry.
                head = self._peek_valid_pending()
                if head is None:
                    return None
                if head[0] > self._vtime:
                    self._vtime = head[0]
                self._promote_eligible()
                continue
            _finish, _uid, packet, flow = entry
            flow.take()
            flow.tags.popleft()
            self._account_departure(packet)
            if self._backlog_packets == 0:
                self._end_busy_period()
                return packet
            if flow.queue:
                start, finish = flow.tags[0]
                hol = flow.queue[0]
                self._pending.push((start, finish, hol.uid, hol, flow))
            if self._total_weight > 0:
                self._vtime += packet.size / self._total_weight
            self._promote_eligible()
            return packet

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _entry_valid(packet: Packet, flow: FlowState) -> bool:
        return bool(flow.queue) and flow.queue[0] is packet

    def _promote_eligible(self) -> None:
        """Move pending HOL entries with S <= V into the eligible heap."""
        pending = self._pending
        while pending:
            start, finish, uid, packet, flow = pending.peek()
            if not self._entry_valid(packet, flow):
                pending.pop()  # stale (flow removed)
                continue
            if start > self._vtime:
                break
            pending.pop()
            self._eligible.push((finish, uid, packet, flow))

    def _pop_valid_eligible(self):
        heap = self._eligible
        while heap:
            entry = heap.pop()
            _finish, _uid, packet, flow = entry
            if self._entry_valid(packet, flow):
                return entry
        return None

    def _peek_valid_pending(self):
        heap = self._pending
        while heap:
            entry = heap.peek()
            _start, _finish, _uid, packet, flow = entry
            if self._entry_valid(packet, flow):
                return entry
            heap.pop()
        return None

    def _end_busy_period(self) -> None:
        self._vtime = 0.0
        self._pending.clear()
        self._eligible.clear()
        for flow in self._flows.values():
            flow.finish_tag = 0.0
            flow.tags.clear()

    @property
    def virtual_time(self) -> float:
        """Current WF²Q+ virtual time (diagnostics/tests)."""
        return self._vtime
