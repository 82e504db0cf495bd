"""The scalar lane of SRR and DRR.

SRR and DRR serve two lanes over one flow table and one set of service
structures:

``enqueue(packet)`` / ``dequeue() -> Packet``
    The lane :class:`~repro.net.scenario.Network` drives.

``push(slot, size, ref)`` / ``pull() -> (slot, size, ref)``
    The scalar lane: no :class:`~repro.core.packet.Packet` exists.
    ``slot`` comes from ``slot_of(flow_id)``; ``ref`` is whatever the
    caller wants back (a timestamp, a sequence number, ``None``).
    ``push`` stores the very tuple ``pull`` returns in the flow's queue,
    so serving a packet allocates nothing. ``pull_batch(budget)`` serves
    up to ``budget`` packets in one call, exactly as that many ``pull``
    calls would. :mod:`repro.fastpath.netloop` runs on this lane.

Both lanes bump the op counter at the same algorithmic steps, so a
lane's service order, op counts and WSS terms equal the other's on the
same arrivals. Use one lane per scheduler instance.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

__all__ = ["ScalarLane"]

#: One scalar-lane item: ``(slot, size, ref)``.
Item = Tuple[int, int, Any]


class ScalarLane:
    """Mixin giving a :class:`~repro.core.interfaces.FlowTableScheduler`
    subclass the scalar lane. Subclasses implement :meth:`pull`."""

    def push(self, slot: int, size: int, ref: Any = None) -> bool:
        """Queue one ``size``-byte packet on ``slot``'s flow; False (and
        drop-counted) when the flow's queue limit is reached."""
        flow = self._slots[slot]
        queue = flow.queue
        limit = flow.max_queue
        if limit is not None and len(queue) >= limit:
            flow.packets_dropped += 1
            return False
        queue.append((slot, size, ref))
        self._backlog_packets += 1
        self._backlog_bytes += size
        if len(queue) == 1:
            self._on_backlogged(flow)
        return True

    def pull(self) -> Optional[Item]:
        """Serve the next packet as ``(slot, size, ref)`` (or ``None``)."""
        raise NotImplementedError

    def pull_batch(self, budget: int) -> List[Item]:
        """Serve up to ``budget`` packets: ``budget`` calls of :meth:`pull`."""
        out: List[Item] = []
        pull = self.pull
        for _ in range(budget):
            item = pull()
            if item is None:
                break
            out.append(item)
        return out
