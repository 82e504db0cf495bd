"""Output port: where a scheduler meets a link.

Every (node, outgoing link) pair has an :class:`OutputPort` holding one
scheduler instance (any :class:`~repro.core.interfaces.PacketScheduler`).
The port implements the store-and-forward transmit loop:

* arriving packets are stamped and pushed into the scheduler;
* whenever the line is free, the scheduler is asked for the next packet,
  which occupies the line for its serialisation time and is delivered to
  the peer node after the propagation delay;
* observers can subscribe to per-packet transmit-completion callbacks
  (``on_transmit``) — the fairness analyses build per-port service traces
  from these.

This is the point where the paper's O(1)-per-packet claim matters: the
``dequeue`` call sits on the critical path of every transmitted packet.

Observability: the port is the emit point for packet-lifecycle tracing
(:mod:`repro.obs.trace`) — ``enqueue``/``drop`` on arrival,
``sched_decision``/``dequeue`` around the scheduler call, ``transmit``
on completion — and feeds per-port metrics (queue-wait histogram, bytes
and drop counters) into the active registry (:mod:`repro.obs.metrics`).
Both default to off: the tracer costs one ``is not None`` branch per
packet, the metrics are no-op singletons from the null registry.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.errors import UnknownFlowError
from ..core.interfaces import PacketScheduler
from ..core.packet import Packet
from ..obs.metrics import DELAY_BUCKETS_S, MetricsRegistry
from ..obs.metrics import get_registry as _active_registry
from ..obs.trace import Tracer, get_tracer
from .engine import Simulator
from .link import Link

__all__ = ["OutputPort"]

TransmitHook = Callable[[float, Packet], None]


class OutputPort:
    """Scheduler + transmitter feeding one unidirectional link."""

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        scheduler: PacketScheduler,
        peer: "object",
        name: str = "",
        buffer_packets: Optional[int] = None,
        max_packet_bytes: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.link = link
        self.scheduler = scheduler
        self.peer = peer  # the receiving Node
        self.name = name
        #: Shared drop-tail buffer across all flows (None = unbounded;
        #: per-flow limits are the scheduler's max_queue).
        self.buffer_packets = buffer_packets
        #: MTU enforcement (None = accept any size). Oversized packets —
        #: the fault injector's malformed variant — are dropped at
        #: ingress with reason ``"oversize"`` rather than poisoning the
        #: scheduler's byte accounting.
        self.max_packet_bytes = max_packet_bytes
        self.busy = False
        self.packets_in = 0
        self.packets_out = 0
        self.bytes_out = 0
        self.drops = 0
        # Transmit-complete event recycling: the port has at most one
        # serialisation in flight, so the same Event object is re-armed
        # per packet (fresh seq — bit-identical schedule order) instead
        # of allocating one per transmission. The packet on the wire
        # rides the port, not the event args.
        self._tx_event = None
        self._in_flight: Optional[Packet] = None
        self.on_transmit: List[TransmitHook] = []
        #: Arrival hooks ``hook(now, packet)`` fired on *every* offered
        #: packet, before any drop decision — the control plane's rate
        #: estimators measure offered (not accepted) load from these.
        self.on_arrival: List[TransmitHook] = []
        #: Optional ingress policer ``policer(packet) -> Optional[str]``:
        #: return a drop-reason string to refuse the packet (the overload
        #: governor demotes best-effort traffic this way), None to accept.
        self.policer: Optional[Callable[[Packet], Optional[str]]] = None
        #: Lifecycle tracer; defaults to the process-wide active one
        #: (usually None — tracing off).
        self.tracer = tracer if tracer is not None else get_tracer()
        # Per-port metrics, resolved once at construction: with the null
        # registry these are shared no-op singletons, so the datapath
        # never branches on "metrics enabled?".
        registry = registry if registry is not None else _active_registry()
        self._wait_hist = registry.histogram(
            "port_queue_wait_s", DELAY_BUCKETS_S, port=name or "?"
        )
        self._tx_bytes = registry.counter("port_tx_bytes", port=name or "?")
        self._drop_count = registry.counter("port_drops", port=name or "?")
        self._fault_malformed = registry.counter(
            "fault_malformed_total", port=name or "?"
        )
        self._fault_unknown = registry.counter(
            "fault_unknown_flow_total", port=name or "?"
        )
        self._fault_link = registry.counter(
            "fault_link_transitions_total", port=name or "?"
        )

    def _drop(self, packet: Packet, reason: str) -> bool:
        self.drops += 1
        self._drop_count.inc()
        if self.tracer is not None:
            self.tracer.emit(
                "drop", self.sim.now, port=self.name,
                flow=packet.flow_id, uid=packet.uid, size=packet.size,
                reason=reason,
            )
        return False

    def enqueue(self, packet: Packet) -> bool:
        """Accept ``packet`` for transmission; False when dropped."""
        now = self.sim.now
        packet.enqueued_at = now
        self.packets_in += 1
        if self.on_arrival:
            for hook in self.on_arrival:
                hook(now, packet)
        if (
            self.max_packet_bytes is not None
            and packet.size > self.max_packet_bytes
        ):
            self._fault_malformed.inc()
            return self._drop(packet, "oversize")
        if self.policer is not None:
            reason = self.policer(packet)
            if reason is not None:
                return self._drop(packet, reason)
        if (
            self.buffer_packets is not None
            and self.scheduler.backlog >= self.buffer_packets
        ):
            return self._drop(packet, "buffer")
        try:
            accepted = self.scheduler.enqueue(packet)
        except UnknownFlowError:
            # A packet for a flow this port has never heard of (the fault
            # injector's other malformed variant, or a race with flow
            # teardown) must not crash the datapath.
            self._fault_unknown.inc()
            return self._drop(packet, "unknown_flow")
        if not accepted:
            return self._drop(packet, "queue_limit")
        if self.tracer is not None:
            self.tracer.emit(
                "enqueue", self.sim.now, port=self.name,
                flow=packet.flow_id, uid=packet.uid, size=packet.size,
                backlog=self.scheduler.backlog,
            )
        if not self.busy and self.link.up:
            self._transmit_next()
        return True

    # -- fault injection: link availability ---------------------------------

    def link_down(self, drop_queued: bool = False) -> int:
        """Take the outgoing link down; returns packets dropped.

        A packet already on the wire finishes serialising (the bits are
        committed), but no new dequeue happens until :meth:`link_up`.
        With ``drop_queued`` the whole queued backlog is drained through
        the scheduler and dropped — the schedulers' own dequeue paths do
        the state surgery, so flow accounting stays consistent.
        """
        if not self.link.up:
            return 0
        self.link.up = False
        self._fault_link.inc()
        dropped = 0
        if drop_queued:
            while True:
                packet = self.scheduler.dequeue()
                if packet is None:
                    break
                self._drop(packet, "link_down")
                dropped += 1
        return dropped

    def link_up(self) -> None:
        """Restore the link and restart the transmit loop if backlogged."""
        if self.link.up:
            return
        self.link.up = True
        self._fault_link.inc()
        if not self.busy and self.scheduler.backlog > 0:
            self._transmit_next()

    def _transmit_next(self) -> None:
        if not self.link.up:
            # Downed link: leave the backlog queued; link_up() restarts
            # the loop.
            self.busy = False
            return
        tracer = self.tracer
        if tracer is None:
            packet = self.scheduler.dequeue()
        else:
            backlog = self.scheduler.backlog
            packet = self.scheduler.dequeue()
            tracer.emit(
                "sched_decision", self.sim.now, port=self.name,
                scheduler=self.scheduler.name, backlog=backlog,
                flow=None if packet is None else packet.flow_id,
            )
        if packet is None:
            self.busy = False
            return
        self.busy = True
        now = self.sim.now
        packet.dequeued_at = now
        self._wait_hist.observe(now - packet.enqueued_at)
        if tracer is not None:
            tracer.emit(
                "dequeue", now, port=self.name, flow=packet.flow_id,
                uid=packet.uid, size=packet.size,
                waited_s=now - packet.enqueued_at,
            )
        self._in_flight = packet
        delay = self.link.serialization_time(packet.size)
        event = self._tx_event
        if event is not None and event._sim is None and not event.cancelled:
            self.sim.reschedule(event, delay)
        else:
            self._tx_event = self.sim.schedule(
                delay, self._transmission_complete
            )

    def _transmission_complete(self) -> None:
        packet = self._in_flight
        self._in_flight = None
        now = self.sim.now
        self.packets_out += 1
        self.bytes_out += packet.size
        self._tx_bytes.inc(packet.size)
        if self.tracer is not None:
            self.tracer.emit(
                "transmit", now, port=self.name, flow=packet.flow_id,
                uid=packet.uid, size=packet.size,
            )
        for hook in self.on_transmit:
            hook(now, packet)
        # Propagation: the packet arrives at the peer delay seconds after
        # the last bit leaves; the line is immediately free for the next.
        self.sim.schedule(self.link.delay, self.peer.receive, packet)
        self._transmit_next()

    @property
    def backlog(self) -> int:
        """Packets queued at this port."""
        return self.scheduler.backlog

    @property
    def utilization_bytes(self) -> int:
        """Total bytes transmitted."""
        return self.bytes_out

    def __repr__(self) -> str:
        return (
            f"OutputPort({self.name or '?'}: {self.link!r}, "
            f"sched={type(self.scheduler).__name__}, "
            f"backlog={self.scheduler.backlog})"
        )
