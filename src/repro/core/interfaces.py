"""The scheduler interface shared by SRR, the baselines and the extensions.

Every scheduler in this repository is a *packet scheduler for an output
link*: flows are registered with a weight, packets are pushed with
:meth:`PacketScheduler.enqueue`, and the link transmitter pulls the next
packet to send with :meth:`PacketScheduler.dequeue`. The network simulator
(:mod:`repro.net`) talks to schedulers exclusively through this interface,
so any scheduler can be plugged into any output port.

:class:`FlowTableScheduler` factors the bookkeeping every concrete
scheduler needs (flow table, backlog accounting, drop counting) so that
subclasses only implement the actual service discipline.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Dict, Hashable, Iterable, List, Optional

from .errors import (
    ConfigurationError,
    DuplicateFlowError,
    InvalidWeightError,
    UnknownFlowError,
)
from .flow import FlowState, check_weight, column_nodes
from .opcount import NULL_COUNTER, OpCounter
from .packet import Packet

__all__ = ["PacketScheduler", "FlowTableScheduler"]


class PacketScheduler(abc.ABC):
    """Abstract work-conserving packet scheduler for one output link."""

    #: Short machine-readable name used by the registry and in reports.
    name: ClassVar[str] = "abstract"

    #: Whether the scheduler codes weights in binary (requires ints >= 1).
    requires_integer_weights: ClassVar[bool] = False

    #: Whether weight 0 registers a best-effort flow (G-3/RRR's f0 class).
    #: The network builder maps weight-0 flows to weight 1 on schedulers
    #: without a best-effort class (work conservation hands them the
    #: residue anyway).
    supports_zero_weight: ClassVar[bool] = False

    @abc.abstractmethod
    def add_flow(
        self,
        flow_id: Hashable,
        weight: float = 1,
        *,
        max_queue: Optional[int] = None,
    ) -> None:
        """Register a flow before any of its packets may be enqueued."""

    @abc.abstractmethod
    def remove_flow(self, flow_id: Hashable) -> int:
        """Deregister a flow, discarding its queue; returns packets dropped."""

    @abc.abstractmethod
    def enqueue(self, packet: Packet) -> bool:
        """Queue ``packet`` on its flow; False if the flow queue was full."""

    @abc.abstractmethod
    def dequeue(self) -> Optional[Packet]:
        """Return the next packet to transmit, or ``None`` when idle."""

    @property
    @abc.abstractmethod
    def backlog(self) -> int:
        """Total queued packets across all flows."""

    @property
    @abc.abstractmethod
    def backlog_bytes(self) -> int:
        """Total queued bytes across all flows."""

    @abc.abstractmethod
    def has_flow(self, flow_id: Hashable) -> bool:
        """True when ``flow_id`` is registered."""

    @abc.abstractmethod
    def flow_ids(self) -> Iterable[Hashable]:
        """Registered flow ids (iteration order unspecified)."""

    def __len__(self) -> int:
        return self.backlog

    @property
    def is_idle(self) -> bool:
        """True when no packet is queued."""
        return self.backlog == 0


class FlowTableScheduler(PacketScheduler):
    """Base class managing the flow table and backlog accounting.

    Subclasses implement :meth:`dequeue` plus two hooks:

    * :meth:`_on_flow_added` — wire the new :class:`FlowState` into the
      discipline's data structures;
    * :meth:`_on_flow_removed` — tear it out (called with the flow still
      present in the table);
    * :meth:`_on_backlogged` — the flow just went from empty to backlogged
      (round-robin disciplines typically (re)insert it into their active
      structure here).

    The base class validates weights according to
    ``requires_integer_weights`` and keeps ``backlog``/``backlog_bytes``
    exact, including on drops and flow removal. It also gives every
    registered flow a small integer **slot** (:meth:`slot_of`; freed
    slots are reused), the flow handle of the scalar ``push``/``pull``
    lane that SRR carries (:class:`~repro.core.srr.SRRScheduler`).

    Disciplines whose flow hookup is fully captured by the three hooks
    (SRR, DRR) additionally support **in-place reweighting**
    (:meth:`reweight`): the flow is detached, its weight (and, for
    binary-coded weights, its column nodes) rewritten, and re-attached —
    the queue is never touched, so no packet is dropped or reordered by
    a weight change. They opt in via ``supports_reweight``.
    """

    #: Whether :meth:`reweight` is implemented for this discipline.
    supports_reweight: ClassVar[bool] = False

    def __init__(self, *, op_counter: OpCounter = NULL_COUNTER) -> None:
        self._flows: Dict[Hashable, FlowState] = {}
        #: Slot -> registered flow (``None`` while the slot is free).
        self._slots: List[Optional[FlowState]] = []
        self._free_slots: List[int] = []
        self._backlog_packets = 0
        self._backlog_bytes = 0
        self._ops = op_counter

    # -- flow management ---------------------------------------------------

    def add_flow(
        self,
        flow_id: Hashable,
        weight: float = 1,
        *,
        max_queue: Optional[int] = None,
    ) -> None:
        if flow_id in self._flows:
            raise DuplicateFlowError(flow_id)
        if not self.requires_integer_weights:
            if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                raise InvalidWeightError(f"weight must be numeric, got {weight!r}")
            if weight <= 0:
                raise InvalidWeightError(f"weight must be > 0, got {weight}")
        flow = FlowState(
            flow_id,
            weight,
            max_queue=max_queue,
            integer_weight=self.requires_integer_weights,
        )
        self._flows[flow_id] = flow
        self._on_flow_added(flow)
        free = self._free_slots
        if free:
            flow.slot = slot = free.pop()
            self._slots[slot] = flow
        else:
            flow.slot = len(self._slots)
            self._slots.append(flow)

    def remove_flow(self, flow_id: Hashable) -> int:
        flow = self._lookup(flow_id)
        self._on_flow_removed(flow)
        dropped = len(flow.queue)
        self._backlog_packets -= dropped
        self._backlog_bytes -= flow.backlog_bytes
        flow.queue.clear()
        self._forget(flow)
        return dropped

    def has_flow(self, flow_id: Hashable) -> bool:
        return flow_id in self._flows

    def flow_ids(self) -> Iterable[Hashable]:
        return self._flows.keys()

    def flow_state(self, flow_id: Hashable) -> FlowState:
        """The :class:`FlowState` record for ``flow_id`` (read-mostly)."""
        return self._lookup(flow_id)

    def slot_of(self, flow_id: Hashable) -> int:
        """The flow's slot: its handle on the scalar lane."""
        return self._lookup(flow_id).slot

    @property
    def flow_count(self) -> int:
        """Number of registered flows."""
        return len(self._flows)

    def reweight(self, flow_id: Hashable, weight: float) -> None:
        """Change a registered flow's weight without touching its queue.

        Detaches the flow from the discipline's structures
        (:meth:`_on_flow_removed`), rewrites the weight (and column
        nodes, for binary-coded weights), re-attaches it
        (:meth:`_on_flow_added`, then :meth:`_on_backlogged` if packets
        are queued). If the new weight is rejected — SRR's ``max_order``,
        DRR's minimum per-visit credit, plain validation — the flow is
        restored exactly as it was and the error re-raised.

        Only disciplines with ``supports_reweight`` accept this;
        others raise :class:`ConfigurationError`.
        """
        if not self.supports_reweight:
            raise ConfigurationError(
                f"scheduler {getattr(self, 'name', type(self).__name__)!r} "
                f"does not support in-place reweighting"
            )
        flow = self._lookup(flow_id)
        if weight == flow.weight:
            return
        if not self.requires_integer_weights:
            if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                raise InvalidWeightError(
                    f"weight must be numeric, got {weight!r}"
                )
            if weight <= 0:
                raise InvalidWeightError(f"weight must be > 0, got {weight}")
        old_weight = flow.weight
        old_nodes = flow.nodes
        self._on_flow_removed(flow)
        try:
            if self.requires_integer_weights:
                flow.weight = check_weight(weight)  # type: ignore[arg-type]
                flow.nodes = column_nodes(flow, weight)
            else:
                flow.weight = float(weight)
            self._on_flow_added(flow)
        except Exception:
            # _on_flow_added failure paths evict the flow from the table
            # (SRR max_order, DRR credit floor); restore it fully.
            flow.weight = old_weight
            flow.nodes = old_nodes
            self._flows[flow_id] = flow
            self._on_flow_added(flow)
            if flow.queue:
                self._on_backlogged(flow)
            raise
        if flow.queue:
            self._on_backlogged(flow)

    # -- datapath ------------------------------------------------------------

    def enqueue(self, packet: Packet) -> bool:
        flow = self._lookup(packet.flow_id)
        was_backlogged = bool(flow.queue)
        if not flow.offer(packet):
            return False
        self._backlog_packets += 1
        self._backlog_bytes += packet.size
        if not was_backlogged:
            self._on_backlogged(flow)
        return True

    @property
    def backlog(self) -> int:
        return self._backlog_packets

    @property
    def backlog_bytes(self) -> int:
        return self._backlog_bytes

    # -- subclass hooks --------------------------------------------------

    def _on_flow_added(self, flow: FlowState) -> None:
        """Hook: a flow was registered (default: nothing)."""

    def _on_flow_removed(self, flow: FlowState) -> None:
        """Hook: a flow is being deregistered (default: nothing)."""

    def _on_backlogged(self, flow: FlowState) -> None:
        """Hook: ``flow`` transitioned empty -> backlogged (default: nothing)."""

    # -- helpers -----------------------------------------------------------

    def _forget(self, flow: FlowState) -> None:
        """Drop ``flow`` from the flow table and free its slot."""
        del self._flows[flow.flow_id]
        self._slots[flow.slot] = None
        self._free_slots.append(flow.slot)

    def _lookup(self, flow_id: Hashable) -> FlowState:
        try:
            return self._flows[flow_id]
        except KeyError:
            raise UnknownFlowError(flow_id) from None

    def _account_departure(self, packet: Packet) -> Packet:
        """Update backlog counters for a departing packet and return it."""
        self._backlog_packets -= 1
        self._backlog_bytes -= packet.size
        return packet

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(flows={len(self._flows)}, "
            f"backlog={self._backlog_packets})"
        )
