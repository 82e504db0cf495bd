"""SRR — the Smoothed Round Robin packet scheduler (the paper's contribution).

Algorithm
---------
Each flow ``f_i`` has a positive integer weight ``w_i`` proportional to its
reserved rate. The binary digits of the weights form the Weight Matrix
(:mod:`repro.core.weight_matrix`): column ``j`` holds the flows whose
weight has bit ``j`` set. SRR scans the Weight Spread Sequence
(:mod:`repro.core.wss`) of order ``k`` — where ``k`` is the index of the
highest non-empty column plus one — cyclically. When the scanned term has
value ``v``, column ``k - v`` is selected and **every flow currently in
that column is served once** (one packet in the paper's fixed-size model).

Why this is fair and smooth: value ``v`` occurs ``2^(k-v)`` times per WSS
round, so column ``j`` is visited ``2^j`` times per round and a flow of
weight ``w`` receives exactly ``w = Σ 2^j`` services per round — the same
per-round allocation as WRR, but with each flow's services spread evenly
across the round instead of bunched together (the WSS interleaves columns
the way bit-reversal interleaves indices).

Why this is O(1): advancing to the next flow within a column is one
pointer step; advancing to the next WSS term is one counter increment plus
one trailing-zero count (the closed form ``term(i) = v2(i) + 1``; the
paper reads a stored array instead, see :mod:`repro.core.wss`). Because
``k`` always tracks the highest non-empty column, term value 1 — which
occurs at every odd position, i.e. every other term — always selects a
non-empty column, so at most one scanned term in a row can come up empty.
Hence ``dequeue`` is O(1) worst-case per packet, independent of N.

Work conservation: only *backlogged* flows are kept in the matrix. A flow
is inserted when its queue goes non-empty and unlinked the moment it
drains (the paper's SRR behaves the same; this is what distinguishes it
from the slotted, reservation-table G-3 follow-on).

Delay: SRR does **not** provide a constant delay bound — Theorem 1 /
Lemma 2 (restated in :mod:`repro.analysis.bounds`) show the single-node
delay is ``<= θ(n_m)·N·L/C + (m-1)·L/r`` with ``θ(n) < n``, i.e. linear in
the number of active flows. Experiments E3/E4 reproduce this shape.

Service modes
-------------
``packet``
    The paper's rule: one packet per visit. Exact weighted fairness in
    *packets per round*; in networks with uniform packet size L (the
    fixed-size model of the paper) this is byte-exact too.
``deficit``
    The variable-packet-size variant (the paper's "multi-service" setting;
    the author's variants reference). Each visit grants the flow
    ``quantum`` bytes of credit; the flow transmits head-of-line packets
    while credit lasts, with the unused remainder carried over exactly as
    in DRR. With ``quantum >= max packet size`` every visit sends at least
    one packet, preserving the O(1) amortised bound.

Dynamic order changes
---------------------
When the highest non-empty column changes (a heavier flow arrives, or the
heaviest drains), the scan order ``k`` changes with it. This
implementation restarts the WSS scan at the beginning of the new sequence,
which perturbs fairness for at most one round; the prefix property of the
WSS (``WSS^(k-1)`` is a prefix of ``WSS^k``) keeps the perturbation small
in practice.

Lanes
-----
``enqueue``/``dequeue`` move :class:`~repro.core.packet.Packet` objects
and serve both modes. In packet mode the scalar lane
(``push``/``pull``/``pull_batch``) moves ``(slot, size, ref)`` tuples
through the same weight matrix and WSS scan, with the same op bumps:
``slot`` comes from ``slot_of(flow_id)``, ``ref`` is whatever the caller
wants back, and ``push`` stores the very tuple ``pull`` returns, so
serving a packet allocates nothing. ``pull_batch(budget)`` serves up to
``budget`` packets, exactly as that many ``pull`` calls would, fusing a
WSS column visit into one loop. :mod:`repro.fastpath.netloop` runs on
this lane. Use one lane per scheduler instance; in deficit mode ``pull``
and ``pull_batch`` raise :class:`~repro.core.errors.ConfigurationError`.
"""

from __future__ import annotations

from typing import Any, ClassVar, List, Optional, Tuple

from .errors import ConfigurationError
from .flow import ColumnNode, FlowState
from .interfaces import FlowTableScheduler
from .opcount import NULL_COUNTER, OpCounter
from .packet import Packet
from .weight_matrix import WeightMatrix

__all__ = ["SRRScheduler"]

#: One scalar-lane item: ``(slot, size, ref)``.
Item = Tuple[int, int, Any]

_DEFICIT_LANE = (
    "the scalar lane (push/pull/pull_batch) serves packet mode only; "
    "run deficit mode on enqueue/dequeue"
)


class SRRScheduler(FlowTableScheduler):
    """Smoothed Round Robin (Guo, SIGCOMM 2001 / ToN 2004).

    Args:
        max_order: Largest supported ``weight.bit_length()`` (columns are
            pre-allocated; 62 accepts any practical weight).
        mode: ``"packet"`` (paper, fixed packet size) or ``"deficit"``
            (variable packet size; DRR-style byte credit per visit).
        quantum: Byte credit granted per visit in ``deficit`` mode. Must
            be >= the largest packet the flow may send for the O(1) bound
            to hold; defaults to 1500 (Ethernet MTU).
        op_counter: Elementary-operation counter for complexity
            experiments.

    The scheduler is work-conserving: ``dequeue`` returns a packet
    whenever any flow is backlogged.
    """

    name: ClassVar[str] = "srr"
    requires_integer_weights: ClassVar[bool] = True
    supports_reweight: ClassVar[bool] = True

    def __init__(
        self,
        *,
        max_order: int = 62,
        mode: str = "packet",
        quantum: int = 1500,
        op_counter: OpCounter = NULL_COUNTER,
    ) -> None:
        super().__init__(op_counter=op_counter)
        if mode not in ("packet", "deficit"):
            raise ConfigurationError(
                f"mode must be 'packet' or 'deficit', got {mode!r}"
            )
        if mode == "deficit" and quantum < 1:
            raise ConfigurationError(f"quantum must be >= 1, got {quantum}")
        self.mode = mode
        self.quantum = quantum
        self.matrix = WeightMatrix(max_order, op_counter=op_counter)
        # WSS scan state. _order == 0 means "scan not started / matrix empty".
        self._order = 0
        self._position = 0
        # Cursor into the column currently being served: the next candidate
        # node, or a tail sentinel when the column is exhausted, or None
        # when no column is selected.
        self._cursor: Optional[ColumnNode] = None
        # Deficit mode: flow that still holds enough credit to keep sending.
        self._stuck: Optional[FlowState] = None
        #: Cumulative WSS terms examined (including terms whose column was
        #: empty). Per-dequeue deltas of this counter are the scan-length
        #: distribution behind the O(1)-evidence profiling; the paper's
        #: bound is that at most two terms are examined per packet.
        self.terms_scanned = 0

    # -- FlowTableScheduler hooks -----------------------------------------

    def _on_flow_added(self, flow: FlowState) -> None:
        bits = int(flow.weight).bit_length()
        if bits > self.matrix.max_order:
            del self._flows[flow.flow_id]
            raise ConfigurationError(
                f"weight {flow.weight} needs {bits} weight-matrix columns, "
                f"scheduler was built with max_order={self.matrix.max_order}"
            )

    def _on_backlogged(self, flow: FlowState) -> None:
        # Empty -> backlogged: (re)enter the weight matrix. Appending at
        # column tails means a newly backlogged flow is picked up by the
        # in-progress column scan only if the cursor has not passed the
        # tail yet; either way it is served in the next visit of any of
        # its columns.
        self.matrix.insert(flow)

    def _on_flow_removed(self, flow: FlowState) -> None:
        if flow.in_matrix:
            self._unlink(flow)
        if self._stuck is flow:
            self._stuck = None
        flow.deficit = 0

    # -- scheduling --------------------------------------------------------

    def dequeue(self) -> Optional[Packet]:
        """Select the next packet in O(1) (see module docstring)."""
        if self.mode == "packet":
            return self._dequeue_packet_mode()
        return self._dequeue_deficit_mode()

    def _dequeue_packet_mode(self) -> Optional[Packet]:
        ops = self._ops
        while True:
            node = self._cursor
            if node is not None and node.flow is not None:
                # Serve this flow once and advance within the column.
                flow = node.flow
                self._cursor = node.next
                ops.bump()
                packet = flow.take()
                if not flow.queue:
                    self._unlink(flow)
                return self._account_departure(packet)
            # Column exhausted (or no column yet): advance the WSS scan.
            if not self._advance_term():
                return None

    def _dequeue_deficit_mode(self) -> Optional[Packet]:
        ops = self._ops
        # A flow with leftover credit keeps the link until the credit no
        # longer covers its head-of-line packet.
        stuck = self._stuck
        if stuck is not None:
            self._stuck = None
            if stuck.queue and stuck.head_size() <= stuck.deficit:
                return self._send_with_deficit(stuck)
        while True:
            node = self._cursor
            if node is not None and node.flow is not None:
                flow = node.flow
                self._cursor = node.next
                ops.bump()
                flow.deficit += self.quantum
                if flow.head_size() <= flow.deficit:
                    return self._send_with_deficit(flow)
                # Credit too small for the head packet: skip this visit,
                # carrying the credit (exactly DRR's behaviour when the
                # quantum is smaller than the packet).
                continue
            if not self._advance_term():
                return None

    def _send_with_deficit(self, flow: FlowState) -> Packet:
        packet = flow.take()
        flow.deficit -= packet.size
        if not flow.queue:
            # The paper's DRR-style rule: credit does not survive idling.
            flow.deficit = 0
            self._unlink(flow)
        elif flow.head_size() <= flow.deficit:
            self._stuck = flow
        return self._account_departure(packet)

    # -- scalar lane -------------------------------------------------------
    #
    # _dequeue_packet_mode with (slot, size, ref) tuples in place of
    # packets: same op bumps, same unlink rule.

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
        """Serve the next packet in O(1) as ``(slot, size, ref)``."""
        if self.mode != "packet":
            raise ConfigurationError(_DEFICIT_LANE)
        ops = self._ops
        while True:
            node = self._cursor
            if node is not None and node.flow is not None:
                flow = node.flow
                self._cursor = node.next
                ops.bump()
                queue = flow.queue
                item = queue.popleft()
                size = item[1]
                flow.packets_sent += 1
                flow.bytes_sent += size
                if not queue:
                    self._unlink(flow)
                self._backlog_packets -= 1
                self._backlog_bytes -= size
                return item
            if not self._advance_term():
                return None

    def pull_batch(self, budget: int) -> List[Item]:
        """Serve up to ``budget`` packets, exactly as ``budget`` pulls.

        One fused loop: within a WSS column visit each packet costs a few
        attribute loads, not a Python call.
        """
        if self.mode != "packet":
            raise ConfigurationError(_DEFICIT_LANE)
        out: List[Item] = []
        append = out.append
        bump = self._ops.bump
        advance = self._advance_term
        unlink = self._unlink
        served_bytes = 0
        while len(out) < budget:
            node = self._cursor
            if node is not None and node.flow is not None:
                flow = node.flow
                self._cursor = node.next
                bump()
                queue = flow.queue
                item = queue.popleft()
                size = item[1]
                flow.packets_sent += 1
                flow.bytes_sent += size
                if not queue:
                    unlink(flow)
                served_bytes += size
                append(item)
            elif not advance():
                break
        self._backlog_packets -= len(out)
        self._backlog_bytes -= served_bytes
        return out

    def _advance_term(self) -> bool:
        """Advance to the next WSS term and point the cursor at its column.

        Returns False when the matrix is empty (scheduler idle). At most
        one empty column can be scanned in a row (term value 1 — every
        other position — selects the guaranteed-non-empty top column), so
        callers loop at most twice per packet.
        """
        matrix = self.matrix
        if matrix.empty:
            self._order = 0
            self._position = 0
            self._cursor = None
            return False
        order = matrix.order
        if order != self._order:
            # Restart the scan (bounded perturbation; see module
            # docstring).
            self._order = order
            self._position = 0
        position = self._position + 1
        if position > (1 << order) - 1:
            position = 1
        self._position = position
        # Closed-form WSS term: v2(position) + 1.
        value = (position & -position).bit_length()
        column = matrix.columns[order - value]
        self._cursor = column.first()
        self.terms_scanned += 1
        self._ops.bump()
        return True

    def _unlink(self, flow: FlowState) -> None:
        """Remove a flow from the matrix, keeping the scan cursor valid."""
        cursor = self._cursor
        if cursor is not None and cursor.flow is flow:
            # The cursor points at one of this flow's nodes; step past it
            # before the unlink tears its links down.
            self._cursor = cursor.next
        self.matrix.remove(flow)

    # -- introspection -----------------------------------------------------

    @property
    def order(self) -> int:
        """Current weight-matrix order (0 when no flow is backlogged)."""
        return self.matrix.order

    @property
    def scan_position(self) -> int:
        """1-based WSS position of the most recent term (0 before start)."""
        return self._position

    def column_populations(self) -> List[int]:
        """``y_j`` counts per column up to the current order (diagnostics)."""
        return [
            self.matrix.column_population(j) for j in range(self.matrix.order)
        ]

    def __repr__(self) -> str:
        return (
            f"SRRScheduler(mode={self.mode!r}, order={self.matrix.order}, "
            f"flows={self.flow_count}, backlog={self.backlog})"
        )
