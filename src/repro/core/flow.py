"""Per-flow scheduler state shared by SRR and reused by the baselines.

A :class:`FlowState` bundles a flow's configured weight, its FIFO packet
queue, its per-column linkage into the SRR :class:`~repro.core.weight_matrix.WeightMatrix`
(intrusive doubly-linked list nodes, one per set bit of the weight), the
deficit counter used by the variable-packet-size service mode, and running
service statistics consumed by the fairness analyses.

The queue holds :class:`~repro.core.packet.Packet` objects on the
``enqueue``/``dequeue`` lane and ``(slot, size, ref)`` tuples on SRR's
scalar lane (:class:`~repro.core.srr.SRRScheduler`);
:attr:`FlowState.backlog_bytes` reads either.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, Optional

from .errors import InvalidWeightError
from .packet import Packet

__all__ = ["ColumnNode", "FlowState", "check_weight", "column_nodes"]


#: Largest weight accepted anywhere in the library. 2^62 keeps every
#: derived quantity (positions of WSS^order, column indices) inside a
#: machine word on CPython.
MAX_WEIGHT = 1 << 62


def check_weight(weight: int) -> int:
    """Validate an SRR-style integer weight and return it.

    SRR codes weights in binary, so weights must be positive integers.
    Booleans are rejected explicitly because ``isinstance(True, int)``.
    """
    if isinstance(weight, bool) or not isinstance(weight, int):
        raise InvalidWeightError(
            f"SRR weights must be positive integers, got {weight!r}"
        )
    if weight < 1:
        raise InvalidWeightError(f"weight must be >= 1, got {weight}")
    if weight > MAX_WEIGHT:
        raise InvalidWeightError(f"weight {weight} exceeds MAX_WEIGHT")
    return weight


class ColumnNode:
    """Intrusive doubly-linked list node tying a flow into one WM column.

    A flow owns one node per set bit of its weight. Nodes are unlinked in
    O(1) when the flow leaves the matrix (queue drained or flow removed).
    ``prev``/``next`` are never ``None`` while linked — columns use
    sentinel head/tail nodes.
    """

    __slots__ = ("flow", "column", "prev", "next", "linked")

    def __init__(self, flow: "Optional[FlowState]", column: int) -> None:
        self.flow = flow
        self.column = column
        self.prev: Optional[ColumnNode] = None
        self.next: Optional[ColumnNode] = None
        self.linked = False

    def __repr__(self) -> str:
        fid = self.flow.flow_id if self.flow is not None else "<sentinel>"
        return f"ColumnNode(flow={fid!r}, column={self.column}, linked={self.linked})"


class FlowState:
    """All scheduler-side state for one flow.

    Attributes:
        flow_id: The flow's identity (any hashable).
        weight: Positive integer weight; service per WSS round is exactly
            proportional to it.
        queue: FIFO of queued packets.
        nodes: Column index -> :class:`ColumnNode` for each set bit of the
            weight.
        deficit: Byte credit for the ``deficit`` service mode (0 in
            ``packet`` mode).
        packets_sent / bytes_sent: Cumulative service counters.
        packets_dropped: Count of arrivals rejected by the queue limit.
        slot: The flow's index in its scheduler's slot table (``-1``
            until a :class:`~repro.core.interfaces.FlowTableScheduler`
            registers it).
    """

    __slots__ = (
        "flow_id",
        "weight",
        "queue",
        "nodes",
        "deficit",
        "packets_sent",
        "bytes_sent",
        "packets_dropped",
        "max_queue",
        "slot",
        # Timestamp-scheduler scratch state (WFQ family): the virtual
        # finish tag of the flow's most recently tagged packet, and the
        # per-packet tag FIFO mirroring `queue` (WF2Q+ only; that
        # scheduler allocates it when the flow is added).
        "finish_tag",
        "tags",
    )

    def __init__(
        self,
        flow_id: Hashable,
        weight: float,
        *,
        max_queue: Optional[int] = None,
        integer_weight: bool = True,
    ) -> None:
        self.flow_id = flow_id
        if integer_weight:
            self.weight: float = check_weight(weight)  # type: ignore[arg-type]
            nodes = column_nodes(self, weight)
        else:
            # Timestamp-based baselines (WFQ family) take real-valued
            # weights and never use the column linkage.
            self.weight = float(weight)
            nodes = {}
        self.queue: Deque[Packet] = deque()
        self.nodes: Dict[int, ColumnNode] = nodes
        self.deficit = 0
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_dropped = 0
        self.max_queue = max_queue
        self.slot = -1
        self.finish_tag = 0.0

    @property
    def backlogged(self) -> bool:
        """True when the flow has at least one queued packet."""
        return bool(self.queue)

    @property
    def backlog_bytes(self) -> int:
        """Total queued bytes (packets and scalar-lane items alike)."""
        return sum(
            item[1] if type(item) is tuple else item.size
            for item in self.queue
        )

    @property
    def in_matrix(self) -> bool:
        """True when any of the flow's column nodes is linked."""
        # All nodes link/unlink together; checking one suffices, but the
        # any() keeps the invariant self-describing (and tested).
        return any(node.linked for node in self.nodes.values())

    def offer(self, packet: Packet) -> bool:
        """Append ``packet`` to the queue; False (and drop-count) if full."""
        if self.max_queue is not None and len(self.queue) >= self.max_queue:
            self.packets_dropped += 1
            return False
        self.queue.append(packet)
        return True

    def take(self) -> Packet:
        """Pop and account the head-of-line packet (queue must be non-empty)."""
        packet = self.queue.popleft()
        self.packets_sent += 1
        self.bytes_sent += packet.size
        return packet

    def head_size(self) -> int:
        """Size in bytes of the head-of-line packet (queue must be non-empty)."""
        return self.queue[0].size

    def __repr__(self) -> str:
        return (
            f"FlowState(id={self.flow_id!r}, weight={self.weight}, "
            f"queued={len(self.queue)}, sent={self.packets_sent})"
        )


def column_nodes(flow: FlowState, weight: int) -> Dict[int, ColumnNode]:
    """One unlinked :class:`ColumnNode` per set bit of ``weight``."""
    nodes = {}
    while weight:
        low = weight & -weight
        bit = low.bit_length() - 1
        nodes[bit] = ColumnNode(flow, bit)
        weight ^= low
    return nodes

