"""RRR — the Recursive Round Robin scheduler (Garg & Chen, 1999).

RRR is the *delay-friendly but slow* half of the pair of schedulers the
SRR author later combined into G-3. The output link is modelled as
``2^g`` unit time-slots per round, organised as a Weighted Binary Tree:
node ``v(l, i)`` stands for ``2^(g-l)`` slots. A flow of (slot) weight
``w = Σ 2^(e_j)`` is allocated one tree node per set bit.

Scheduling walks the tree from the root once per slot, alternating at
every intermediate node via a flip bit (Fig. 2 of the supplied text).
The walk reaches either an allocated node — that flow owns the slot — or
a free node — an idle slot, granted to best-effort traffic. The walk
costs O(g) = O(log capacity) per slot; this is exactly the complexity
problem G-3's Time-Slot Arrays remove, and experiment E5 measures it.

Delay: each single-bit allocation of weight ``2^e`` recurs with perfect
period ``2^(g-e)`` slots, so per-bit service is ideally smooth; the
weakness (Eq. 11 and the discussion under it) is that a flow's *number of
bits* ``m`` grows with the precision ``g`` of the slot grid — a 32 kb/s
flow on a 10 Mb/s link needs many bits, each contributing ``L/r`` to the
delay bound. Experiment E8 reproduces this effect against SRR and G-3.

Slot semantics under a work-conserving pull interface: slots whose owner
has no packet are offered to best-effort flows (weight 0); if nothing is
eligible the scan advances at zero cost. With a saturated link (all E8
runs) this coincides with the slotted model.
"""

from __future__ import annotations

from typing import ClassVar, Deque, Dict, Hashable, List, Optional, Tuple

from collections import deque

from ..core.errors import AdmissionError, ConfigurationError, InvalidWeightError
from ..core.flow import FlowState
from ..core.interfaces import FlowTableScheduler
from ..core.packet import Packet
from .pwbt import PWBTAllocator

__all__ = ["RRRScheduler"]


class RRRScheduler(FlowTableScheduler):
    """Recursive Round Robin over a ``2^g``-slot Weighted Binary Tree.

    Args:
        capacity: Slots per round; must be a power of two (the paper
            normalises the link rate to 1 and codes weights as ``g``-bit
            binary fractions, which is the same thing).

    Weights are integer slot counts (``weight / capacity`` of the link);
    a weight of 0 registers a best-effort flow served in idle slots.
    """

    name: ClassVar[str] = "rrr"
    requires_integer_weights: ClassVar[bool] = False  # validated manually
    supports_zero_weight: ClassVar[bool] = True

    def __init__(self, capacity: int = 256, **kwargs) -> None:
        super().__init__(**kwargs)
        if capacity < 1 or capacity & (capacity - 1):
            raise ConfigurationError(
                f"RRR capacity must be a power of two, got {capacity}"
            )
        self.capacity = capacity
        self.depth = capacity.bit_length() - 1
        self.tree = PWBTAllocator(self.depth)
        # flip[(level, index)] for intermediate nodes, default 0.
        self._flip: Dict[Tuple[int, int], int] = {}
        # flow_id -> list of (offset, exponent) blocks.
        self._blocks: Dict[Hashable, List[Tuple[int, int]]] = {}
        self._best_effort: Deque[Hashable] = deque()

    # -- flow management ---------------------------------------------------

    def add_flow(
        self,
        flow_id: Hashable,
        weight: float = 1,
        *,
        max_queue: Optional[int] = None,
    ) -> None:
        if isinstance(weight, bool) or not isinstance(weight, int):
            raise InvalidWeightError(
                f"RRR weights are integer slot counts, got {weight!r}"
            )
        if weight < 0:
            raise InvalidWeightError(f"weight must be >= 0, got {weight}")
        if weight > self.capacity:
            raise AdmissionError(
                f"weight {weight} exceeds round capacity {self.capacity}"
            )
        super().add_flow(flow_id, max(weight, 1), max_queue=max_queue)
        flow = self._flows[flow_id]
        flow.weight = weight  # restore 0 for best-effort flows
        if weight == 0:
            self._best_effort.append(flow_id)
            return
        blocks: List[Tuple[int, int]] = []
        try:
            for e in _set_bits_descending(weight):
                offset = self.tree.allocate(e, flow_id)
                blocks.append((offset, e))
        except AdmissionError:
            for offset, e in blocks:
                self.tree.free(offset, e)
            self._forget(flow)
            raise
        self._blocks[flow_id] = blocks

    def _on_flow_removed(self, flow: FlowState) -> None:
        for offset, e in self._blocks.pop(flow.flow_id, []):
            self.tree.free(offset, e)
        try:
            self._best_effort.remove(flow.flow_id)
        except ValueError:
            pass

    # -- scheduling --------------------------------------------------------

    def dequeue(self) -> Optional[Packet]:
        if self._backlog_packets == 0:
            return None
        # A full round of slots is guaranteed to reach every allocated
        # flow; +1 slack for the best-effort path.
        for _ in range(self.capacity + 1):
            owner = self._walk_one_slot()
            packet = self._serve_slot(owner)
            if packet is not None:
                return packet
        return None  # unreachable while backlog > 0; defensive

    def _walk_one_slot(self) -> Optional[Hashable]:
        """One root-to-allocation flip-bit walk (Fig. 2); O(depth) ops."""
        ops = self._ops
        level, index = 0, 0
        tree = self.tree
        depth = self.depth
        while True:
            ops.bump()
            exponent = depth - level
            offset = index << exponent
            entry = tree.allocation_at(offset)
            if entry is not None and entry[0] == exponent:
                return entry[1]
            if tree.is_free_block(offset, exponent):
                return None  # idle slot
            if level == depth:
                return None  # fully split but leaf unallocated (transient)
            key = (level, index)
            flip = self._flip.get(key, 0)
            self._flip[key] = flip ^ 1
            index = 2 * index + flip
            level += 1

    def _serve_slot(self, owner: Optional[Hashable]) -> Optional[Packet]:
        """Serve the slot's owner if backlogged, else best-effort traffic."""
        if owner is not None:
            flow = self._flows.get(owner)
            if flow is not None and flow.queue:
                return self._account_departure(flow.take())
        # Idle slot (or owner idle): round-robin over best-effort flows.
        be = self._best_effort
        for _ in range(len(be)):
            fid = be[0]
            be.rotate(-1)
            flow = self._flows.get(fid)
            if flow is not None and flow.queue:
                return self._account_departure(flow.take())
        return None

    # -- introspection -----------------------------------------------------

    def slot_sequence(self, count: int) -> List[Optional[Hashable]]:
        """The next ``count`` slot owners (None = idle); advances flips.

        Diagnostic mirror of the paper's Fig. 1 output line.
        """
        return [self._walk_one_slot() for _ in range(count)]

    @property
    def reserved_slots(self) -> int:
        """Currently allocated slots per round."""
        return self.tree.allocated_slots


def _set_bits_descending(value: int) -> List[int]:
    bits = []
    b = value.bit_length() - 1
    while value:
        if value >> b & 1:
            bits.append(b)
            value ^= 1 << b
        b -= 1
    return bits
