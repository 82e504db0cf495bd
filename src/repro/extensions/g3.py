"""G-3 — the author's follow-on scheduler combining SRR's WSS with RRR's
trees (implemented here as a clearly-labelled *extension*; the primary
contribution of this repository is SRR).

Construction (Section III-D of the supplied text):

* the link capacity ``C`` (in unit slots per round) is written in binary;
  its coefficients form the Square Weight Matrix (SWM) — at most one flow
  of weight ``2^i`` per column, here simply the bitmask of ``C``;
* for every set bit ``n_i`` of ``C`` there is a Perfect Weighted Binary
  Tree of depth ``n_i`` (:class:`~repro.extensions.pwbt.PWBTAllocator`)
  whose ``2^(n_i)`` leaves are unit time-slots, spread into a Time-Slot
  Array (:class:`~repro.extensions.tarray.TimeSlotArray`) by the
  bit-reversal Time-Slot Sequence;
* scheduling scans ``WSS^k`` (``k = ⌊log2 C⌋ + 1``): term value ``v``
  selects SWM column ``i = k - v``; if bit ``i`` of ``C`` is set, the next
  entry of ``TArray^i`` names the flow to serve, and the per-array pointer
  advances. One array read per slot — O(1), unlike RRR's O(depth) walk.

Delay: every single-bit reservation ``2^e`` placed in tree ``n`` recurs
with perfect period ``C / 2^e`` slots (Lemma 5 + Lemma 6), giving the
N-independent bound of Theorem 2 — the property SRR alone lacks.

Flow admission allocates one tree block per set bit of the flow's weight
(``Add_flow``), failing with :class:`~repro.core.errors.AdmissionError`
when fragmentation or exhaustion prevents it. ``defragment()`` implements
the paper's *Shaping* goal (at most one free block per size class) as an
atomic compaction pass: blocks are re-packed and the TArrays rewritten
between slots. The paper instead interleaves relocation with scheduling
("swapping" after a marked node's visit) to avoid a pause; at simulation
granularity the two are behaviourally equivalent, and the low-level
single-block relocation primitive is available and tested separately
(:meth:`~repro.extensions.pwbt.PWBTAllocator.relocate`).

Slot semantics under the work-conserving pull interface: a slot whose
owner has no packet queued is offered to best-effort flows (registered
with weight 0 — the paper's ``f_0``); when nothing is eligible the scan
skips ahead at zero cost. On a saturated link (experiment E8) this is
exactly the paper's slotted behaviour.
"""

from __future__ import annotations

from collections import deque
from typing import ClassVar, Deque, Dict, Hashable, List, Optional, Tuple

from ..core.errors import (
    AdmissionError,
    ConfigurationError,
    InvalidWeightError,
)
from ..core.flow import FlowState
from ..core.interfaces import FlowTableScheduler
from ..core.packet import Packet
from .pwbt import PWBTAllocator
from .tarray import TimeSlotArray

__all__ = ["G3Scheduler"]


class _Tree:
    """One SWM column: a PWBT allocator plus its spread Time-Slot Array."""

    __slots__ = ("exponent", "allocator", "tarray", "pointer")

    def __init__(self, exponent: int, expanded_levels: Optional[int]) -> None:
        self.exponent = exponent
        self.allocator = PWBTAllocator(exponent)
        levels = exponent if expanded_levels is None else min(expanded_levels, exponent)
        self.tarray = TimeSlotArray(exponent, expanded_levels=levels)
        self.tarray.set_owner_lookup(self._leaf_owner)
        self.pointer = 0

    def _leaf_owner(self, leaf: int) -> Optional[Hashable]:
        return self.allocator.owner_at(leaf)


class G3Scheduler(FlowTableScheduler):
    """The G-3 packet scheduler (extension; see module docstring).

    Args:
        capacity: Link capacity in unit slots per WSS round. A flow of
            weight ``w`` is guaranteed ``w`` of every ``capacity`` slots.
        expanded_levels: Optional cap on TArray expansion depth (the
            space-time tradeoff of Section IV-B; ``None`` = fully
            expanded).
        auto_shape: Defragment-and-retry when an admission fails due to
            fragmentation rather than exhaustion.
    """

    name: ClassVar[str] = "g3"
    requires_integer_weights: ClassVar[bool] = False  # validated manually
    supports_zero_weight: ClassVar[bool] = True

    def __init__(
        self,
        capacity: int = 255,
        *,
        expanded_levels: Optional[int] = None,
        auto_shape: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not isinstance(capacity, int) or capacity < 1:
            raise ConfigurationError(
                f"capacity must be a positive integer, got {capacity!r}"
            )
        self.capacity = capacity
        self.order = capacity.bit_length()  # the paper's k
        self.auto_shape = auto_shape
        # One tree per set bit of C, keyed by SWM column (bit position).
        self.trees: Dict[int, _Tree] = {
            e: _Tree(e, expanded_levels)
            for e in range(self.order)
            if capacity >> e & 1
        }
        self._wss_position = 0
        # flow_id -> list of (column, offset, exponent) slot blocks.
        self._blocks: Dict[Hashable, List[Tuple[int, int, int]]] = {}
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
                f"G-3 weights are integer slot counts, got {weight!r}"
            )
        if weight < 0:
            raise InvalidWeightError(f"weight must be >= 0, got {weight}")
        super().add_flow(flow_id, max(weight, 1), max_queue=max_queue)
        flow = self._flows[flow_id]
        flow.weight = weight  # restore 0 for best-effort flows
        if weight == 0:
            self._best_effort.append(flow_id)
            return
        try:
            self._blocks[flow_id] = self._allocate_weight(flow_id, weight)
        except AdmissionError:
            self._forget(flow)
            raise

    def _allocate_weight(
        self, flow_id: Hashable, weight: int
    ) -> List[Tuple[int, int, int]]:
        blocks: List[Tuple[int, int, int]] = []
        try:
            for e in _set_bits_descending(weight):
                placed = self._allocate_block(flow_id, e)
                if placed is None and self.auto_shape:
                    self.shape()
                    placed = self._allocate_block(flow_id, e)
                if placed is None:
                    raise AdmissionError(
                        f"cannot reserve 2^{e} slots for flow {flow_id!r} "
                        f"(capacity {self.capacity}, "
                        f"free {self.free_slots} slots)"
                    )
                blocks.append(placed)
        except AdmissionError:
            for column, offset, exp in blocks:
                self._release_block(column, offset, exp)
            raise
        return blocks

    def _allocate_block(
        self, flow_id: Hashable, exponent: int
    ) -> Optional[Tuple[int, int, int]]:
        """Best-fit a ``2^exponent`` block across the trees; None if full."""
        best: Optional[Tuple[int, int]] = None  # (smallest fit exponent, column)
        for column, tree in self.trees.items():
            if exponent > tree.exponent:
                continue
            for e in range(exponent, tree.exponent + 1):
                if tree.allocator.free_blocks(e):
                    if best is None or e < best[0]:
                        best = (e, column)
                    break
        if best is None:
            return None
        column = best[1]
        tree = self.trees[column]
        offset = tree.allocator.allocate(exponent, flow_id)
        tree.tarray.write_block(offset, exponent, flow_id)
        return (column, offset, exponent)

    def _release_block(self, column: int, offset: int, exponent: int) -> None:
        tree = self.trees[column]
        tree.allocator.free(offset, exponent)
        tree.tarray.write_block(offset, exponent, None)

    def _on_flow_removed(self, flow: FlowState) -> None:
        for column, offset, exponent in self._blocks.pop(flow.flow_id, []):
            self._release_block(column, offset, exponent)
        try:
            self._best_effort.remove(flow.flow_id)
        except ValueError:
            pass

    def shape_step(self) -> bool:
        """One incremental *Shaping* move (the paper's Fig. 6).

        Finds a size class with two free blocks, empties the buddy of one
        onto the other (relocating whatever allocations live there, with
        their Time-Slot Array entries), and lets the vacated buddy merge.
        Returns True when a move was performed, False when every size
        class already has at most one free block (the shaped state).

        The paper defers the swap until the marked node's next visit so
        the swapped flow is never worse off; performed atomically between
        slots (as here) the service perturbation is at most one slot at
        simulation granularity.
        """
        for e in range(self.order):
            donors = []
            receivers = []
            for column, tree in self.trees.items():
                if e > tree.exponent:
                    continue
                for off in tree.allocator.free_blocks(e):
                    receivers.append((column, off))
                    if e < tree.exponent:  # root blocks have no buddy
                        donors.append((column, off))
            if len(receivers) < 2 or not donors:
                continue
            src_col, src_free = donors[0]
            dst_col, dst_off = next(
                r for r in receivers if r != (src_col, src_free)
            )
            buddy = src_free ^ (1 << e)
            src_tree = self.trees[src_col]
            dst_tree = self.trees[dst_col]
            contents = src_tree.allocator.extract_region(buddy, e)
            dst_tree.allocator.implant_region(dst_off, e, contents)
            src_tree.tarray.write_block(buddy, e, None)
            for rel, sub_e, owner in contents:
                dst_tree.tarray.write_block(dst_off + rel, sub_e, owner)
                self._update_block_record(
                    owner,
                    (src_col, buddy + rel, sub_e),
                    (dst_col, dst_off + rel, sub_e),
                )
            return True
        return False

    def shape(self, max_steps: int = 10_000) -> int:
        """Run :meth:`shape_step` to quiescence; returns moves performed.

        Terminates because every move merges two free blocks of a size
        class into one of the next (the total free-block count strictly
        decreases)."""
        steps = 0
        while steps < max_steps and self.shape_step():
            steps += 1
        return steps

    def _update_block_record(self, owner, old, new) -> None:
        blocks = self._blocks.get(owner)
        if blocks is None:
            raise AssertionError(f"moved block of unknown flow {owner!r}")
        blocks[blocks.index(old)] = new

    def defragment(self) -> None:
        """Compact all reservations (the paper's *Shaping* objective).

        Frees every block and re-packs flows largest-block-first with
        best-fit placement, rewriting the Time-Slot Arrays. Afterwards at
        most one free block of each size class exists, so any reservation
        that fits in the free capacity is admissible.
        """
        flows = sorted(
            self._blocks,
            key=lambda fid: int(self._flows[fid].weight),
            reverse=True,
        )
        for fid in flows:
            for column, offset, exponent in self._blocks[fid]:
                self._release_block(column, offset, exponent)
            self._blocks[fid] = []
        for fid in flows:
            weight = int(self._flows[fid].weight)
            blocks = []
            for e in _set_bits_descending(weight):
                placed = self._allocate_block(fid, e)
                if placed is None:  # cannot happen: same demand as before
                    raise AdmissionError(
                        f"defragmentation failed to re-place flow {fid!r}"
                    )
                blocks.append(placed)
            self._blocks[fid] = blocks

    # -- scheduling --------------------------------------------------------

    def dequeue(self) -> Optional[Packet]:
        if self._backlog_packets == 0:
            return None
        ops = self._ops
        order = self.order
        length = (1 << order) - 1
        # One full WSS round visits every reserved slot and offers every
        # idle slot to best-effort traffic, so it must find a packet.
        for _ in range(length + 1):
            position = self._wss_position + 1
            if position > length:
                position = 1
            self._wss_position = position
            ops.bump()
            column = order - (position & -position).bit_length()
            tree = self.trees.get(column)
            if tree is None:
                continue  # SWM coefficient a_column == 0
            owner = tree.tarray.owner(tree.pointer)
            tree.pointer = (tree.pointer + 1) % (1 << column) if column else 0
            ops.bump()
            packet = self._serve_slot(owner)
            if packet is not None:
                return packet
        return None  # unreachable while backlog > 0; defensive

    def _serve_slot(self, owner: Optional[Hashable]) -> Optional[Packet]:
        if owner is not None:
            flow = self._flows.get(owner)
            if flow is not None and flow.queue:
                return self._account_departure(flow.take())
        # idle_sched: grant the slot to best-effort traffic.
        be = self._best_effort
        for _ in range(len(be)):
            fid = be[0]
            be.rotate(-1)
            flow = self._flows.get(fid)
            if flow is not None and flow.queue:
                return self._account_departure(flow.take())
        return None

    # -- introspection -----------------------------------------------------

    @property
    def free_slots(self) -> int:
        """Unreserved unit slots per round."""
        return sum(t.allocator.free_slots for t in self.trees.values())

    @property
    def reserved_slots(self) -> int:
        """Reserved unit slots per round."""
        return self.capacity - self.free_slots

    def slot_sequence(self, count: int) -> List[Optional[Hashable]]:
        """Next ``count`` slot owners (None = idle slot), advancing the
        scan exactly as ``dequeue`` would; diagnostic mirror of the
        paper's Section III-C service line."""
        out: List[Optional[Hashable]] = []
        order = self.order
        length = (1 << order) - 1
        while len(out) < count:
            position = self._wss_position + 1
            if position > length:
                position = 1
            self._wss_position = position
            column = order - (position & -position).bit_length()
            tree = self.trees.get(column)
            if tree is None:
                continue
            owner = tree.tarray.owner(tree.pointer)
            tree.pointer = (tree.pointer + 1) % (1 << column) if column else 0
            out.append(owner)
        return out

    def check_invariants(self) -> None:
        """Cross-check allocators against TArrays (test helper)."""
        for column, tree in self.trees.items():
            tree.allocator.check_invariants()
            for position in range(1 << column):
                expected = None
                leaf = _reverse_bits(position, column)
                expected = tree.allocator.owner_at(leaf)
                actual = tree.tarray.owner(position)
                if actual != expected:
                    raise AssertionError(
                        f"TArray^{column}[{position}] = {actual!r}, "
                        f"allocator says {expected!r}"
                    )


def _set_bits_descending(value: int) -> List[int]:
    bits = []
    b = value.bit_length() - 1
    while value:
        if value >> b & 1:
            bits.append(b)
            value ^= 1 << b
        b -= 1
    return bits


def _reverse_bits(value: int, width: int) -> int:
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result
