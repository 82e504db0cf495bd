"""The simulation engine's event queue: a calendar queue.

The :class:`~repro.net.engine.Simulator` hot loop is one queue pop per
event, so the queue's constant factors dominate every experiment's wall
time. :class:`CalendarQueue` is a calendar queue in the spirit of
Brown's O(1) priority queue (CACM 1988), the structure ns-2 itself uses
for its event list — the event-engine analogue of the paper's O(1)
scheduling story. Events are hashed by time into width-``w`` buckets
("days"); the current bucket is sorted once (a C-level sort of plain
tuples) and drained by index, so the steady-state cost per event is one
list append plus an amortised share of one C sort — no per-comparison
Python calls at all. The bucket width adapts automatically to the
observed event density (see below).

Determinism contract
--------------------
The queue dequeues in exactly ``(time, seq)`` order: earlier times
first, and ties broken by scheduling order. The order is property-tested
against a sorted ``(time, seq)`` model (random times, ties,
cancellations, mid-run inserts, resizes, extreme times).

Calendar internals
------------------
Buckets are keyed by *epoch* ``int(time / width)`` in a dict, with a
small int-heap of occupied epochs, so sparse regions of the timeline
cost nothing (no empty-bucket scan, unlike the classic ring layout).
``pop`` drains a sorted "near" list (the promoted current epoch) by
index; events scheduled into the current epoch are placed by
``bisect.insort`` on plain ``(time, seq, event)`` tuples. Because float
division by a positive width is monotone, epoch assignment preserves
time order exactly, so the promoted minimum epoch always holds the
global minimum event.

Resizing: when a promoted bucket is oversized the width is recomputed
from that bucket's observed event density (one rebuild instead of
repeated halving); a long streak of near-empty promotions doubles the
width. Rebuilds only happen between epochs (the near list empty), which
is what keeps the near/far ordering invariant trivially true.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from .engine import Event

__all__ = ["CalendarQueue"]

#: Epoch used for times where ``int(time / width)`` overflows (inf). Must
#: sort after every finite epoch: the largest achievable one is
#: max_float / min_subnormal ~= 3.6e631 < 2^2100, so 2^2200 is safely
#: beyond it for any positive width.
_FAR_EPOCH = 1 << 2200

#: Initial bucket width in seconds of simulated time. The width
#: self-tunes, so this only matters for the first few promotions.
_INITIAL_WIDTH = 0.01
#: Desired events per bucket; the resize rules steer the observed bucket
#: occupancy towards this.
_TARGET_PER_BUCKET = 16
#: A promoted bucket larger than this triggers a width recomputation
#: (shrink) from its measured density.
_RESIZE_HI = 512
#: This many consecutive near-empty promotions double the width.
_WIDEN_STREAK = 64
#: Clamps for the adaptive width.
_MIN_WIDTH = 1e-12
_MAX_WIDTH = 1e6


class CalendarQueue:
    """Calendar queue: O(1) amortised enqueue/dequeue, width-adaptive."""

    #: perfbench's ``TracedQueue`` proxy copies this; ``repro`` never reads it.
    kind = "calendar"

    __slots__ = (
        "_width", "_near", "_head", "_far", "_epochs", "_cur_epoch",
        "size", "resizes", "_small_run",
    )

    def __init__(self) -> None:
        self._width = _INITIAL_WIDTH
        #: Sorted (time, seq, event) tuples of the current epoch,
        #: consumed from ``_head`` (index-pop; no O(n) list shifts).
        self._near: List[Tuple[float, int, "Event"]] = []
        self._head = 0
        #: epoch -> unsorted list of (time, seq, event) tuples.
        self._far: Dict[int, List[Tuple[float, int, "Event"]]] = {}
        #: Min-heap of occupied epochs (plain ints: C-speed sifts).
        self._epochs: List[int] = []
        #: Epoch covered by ``_near``; None until the first promotion.
        self._cur_epoch: Optional[int] = None
        self.size = 0
        #: Number of automatic width changes (observability).
        self.resizes = 0
        self._small_run = 0

    # -- core operations ----------------------------------------------------

    def push(self, event: "Event") -> None:
        t = event.time
        try:
            epoch = int(t / self._width)
        except (OverflowError, ValueError):
            epoch = _FAR_EPOCH
        cur = self._cur_epoch
        if cur is not None and epoch <= cur:
            # Lands in the epoch being drained: keep the remaining near
            # list sorted (C bisect on plain tuples; lo skips the
            # already-consumed prefix).
            insort(self._near, (t, event.seq, event), lo=self._head)
        else:
            bucket = self._far.get(epoch)
            if bucket is None:
                self._far[epoch] = bucket = [(t, event.seq, event)]
                heapq.heappush(self._epochs, epoch)
            else:
                bucket.append((t, event.seq, event))
        self.size += 1

    def pop(self) -> "Event":
        head = self._head
        if head >= len(self._near):
            self._promote()
            head = self._head
        item = self._near[head]
        head += 1
        # Compact the consumed prefix occasionally so a long-lived queue
        # does not pin every fired event's tuple.
        if head >= 1024 and head * 2 >= len(self._near):
            del self._near[:head]
            head = 0
        self._head = head
        self.size -= 1
        return item[2]

    def peek(self) -> Optional["Event"]:
        if self._head >= len(self._near):
            if not self._far:
                return None
            self._promote()
        return self._near[self._head][2]

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    # -- bucket management --------------------------------------------------

    def _promote(self) -> None:
        """Install the earliest occupied epoch as the near list.

        Caller guarantees at least one far bucket exists. Resizes happen
        only here — the near list is empty, so rehashing every pending
        event cannot break the near/far time ordering.
        """
        epoch = heapq.heappop(self._epochs)
        bucket = self._far.pop(epoch)
        n = len(bucket)
        if n > _RESIZE_HI:
            rewidth = self._density_width(bucket)
            if rewidth < self._width:
                self._rebuild(rewidth, bucket)
                epoch = heapq.heappop(self._epochs)
                bucket = self._far.pop(epoch)
                n = len(bucket)
        if n <= 2:
            self._small_run += 1
            if self._small_run >= _WIDEN_STREAK and self._width < _MAX_WIDTH:
                self._rebuild(min(self._width * 2.0, _MAX_WIDTH), bucket)
                epoch = heapq.heappop(self._epochs)
                bucket = self._far.pop(epoch)
        else:
            self._small_run = 0
        bucket.sort()
        self._near = bucket
        self._head = 0
        self._cur_epoch = epoch

    def _density_width(self, bucket: List[Tuple[float, int, "Event"]]) -> float:
        """Width putting ~``_TARGET_PER_BUCKET`` of this bucket's density
        in one bucket; clamped to guarantee an actual shrink."""
        lo = min(bucket)[0]
        hi = max(bucket)[0]
        span = hi - lo
        if span <= 0.0:
            # Simultaneous events cannot be split by any width.
            return self._width
        width = span * _TARGET_PER_BUCKET / len(bucket)
        return max(min(width, self._width / 2.0), _MIN_WIDTH)

    def _rebuild(
        self, width: float, extra: List[Tuple[float, int, "Event"]]
    ) -> None:
        """Re-hash every pending far item (plus ``extra``) under ``width``."""
        items = extra
        for bucket in self._far.values():
            items += bucket
        self._width = width
        self._far = far = {}
        self._cur_epoch = None
        self.resizes += 1
        self._small_run = 0
        for item in items:
            try:
                epoch = int(item[0] / width)
            except (OverflowError, ValueError):
                epoch = _FAR_EPOCH
            bucket = far.get(epoch)
            if bucket is None:
                far[epoch] = [item]
            else:
                bucket.append(item)
        self._epochs = list(far)
        heapq.heapify(self._epochs)

    # -- observability ------------------------------------------------------

    @property
    def width(self) -> float:
        """Current bucket width in seconds."""
        return self._width

    def stats(self) -> Dict[str, float]:
        """Queue observability counters (merged into the engine stats)."""
        return {"queue_resizes": self.resizes}

    def __repr__(self) -> str:
        return (
            f"CalendarQueue(pending={self.size}, width={self._width:.3g}, "
            f"buckets={len(self._far)}, resizes={self.resizes})"
        )

