"""Discrete-event simulation engine (the core of the ns-2 replacement).

A :class:`Simulator` owns a priority queue of timestamped events. Model
components (links, ports, traffic sources) schedule callbacks; ``run``
drains the queue in time order. Determinism: events at identical times
fire in scheduling order (a monotonically increasing sequence number
breaks ties), so simulations are exactly reproducible.

Times are floats in seconds. The engine is deliberately minimal — no
processes/coroutines — because packet-level models are naturally
callback-shaped and this keeps the hot loop fast in pure Python.

Event-queue backends: the queue is pluggable (:mod:`repro.net.eventq`).
The default is the O(1)-amortised :class:`~repro.net.eventq.CalendarQueue`
(ns-2's own choice of event list); ``Simulator(queue="heap")`` restores
the seed's binary-heap behaviour. Both pop in exactly ``(time, seq)``
order, so the backend cannot change simulation results — only wall time.

Observability: the engine keeps cheap counters (events processed,
cancelled events reaped, maximum queue depth, cumulative wall time inside
``run``) exposed together by :meth:`Simulator.stats` along with the
backend kind, and supports an optional per-callback timing hook
(:attr:`Simulator.callback_hook`) for profiling which model components
dominate a run. The hot loop pays one ``is not None`` branch per event
when the hook is unset; the attribute itself is read once per ``run()``
call, so installing a hook mid-run (from inside a callback) takes effect
on the next ``run()``. Pending-event accounting distinguishes
:attr:`Simulator.pending_events` (queued entries, including cancelled
ones not yet reaped) from :attr:`Simulator.pending_live` (events that
will actually fire).
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable, Dict, Optional, Union

from ..core.errors import SimulationError
from ..obs.telemetry import get_telemetry as _get_telemetry
from .eventq import CalendarQueue, HeapQueue, make_queue

__all__ = ["Event", "Simulator"]

_EventQueue = Union[HeapQueue, CalendarQueue]


class Event:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable,
        args: tuple,
        sim: "Optional[Simulator]" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Back-reference for live-event accounting; cleared when the
        # event fires or is cancelled, so cancel-after-fire stays a no-op.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._cancelled_pending += 1

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.9f}, seq={self.seq}{state})"


class Simulator:
    """Deterministic discrete-event scheduler.

    Args:
        queue: Event-queue backend — a kind name (``"heap"`` /
            ``"calendar"``), an already-built queue object, or ``None``
            for the process default (the ``REPRO_ENGINE`` environment
            variable, else the calendar queue).
    """

    def __init__(self, queue: Union[None, str, _EventQueue] = None) -> None:
        if queue is None or isinstance(queue, str):
            queue = make_queue(queue)
        self._queue: _EventQueue = queue
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._cancelled_reaped = 0
        # Cancelled events still sitting in the queue: pending_live is
        # pending_events minus this (no per-fire bookkeeping needed).
        self._cancelled_pending = 0
        self._max_heap_depth = 0
        self._wall_time = 0.0
        self._running = False
        #: Optional per-callback timing hook: called as
        #: ``hook(event, elapsed_seconds)`` after each event fires.
        #: Intended for profiling; adds two clock reads per event.
        self.callback_hook: Optional[Callable[[Event, float], None]] = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def queue_kind(self) -> str:
        """The event-queue backend in use (``"heap"`` / ``"calendar"``)."""
        return self._queue.kind

    @property
    def events_processed(self) -> int:
        """Number of events fired so far."""
        return self._events_processed

    @property
    def cancelled_reaped(self) -> int:
        """Cancelled events discarded (not fired) by ``run`` so far."""
        return self._cancelled_reaped

    @property
    def max_heap_depth(self) -> int:
        """High-water mark of the event queue length."""
        return self._max_heap_depth

    @property
    def wall_time_s(self) -> float:
        """Cumulative real seconds spent inside ``run`` calls."""
        return self._wall_time

    @property
    def pending_events(self) -> int:
        """Events still queued (including cancelled ones not yet reaped)."""
        return self._queue.size

    @property
    def pending_live(self) -> int:
        """Events still queued that will actually fire (not cancelled)."""
        return self._queue.size - self._cancelled_pending

    def stats(self) -> Dict[str, Any]:
        """All observability counters in one summable dict.

        Values are numeric except ``queue_kind`` (the backend name, which
        lands verbatim in the ``engine`` artifact block).
        """
        stats: Dict[str, Any] = {
            "events_processed": self._events_processed,
            "cancelled_reaped": self._cancelled_reaped,
            "max_heap_depth": self._max_heap_depth,
            "sim_wall_time_s": self._wall_time,
            "pending_events": self._queue.size,
            "pending_live": self._queue.size - self._cancelled_pending,
            "queue_kind": self._queue.kind,
        }
        stats.update(self._queue.stats())
        return stats

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        event = Event(time, self._seq, fn, args, self)
        self._seq += 1
        queue = self._queue
        queue.push(event)
        if queue.size > self._max_heap_depth:
            self._max_heap_depth = queue.size
        return event

    def reschedule(self, event: Event, delay: float) -> Event:
        """Re-arm a **fired** event ``delay`` seconds from now, in place.

        Components that keep exactly one event in flight at a time (e.g.
        an output port's transmit-complete) can recycle the same
        :class:`Event` object instead of allocating a fresh one per
        packet. The event is re-queued with a fresh sequence number from
        the same counter :meth:`schedule` uses, so results are
        bit-identical to allocating a new event.

        Only an event that has already fired may be re-armed: a pending
        or cancelled-pending event still sits inside the queue, and
        mutating it there would corrupt the queue order (a cancelled
        event cannot be distinguished from a reaped one, so cancelled
        events are never reusable).
        """
        if event._sim is not None or event.cancelled:
            raise SimulationError(
                f"cannot reschedule {event!r}: only an event that has "
                "already fired (and was never cancelled) may be reused"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event.time = self._now + delay
        event.seq = self._seq
        self._seq += 1
        event._sim = self
        queue = self._queue
        queue.push(event)
        if queue.size > self._max_heap_depth:
            self._max_heap_depth = queue.size
        return event

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events in time order.

        Args:
            until: Stop once the next event is later than this time (the
                clock is left at ``until``; an event at exactly ``until``
                still fires). ``None`` runs to exhaustion.
            max_events: Safety valve against runaway models.

        Returns:
            The number of events processed by this call.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        processed = 0
        queue = self._queue
        # Pre-bound method locals: the loop below runs once per event, so
        # every attribute lookup hoisted out of it is measurable.
        pop = queue.pop
        peek = queue.peek
        # The hook is read once per run() call, not per event — this is
        # the documented "one branch per event" cost. Installing a hook
        # from inside a callback takes effect on the next run().
        hook = self.callback_hook
        # Live telemetry (sweep workers set REPRO_TELEMETRY): heartbeat
        # every 8192 events from the bounded loop. The fast-drain loop
        # stays untouched — a telemetry writer simply routes runs through
        # the general loop, whose per-event cost for the masked check is
        # one AND plus a predictable branch.
        tele = _get_telemetry()
        perf_counter = _time.perf_counter
        wall_start = perf_counter()
        try:
            if until is None and max_events is None and hook is None \
                    and tele is None:
                # The common full-drain case: no bound checks per event.
                while queue.size:
                    event = pop()
                    if event.cancelled:
                        self._cancelled_reaped += 1
                        self._cancelled_pending -= 1
                        continue
                    self._now = event.time
                    event._sim = None
                    event.fn(*event.args)
                    processed += 1
                self._events_processed += processed
            else:
                while queue.size:
                    event = peek()
                    if until is not None and event.time > until:
                        break
                    pop()
                    if event.cancelled:
                        self._cancelled_reaped += 1
                        self._cancelled_pending -= 1
                        continue
                    self._now = event.time
                    event._sim = None
                    if hook is None:
                        event.fn(*event.args)
                    else:
                        t0 = perf_counter()
                        event.fn(*event.args)
                        hook(event, perf_counter() - t0)
                    processed += 1
                    self._events_processed += 1
                    if not processed & 8191 and tele is not None:
                        tele.heartbeat(
                            kind="engine",
                            events=self._events_processed,
                            sim_time=self._now,
                        )
                    if max_events is not None and processed >= max_events:
                        break
        finally:
            self._running = False
            self._wall_time += perf_counter() - wall_start
        if until is not None and self._now < until:
            self._now = until
        return processed

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self._now:.6f}, pending={self._queue.size}, "
            f"queue={self._queue.kind}, processed={self._events_processed})"
        )
