"""Packet-lifecycle tracing: a bounded ring buffer of typed events.

A :class:`Tracer` records what happened to packets as they crossed the
simulated network: ``enqueue`` (packet accepted by an output port),
``drop`` (buffer or per-flow queue full), ``sched_decision`` (the
scheduler was asked for the next packet — the O(1)-critical call),
``dequeue`` (a packet was selected; carries the queueing wait), and
``transmit`` (the last bit left the line). Emit points live in
:class:`~repro.net.port.OutputPort`; the engine's existing
``callback_hook`` seam can feed ``sim_event`` records for slow callbacks
via :meth:`Tracer.engine_hook`.

The buffer is a fixed-capacity ring (``collections.deque(maxlen=...)``):
memory stays bounded on arbitrarily long runs, the newest ``capacity``
events survive, and :attr:`Tracer.dropped` says how many were
overwritten. Events export as JSONL — one self-describing object per
line — for offline analysis (``--trace`` on the bench CLI).

Like the metrics registry, tracing is free when off: ports capture the
process-wide active tracer (:func:`get_tracer`) at construction, and a
``None`` tracer costs one attribute read per packet.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, TextIO, Union

__all__ = [
    "EVENT_KINDS",
    "Tracer",
    "get_tracer",
    "set_tracer",
]

#: The typed event vocabulary (meta events like ``sim_event`` ride along).
#: ``fault`` records an injected fault firing (link flap, churn, burst,
#: malformed packet) from :mod:`repro.faults`.
EVENT_KINDS = (
    "enqueue", "dequeue", "transmit", "drop", "sched_decision", "fault",
)


class Tracer:
    """Bounded ring buffer of packet-lifecycle events.

    Args:
        capacity: Maximum events retained; older events are overwritten
            (FIFO). The default keeps ~5 MB of events at worst.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.emitted = 0

    # -- recording ---------------------------------------------------------

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        """Record one event at simulation time ``t``.

        ``fields`` are free-form but conventionally include ``port``,
        ``flow``, ``uid`` and ``size``; ``None`` values are dropped so
        lines stay compact.
        """
        event = {"t": t, "kind": kind}
        for key, value in fields.items():
            if value is not None:
                event[key] = value
        self._events.append(event)
        self.emitted += 1

    def engine_hook(
        self, threshold_s: float = 0.0
    ) -> Callable[[Any, float], None]:
        """A :attr:`Simulator.callback_hook` adapter.

        Install the returned callable on a simulator to record a
        ``sim_event`` trace entry for every callback slower than
        ``threshold_s`` real seconds — the profiling seam the engine
        already pays for, turned into trace records.
        """

        def hook(event: Any, elapsed: float) -> None:
            if elapsed >= threshold_s:
                self.emit(
                    "sim_event",
                    event.time,
                    fn=getattr(event.fn, "__qualname__", repr(event.fn)),
                    elapsed_s=elapsed,
                )

        return hook

    # -- reading -----------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events overwritten by the ring (emitted - retained)."""
        return self.emitted - len(self._events)

    def events(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Retained events in emission order, optionally one kind only."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e["kind"] == kind]

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.emitted = 0

    # -- export ------------------------------------------------------------

    def write_jsonl(self, dest: Union[str, TextIO]) -> int:
        """Write retained events as JSON Lines; returns the line count.

        ``dest`` is a path or an open text file. Keys keep emission
        order (``t``/``kind`` first), values are plain JSON scalars.
        Path destinations are written atomically (tmp + ``os.replace``)
        so a killed run never leaves a truncated trace file behind.
        """
        if isinstance(dest, str):
            from ..harness.io import atomic_write_text

            lines = [json.dumps(event) for event in self._events]
            atomic_write_text(dest, "\n".join(lines) + "\n" if lines else "")
            return len(lines)
        n = 0
        for event in self._events:
            dest.write(json.dumps(event) + "\n")
            n += 1
        return n

    @staticmethod
    def read_jsonl(source: Union[str, TextIO]) -> List[Dict[str, Any]]:
        """Load events previously written by :meth:`write_jsonl`.

        Tolerates a truncated *final* line (the signature of a process
        killed mid-append when the file was written incrementally) by
        dropping it; garbage anywhere earlier raises a structured
        :class:`~repro.core.errors.ArtifactError` rather than leaking a
        bare ``JSONDecodeError``.
        """
        if isinstance(source, str):
            with open(source) as fh:
                return Tracer.read_jsonl(fh)
        from ..core.errors import ArtifactError

        lines = [line for line in source if line.strip()]
        events: List[Dict[str, Any]] = []
        for i, line in enumerate(lines):
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if i == len(lines) - 1:
                    break  # truncated tail from a killed writer: drop it
                raise ArtifactError(
                    f"trace line {i + 1} is not valid JSON: {exc}"
                ) from exc
        return events

    def __repr__(self) -> str:
        return (
            f"Tracer(capacity={self.capacity}, retained={len(self._events)}, "
            f"emitted={self.emitted})"
        )


#: The process-wide active tracer (None = tracing off).
_active: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The active tracer new ports pick up, or ``None`` when off."""
    return _active


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or with ``None`` remove) the active tracer; returns the
    previous one so callers can restore it."""
    global _active
    previous = _active
    _active = tracer
    return previous
