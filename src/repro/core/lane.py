"""The scalar lane of SRR and DRR, and their flight-armed twins.

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

Flight recording
----------------
Arming a :class:`~repro.obs.flight.FlightRecorder` swaps the instance
onto a cached *armed twin* subclass (:func:`flight_twin`) whose
``push``/``pull``/``pull_batch``/``enqueue``/``dequeue`` wrap the bare
methods with sampling. The bare classes contain no recorder code at
all. Swapping the class, rather than shadowing methods in the instance
``__dict__``, keeps every ``self.x`` load of the armed instance on
CPython's shared-keys fast path. When a process-wide recorder is armed
(``REPRO_FLIGHT``), instances are *born* as the twin in ``__new__``;
assigning ``__class__`` later is the ``FlightRecorder.arm`` path.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, List, Optional, Tuple

from ..obs.flight import KIND_PULL, KIND_PUSH, get_flight_recorder

__all__ = ["ScalarLane", "flight_twin"]

#: One scalar-lane item: ``(slot, size, ref)``.
Item = Tuple[int, int, Any]


class ScalarLane:
    """Mixin giving a :class:`~repro.core.interfaces.FlowTableScheduler`
    subclass the scalar lane. Subclasses implement :meth:`pull`."""

    #: The armed recorder. ``None`` as a *class* attribute, so bare
    #: instances carry nothing per instance.
    _flight: ClassVar[Optional[Any]] = None
    #: On an armed twin class, the bare class it derives from.
    _flight_base: ClassVar[Optional[type]] = None

    def __new__(cls, *args: Any, **kwargs: Any) -> "ScalarLane":
        recorder = get_flight_recorder()
        if recorder is None or cls._flight_base is not None:
            return super().__new__(cls)
        self = super().__new__(flight_twin(cls))
        self._flight = recorder
        return self

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

    def _arm_flight(self, recorder: Any) -> None:
        """Attach ``recorder`` by swapping onto the armed twin class."""
        self._flight = recorder
        self.__class__ = flight_twin(type(self))


# -- flight-armed twin classes -------------------------------------------------


def _record(recorder: Any, kind: int, flow: Any, size: int,
            ops: int = 0, terms: int = 0) -> None:
    recorder.record(kind, flow.slot, size, ops, terms, flow.deficit,
                    len(flow.queue))


def _twin_namespace(cls: type) -> Dict[str, Any]:
    """Sampling wrappers over ``cls``'s two lanes.

    Each operation bumps the recorder's counter; one in ``2**shift``
    stores a record. A sampled serve brackets the bare call with op and
    WSS-term baselines, so its record carries that one packet's cost.
    """
    bare_push, bare_pull = cls.push, cls.pull
    bare_enqueue, bare_dequeue = cls.enqueue, cls.dequeue

    def push(self, slot: int, size: int, ref: Any = None) -> bool:
        if not bare_push(self, slot, size, ref):
            return False
        recorder = self._flight
        recorder.n = n = recorder.n + 1
        if not n & recorder.mask:
            _record(recorder, KIND_PUSH, self._slots[slot], size)
        return True

    def enqueue(self, packet: Any) -> bool:
        if not bare_enqueue(self, packet):
            return False
        recorder = self._flight
        recorder.n = n = recorder.n + 1
        if not n & recorder.mask:
            _record(recorder, KIND_PUSH, self._flows[packet.flow_id],
                    packet.size)
        return True

    def pull(self) -> Optional[Item]:
        recorder = self._flight
        recorder.n = n = recorder.n + 1
        if n & recorder.mask:
            return bare_pull(self)
        ops, terms = self._ops.count, getattr(self, "terms_scanned", 0)
        item = bare_pull(self)
        if item is not None:
            _record(recorder, KIND_PULL, self._slots[item[0]], item[1],
                    self._ops.count - ops,
                    getattr(self, "terms_scanned", 0) - terms)
        return item

    def dequeue(self) -> Any:
        recorder = self._flight
        recorder.n = n = recorder.n + 1
        if n & recorder.mask:
            return bare_dequeue(self)
        ops, terms = self._ops.count, getattr(self, "terms_scanned", 0)
        packet = bare_dequeue(self)
        if packet is not None:
            _record(recorder, KIND_PULL, self._flows[packet.flow_id],
                    packet.size, self._ops.count - ops,
                    getattr(self, "terms_scanned", 0) - terms)
        return packet

    return {
        "_flight_base": cls,
        "push": push,
        "pull": pull,
        # The per-pull loop, so every batch item crosses the sampled pull
        # (replacing any fused batch loop of the bare class).
        "pull_batch": ScalarLane.pull_batch,
        "enqueue": enqueue,
        "dequeue": dequeue,
        "__module__": cls.__module__,
    }


#: Bare class -> its armed twin.
_FLIGHT_TWINS: Dict[type, type] = {}


def flight_twin(cls: type) -> type:
    """The flight-armed twin of ``cls`` (cached; a twin maps to itself)."""
    if cls._flight_base is not None:
        return cls
    twin = _FLIGHT_TWINS.get(cls)
    if twin is None:
        twin = _FLIGHT_TWINS[cls] = type(
            "_Flight" + cls.__name__, (cls,), _twin_namespace(cls)
        )
    return twin
