"""A zero-allocation, sampling flight recorder for SRR and DRR.

The metrics registry, packet tracer and dequeue profiler hang off
``Packet`` instances and per-dequeue method calls. The scalar
``push``/``pull`` lane of SRR and DRR (:mod:`repro.core.lane`) has no
packets at all, so the :class:`FlightRecorder` observes both lanes of
those two schedulers from inside, at almost no cost:

* **Zero allocation while armed.** All storage is preallocated at
  construction: one Python list per record column (op kind, flow slot,
  packet size, elementary-op delta, WSS terms scanned, credit/deficit,
  queue occupancy, sim-time delta), each ``capacity`` long, written
  in-place at ``index & (capacity - 1)``. Recording overwrites the
  oldest record once the ring wraps, exactly like
  :class:`~repro.obs.trace.Tracer`'s bounded deque but with no
  per-event dict or tuple.

* **Power-of-two sampling.** Every instrumented operation increments a
  single counter ``n``; a record is stored only when ``n & mask == 0``
  where ``mask = 2**sample_shift - 1``. Armed overhead is therefore a
  counter bump plus one predictable branch per operation, and a masked
  store every ``2**sample_shift`` operations. ``sample_shift=0``
  records everything (exact per-dequeue op counts); the default shift
  of 6 (1-in-64) is what the perf gate budgets at <= 3% on the lean
  bottleneck replay.

* **Nothing at all when off.** Arming swaps the scheduler instance onto
  a cached *armed twin* subclass whose lane methods carry the sampling
  code (:func:`repro.core.lane.flight_twin`); the bare classes contain
  no recorder code whatsoever.

Recording is strictly *passive*: arming a recorder changes no service
decision, which the conformance corpus digest check in CI enforces
bit-for-bit.

Process-global arming mirrors the tracer/registry pattern
(:func:`get_flight_recorder` / :func:`set_flight_recorder`), with one
addition for subprocess workers: setting ``REPRO_FLIGHT=<shift>`` in the
environment lazily arms a recorder on first scheduler construction in
any process that inherits it — the same mechanism ``REPRO_ENGINE`` uses
to select the event-queue backend inside sweep workers.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "FLIGHT_ENV_VAR",
    "FLIGHT_SCHEMA",
    "KIND_PUSH",
    "KIND_PULL",
    "KIND_NAMES",
    "FlightRecorder",
    "get_flight_recorder",
    "set_flight_recorder",
]

#: Environment variable that lazily arms a recorder in worker processes.
#: Its value is the sampling shift (``6`` → 1-in-64).
FLIGHT_ENV_VAR = "REPRO_FLIGHT"

#: Schema tag of the ``RunResult.obs["flight"]`` block.
FLIGHT_SCHEMA = "repro.obs/flight/v1"

#: Record kinds (stored as small ints in the ``kind`` column).
KIND_PUSH = 0
KIND_PULL = 1
KIND_NAMES = ("push", "pull")

#: Default ring capacity; must be a power of two.
DEFAULT_CAPACITY = 4096

#: Default sampling shift: record 1 in 2**6 = 64 operations.
DEFAULT_SAMPLE_SHIFT = 6


class FlightRecorder:
    """A preallocated ring of fixed-width scheduler operation records.

    Args:
        capacity: Ring size in records; must be a power of two.
        sample_shift: Record one in ``2**sample_shift`` operations.
            ``0`` records every operation (exact profiling mode).

    The attributes ``n`` (operation counter), ``mask`` (sampling mask)
    and ``now`` (current sim time, fed by whoever owns a clock, e.g.
    the netloop) are public on purpose: the instrumented hot paths
    read and write them directly instead of going through method calls.
    """

    __slots__ = (
        "capacity", "cap_mask", "sample_shift", "mask", "n", "idx", "now",
        "_last_now", "kind", "slot", "size", "ops", "terms", "credit",
        "occupancy", "tdelta",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        sample_shift: int = DEFAULT_SAMPLE_SHIFT,
    ) -> None:
        if capacity <= 0 or capacity & (capacity - 1):
            raise ValueError(
                f"capacity must be a positive power of two, got {capacity}"
            )
        if sample_shift < 0:
            raise ValueError(f"sample_shift must be >= 0, got {sample_shift}")
        self.capacity = capacity
        self.cap_mask = capacity - 1
        self.sample_shift = sample_shift
        self.mask = (1 << sample_shift) - 1
        self.n = 0          # operations seen while armed
        self.idx = 0        # records written (monotone; ring wraps)
        self.now = 0.0      # sim time, fed externally when available
        self._last_now = 0.0
        self.kind = [0] * capacity
        self.slot = [0] * capacity
        self.size = [0] * capacity
        self.ops = [0] * capacity
        self.terms = [0] * capacity
        self.credit = [0.0] * capacity
        self.occupancy = [0] * capacity
        self.tdelta = [0.0] * capacity

    # -- recording (the armed hot path) --------------------------------------

    def record(
        self,
        kind: int,
        slot: int,
        size: int,
        ops: int,
        terms: int,
        credit: float,
        occupancy: int,
    ) -> None:
        """Store one fixed-width record, overwriting the oldest on wrap.

        Called only on sampled operations, so per-call cost (eight list
        stores) is already divided by the sampling rate.
        """
        i = self.idx & self.cap_mask
        self.kind[i] = kind
        self.slot[i] = slot
        self.size[i] = size
        self.ops[i] = ops
        self.terms[i] = terms
        self.credit[i] = credit
        self.occupancy[i] = occupancy
        now = self.now
        self.tdelta[i] = now - self._last_now
        self._last_now = now
        self.idx += 1

    # -- arming ---------------------------------------------------------------

    def arm(self, sched: Any) -> None:
        """Attach this recorder to a scheduler's instrumentation hooks.

        ``sched`` is an SRR or DRR scheduler; it moves onto its armed
        twin class (:meth:`repro.core.lane.ScalarLane._arm_flight`).
        """
        sched._arm_flight(self)

    @staticmethod
    def disarm(sched: Any) -> None:
        """Detach any recorder from ``sched``, restoring the bare paths."""
        base = getattr(type(sched), "_flight_base", None)
        if base is not None:
            sched.__class__ = base
        sched.__dict__.pop("_flight", None)

    # -- draining -------------------------------------------------------------

    def __len__(self) -> int:
        """Records currently held (≤ capacity)."""
        return self.idx if self.idx < self.capacity else self.capacity

    @property
    def dropped(self) -> int:
        """Records overwritten by ring wraparound."""
        return self.idx - self.capacity if self.idx > self.capacity else 0

    def clear(self) -> None:
        """Reset counters and forget all records (storage is reused)."""
        self.n = 0
        self.idx = 0
        self._last_now = self.now

    def _iter_indices(self) -> range:
        start = self.idx - self.capacity if self.idx > self.capacity else 0
        return range(start, self.idx)

    def records(self) -> List[Dict[str, Any]]:
        """All held records as dicts, oldest first."""
        out = []
        m = self.cap_mask
        for j in self._iter_indices():
            i = j & m
            out.append({
                "kind": KIND_NAMES[self.kind[i]],
                "slot": self.slot[i],
                "size": self.size[i],
                "ops": self.ops[i],
                "terms": self.terms[i],
                "credit": self.credit[i],
                "occupancy": self.occupancy[i],
                "dt": self.tdelta[i],
            })
        return out

    def window(self, count: int = 64) -> List[Dict[str, Any]]:
        """The newest ``count`` records, oldest first (crash-dump view)."""
        return self.records()[-count:] if count > 0 else []

    def pull_deltas(self) -> Tuple[List[int], List[int]]:
        """(ops delta, WSS terms delta) of every held *pull* record.

        With ``sample_shift=0`` and enough capacity this is the exact
        per-dequeue cost series
        :class:`~repro.obs.profile.DequeueProfiler` measures.
        """
        ops_out: List[int] = []
        terms_out: List[int] = []
        m = self.cap_mask
        kinds, ops, terms = self.kind, self.ops, self.terms
        for j in self._iter_indices():
            i = j & m
            if kinds[i] == KIND_PULL:
                ops_out.append(ops[i])
                terms_out.append(terms[i])
        return ops_out, terms_out

    def snapshot(self, *, window: int = 0) -> Dict[str, Any]:
        """The recorder as a JSON-friendly ``obs["flight"]`` block."""
        block: Dict[str, Any] = {
            "schema": FLIGHT_SCHEMA,
            "sample_shift": self.sample_shift,
            "sample_rate": self.mask + 1,
            "capacity": self.capacity,
            "ops_seen": self.n,
            "recorded": self.idx,
            "dropped": self.dropped,
        }
        if window:
            block["window"] = self.window(window)
        return block

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(capacity={self.capacity}, "
            f"shift={self.sample_shift}, ops_seen={self.n}, "
            f"recorded={self.idx})"
        )


# -- process-global arming ----------------------------------------------------

_active: Optional[FlightRecorder] = None
#: Set once :func:`set_flight_recorder` explicitly disarms, so a stale
#: ``REPRO_FLIGHT`` in the environment cannot silently re-arm afterwards.
_env_ignored = False


def get_flight_recorder() -> Optional[FlightRecorder]:
    """The process-wide recorder, or ``None`` when recording is off.

    Consulted once per SRR/DRR construction — never on the per-packet
    path. If no recorder has been
    installed but ``REPRO_FLIGHT=<shift>`` is set (CI, sweep workers),
    one is created lazily with that sampling shift and the default
    capacity.
    """
    global _active
    if _active is None and not _env_ignored:
        raw = os.environ.get(FLIGHT_ENV_VAR)
        if raw:
            _active = FlightRecorder(sample_shift=int(raw))
    return _active


def set_flight_recorder(
    recorder: Optional[FlightRecorder],
) -> Optional[FlightRecorder]:
    """Install (or with ``None`` disarm) the process-wide recorder.

    Returns the previous recorder so callers can restore it. Passing
    ``None`` also suppresses ``REPRO_FLIGHT`` env activation for the
    rest of the process, making disarming authoritative.
    """
    global _active, _env_ignored
    previous = _active
    _active = recorder
    _env_ignored = recorder is None
    return previous


def _reset_for_tests() -> None:
    """Restore import-time state (tests only)."""
    global _active, _env_ignored
    _active = None
    _env_ignored = False
