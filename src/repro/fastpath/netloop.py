"""Lean object-free replay of the single-bottleneck benchmark scenario.

``python -m repro.perf``'s end-to-end benchmark historically spent most
of its wall time in the discrete-event machinery around the scheduler —
one :class:`~repro.net.engine.Event` per CBR emission, per serialization
completion, and per delivery, each carrying a heap-allocated
:class:`~repro.core.packet.Packet`. For the fixed-size CBR workload of
:func:`repro.bench.scenarios.single_bottleneck_network` none of that
generality is needed: every packet is ``packet_size`` bytes, so both
links have *constant* serialization times and the whole network reduces
to two exact tandem-queue recurrences:

* **access FIFO** (``src -> R``): arrivals in merged CBR-grid order;
  ``start = max(arrival, prev_finish)``; finish = start + ser_a; the
  packet reaches the bottleneck at finish + prop_a.
* **bottleneck port** (``R -> dst``): the SRR scheduler on its
  packet-mode scalar lane (``push``/``pull``/``pull_batch``), serving
  back-to-back — each serialization completion pulls the next packet at
  that instant. Between consecutive arrivals the loop serves whole
  batches through ``pull_batch`` (SRR fuses a WSS column visit into one
  loop), so the per-packet Python overhead is a few list operations,
  with no Event or Packet objects anywhere.

Emission times use the same ``n * interval`` float grid as
:class:`~repro.net.sources.CBRSource` and the run-window cutoffs mirror
the event engine's ``run(until=...)`` semantics (an event at exactly
``until`` fires; later ones do not), so the replay is *semantically*
faithful: per-flow delivered packet and byte counts match the generic
:class:`~repro.net.scenario.Network` run exactly, and per-packet delays
match up to event tie-breaking at identical timestamps (asserted by
``tests/fastpath/test_netloop.py``).

This module backs the ``e2e_srr_bottleneck[fastpath-n256]`` bench of
``python -m repro.perf`` and perfbench's ``lean-n512`` workload; it is
not a general simulator.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.errors import ConfigurationError
from ..obs.trace import get_tracer
from ..schedulers.registry import create_scheduler
from . import FAST_CORES

__all__ = ["BottleneckRun", "run_single_bottleneck_fast"]


class BottleneckRun:
    """Per-flow delivery statistics of one lean bottleneck replay.

    Slot 0 is the tagged flow; slots ``1..n_flows`` are the background
    flows, matching ``"tag"`` / ``"bg<i>"`` in the generic scenario.
    """

    __slots__ = (
        "n_flows",
        "until",
        "emitted",
        "delivered",
        "delivered_bytes",
        "delay_sum",
        "delay_max",
        "forwarded",
        "terms_scanned",
    )

    def __init__(self, n_flows: int, until: float) -> None:
        self.n_flows = n_flows
        self.until = until
        self.emitted = [0] * (n_flows + 1)
        self.delivered = [0] * (n_flows + 1)
        self.delivered_bytes = [0] * (n_flows + 1)
        self.delay_sum = [0.0] * (n_flows + 1)
        self.delay_max = [0.0] * (n_flows + 1)
        #: Packets that finished serialising at the bottleneck (counts a
        #: final packet whose delivery lands past ``until``).
        self.forwarded = 0
        self.terms_scanned = 0

    @property
    def total_delivered(self) -> int:
        return sum(self.delivered)

    def mean_delay(self, slot: int) -> float:
        n = self.delivered[slot]
        return self.delay_sum[slot] / n if n else 0.0

    def __repr__(self) -> str:
        return (
            f"BottleneckRun(flows={self.n_flows}+tag, until={self.until}, "
            f"delivered={self.total_delivered})"
        )


def run_single_bottleneck_fast(
    n_flows: int,
    until: float,
    *,
    scheduler: str = "srr",
    tagged_rate_bps: float = 32_000,
    background_rate_bps: float = 16_000,
    link_bps: float = 10_000_000,
    packet_size: int = 200,
    saturate: bool = True,
) -> BottleneckRun:
    """Replay ``single_bottleneck_network(scheduler, n_flows)`` leanly.

    Defaults mirror :func:`~repro.bench.scenarios.single_bottleneck_network`
    exactly (same rates, weights, link speeds, delays and overdrive).
    ``scheduler`` must name a discipline with the scalar lane
    (:data:`~repro.fastpath.FAST_CORES`: only ``"srr"``); the loop runs
    entirely on ``push``/``pull``/``pull_batch``.
    """
    if scheduler not in FAST_CORES:
        raise ConfigurationError(
            f"{scheduler!r} has no scalar push/pull lane; the lean loop "
            f"runs on {sorted(FAST_CORES)}"
        )
    reserved = tagged_rate_bps + n_flows * background_rate_bps
    if reserved > link_bps:
        raise ConfigurationError(
            f"reservations {reserved} exceed link {link_bps} bps"
        )
    if get_tracer() is not None:
        # No Packet objects and no per-hop events exist in this loop, so
        # a packet-lifecycle trace here could only ever be empty. Fail
        # loudly instead of silently producing no records.
        raise ConfigurationError(
            "packet tracing is not available in the lean loop: it has no "
            "per-hop events or Packet objects to trace. Run the scenario "
            "on the event engine (single_bottleneck_network) to trace it"
        )
    sched = create_scheduler(scheduler, quantum=packet_size)
    unit = background_rate_bps  # the scenario's weight unit
    sched.add_flow("tag", max(1, round(tagged_rate_bps / unit)))
    for i in range(n_flows):
        sched.add_flow(f"bg{i}", 1)
    tag_slot = sched.slot_of("tag")
    bg_slots = [sched.slot_of(f"bg{i}") for i in range(n_flows)]

    run = BottleneckRun(n_flows, until)

    # CBR grids (identical float arithmetic to CBRSource: n * interval).
    bits = packet_size * 8.0
    tag_interval = bits / tagged_rate_bps
    overdrive = 1.15 if saturate else 1.0
    bg_interval = bits / (background_rate_bps * overdrive)

    # Link constants of the generic scenario.
    ser_a = bits / (10.0 * link_bps)     # access serialization
    prop_a = 0.0005                      # access propagation
    ser_b = bits / link_bps              # bottleneck serialization
    prop_b = 0.001                       # bottleneck propagation

    push = sched.push
    pull = sched.pull
    pull_batch = sched.pull_batch
    emitted = run.emitted
    delivered = run.delivered
    delivered_bytes = run.delivered_bytes
    delay_sum = run.delay_sum
    delay_max = run.delay_max

    def deliver(slot: int, created: float, completed: float) -> None:
        at = completed + prop_b
        if at > until:
            return
        delivered[slot] += 1
        delivered_bytes[slot] += packet_size
        d = at - created
        delay_sum[slot] += d
        if d > delay_max[slot]:
            delay_max[slot] = d

    # Tandem state. Access FIFO: only its server-finish time matters
    # (order in == order out, constant size). Bottleneck: the packet on
    # the wire plus its completion time.
    access_free = 0.0
    busy = False
    wire_slot = -1
    wire_created = 0.0
    free_at = 0.0
    forwarded = 0

    # Merged arrival iteration: the tag grid against the shared
    # background grid (every bg point carries all n_flows packets, in
    # attach order — the same tie order the event engine produces).
    tag_n = 0
    tag_t: Optional[float] = 0.0
    bg_n = 0
    bg_t: Optional[float] = 0.0 if n_flows else None
    pending: List[Tuple[int, float]] = []  # (slot, emission time) burst

    while True:
        # Next emission instant and its packets (tag first on ties).
        if tag_t is None and bg_t is None:
            break
        pending.clear()
        if bg_t is None or (tag_t is not None and tag_t <= bg_t):
            t_emit = tag_t
            pending.append((tag_slot, t_emit))
            emitted[tag_slot] += 1
            tag_n += 1
            nxt = tag_n * tag_interval
            tag_t = nxt if nxt <= until else None
            if bg_t is not None and t_emit == bg_t:
                for s in bg_slots:
                    pending.append((s, t_emit))
                    emitted[s] += 1
                bg_n += 1
                nxt = bg_n * bg_interval
                bg_t = nxt if nxt <= until else None
        else:
            t_emit = bg_t
            for s in bg_slots:
                pending.append((s, t_emit))
                emitted[s] += 1
            bg_n += 1
            nxt = bg_n * bg_interval
            bg_t = nxt if nxt <= until else None

        for slot, created in pending:
            # Access hop: FIFO serialization + propagation. The engine
            # only forwards the packet if both the completion and the
            # receive events land inside the run window.
            start = access_free if access_free > created else created
            fin = start + ser_a
            access_free = fin
            t = fin + prop_a
            if t > until:
                continue
            # Serve bottleneck completions up to the arrival instant.
            # Each completion delivers the wire packet and pulls the
            # next; runs of back-to-back completions go through one
            # batched pull (the WSS column-visit batching).
            while busy and free_at <= t:
                deliver(wire_slot, wire_created, free_at)
                forwarded += 1
                k = int((t - free_at) / ser_b)
                if k >= 1:
                    # The next k pulls complete at free_at + i*ser_b,
                    # all inside [free_at, t].
                    batch = pull_batch(k)
                    for slot_i, _sz, created_i in batch:
                        free_at += ser_b
                        deliver(slot_i, created_i, free_at)
                        forwarded += 1
                    if len(batch) < k:
                        busy = False
                        break
                nxt_p = pull()
                if nxt_p is None:
                    busy = False
                else:
                    wire_slot, _sz, wire_created = nxt_p
                    free_at += ser_b
            push(slot, packet_size, created)
            if not busy:
                pulled = pull()
                # Just pushed, so the pull cannot come back empty.
                wire_slot, _sz, wire_created = pulled
                busy = True
                free_at = t + ser_b

    # Post-arrival drain: completions keep firing while they land inside
    # the run window.
    while busy and free_at <= until:
        deliver(wire_slot, wire_created, free_at)
        forwarded += 1
        nxt_p = pull()
        if nxt_p is None:
            busy = False
        else:
            wire_slot, _sz, wire_created = nxt_p
            free_at += ser_b

    run.forwarded = forwarded
    run.terms_scanned = getattr(sched, "terms_scanned", 0)
    return run
