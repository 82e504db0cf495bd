"""The event-reuse audit: the engine's event lifecycle (``reschedule``)
and the port's transmit loop (one recycled tx event).

These tests pin down cancellation accounting (``pending_live`` /
``cancelled_reaped``), reuse preconditions, and that a port re-arms a
single transmit event per packet.
"""

import pytest

from repro.core.errors import SimulationError
from repro.bench.scenarios import single_bottleneck_network
from repro.net.engine import Simulator


class TestReschedule:
    def test_fired_event_is_reusable_with_fresh_seq(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]
        assert event._sim is None
        seq_before = event.seq
        assert sim.reschedule(event, 0.5) is event
        assert event.seq > seq_before  # same counter schedule() uses
        sim.run()
        assert fired == [1.0, 1.5]

    def test_pending_event_cannot_be_rearmed(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.reschedule(event, 0.5)

    def test_cancelled_event_is_never_reusable(self):
        # A cancelled-pending event still sits inside the queue, and a
        # cancelled-reaped one is indistinguishable from it — so both
        # refuse reuse.
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        with pytest.raises(SimulationError):
            sim.reschedule(event, 0.5)
        sim.run()  # reaps it
        assert sim.cancelled_reaped == 1
        with pytest.raises(SimulationError):
            sim.reschedule(event, 0.5)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        event = sim.schedule(0.1, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.reschedule(event, -0.1)

    def test_pending_live_tracks_cancellations(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        assert sim.pending_live == 2
        drop.cancel()
        assert sim.pending_events == 2  # still queued until reaped
        assert sim.pending_live == 1
        sim.run()
        assert sim.pending_events == 0
        assert sim.pending_live == 0
        assert sim.cancelled_reaped == 1
        assert keep._sim is None

    def test_reuse_is_bit_identical_to_fresh_allocation(self):
        """A self-rescheduling chain must interleave identically with a
        concurrent event stream whether it reuses one Event or allocates
        fresh ones — reschedule draws seq from the same counter."""

        def run(reuse: bool):
            sim = Simulator()
            order = []

            state = {"event": None, "n": 0}

            def chain():
                order.append(("chain", sim.now))
                state["n"] += 1
                if state["n"] >= 5:
                    return
                if reuse:
                    sim.reschedule(state["event"], 0.1)
                else:
                    state["event"] = sim.schedule(0.1, chain)

            def rival():
                order.append(("rival", sim.now))

            state["event"] = sim.schedule(0.1, chain)
            for i in range(1, 6):
                # Same timestamps as the chain: tie order is seq order.
                sim.schedule_at(i * 0.1, rival)
            sim.run()
            stats = sim.stats()
            return order, {
                k: stats[k]
                for k in (
                    "events_processed", "cancelled_reaped",
                    "max_heap_depth", "pending_events", "pending_live",
                )
            }

        fresh_order, fresh_stats = run(reuse=False)
        reuse_order, reuse_stats = run(reuse=True)
        assert reuse_order == fresh_order
        assert reuse_stats == fresh_stats


class TestPortTxEvent:
    def test_port_recycles_one_tx_event(self):
        net = single_bottleneck_network("srr", 4)
        net.run(until=0.1)
        port = net.port("R", "dst")
        event = port._tx_event
        assert event is not None
        transmitted = port.packets_out
        net.run(until=0.3)
        assert port.packets_out > transmitted
        assert port._tx_event is event  # same object, re-armed per packet
