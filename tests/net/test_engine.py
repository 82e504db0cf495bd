"""Tests for the discrete-event engine."""

import pytest

from repro.core import SimulationError
from repro.net import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        out = []
        sim.schedule(3.0, out.append, "c")
        sim.schedule(1.0, out.append, "a")
        sim.schedule(2.0, out.append, "b")
        sim.run()
        assert out == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        out = []
        for tag in "abcde":
            sim.schedule(1.0, out.append, tag)
        sim.run()
        assert out == list("abcde")

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.5, lambda: seen.append(sim.now))
        sim.schedule(1.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.5, 1.25]

    def test_nested_scheduling(self):
        sim = Simulator()
        out = []

        def tick(n):
            out.append((sim.now, n))
            if n < 3:
                sim.schedule(1.0, tick, n + 1)

        sim.schedule(0.0, tick, 0)
        sim.run()
        assert out == [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        out = []
        sim.schedule_at(5.0, out.append, "x")
        sim.run()
        assert sim.now == 5.0
        assert out == ["x"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_past_absolute_time_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)


class TestRunControl:
    def test_run_until_stops_and_sets_clock(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "a")
        sim.schedule(3.0, out.append, "b")
        n = sim.run(until=2.0)
        assert n == 1
        assert out == ["a"]
        assert sim.now == 2.0
        sim.run()
        assert out == ["a", "b"]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_cancellation(self):
        sim = Simulator()
        out = []
        keep = sim.schedule(1.0, out.append, "keep")
        drop = sim.schedule(2.0, out.append, "drop")
        drop.cancel()
        sim.run()
        assert out == ["keep"]
        assert not keep.cancelled

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_reentrancy_guard(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule(0.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()


class TestObservability:
    def test_cancelled_events_are_reaped_not_fired(self):
        sim = Simulator()
        out = []
        events = [sim.schedule(float(i), out.append, i) for i in range(6)]
        for event in events[::2]:
            event.cancel()
        sim.run()
        assert out == [1, 3, 5]
        assert sim.cancelled_reaped == 3
        assert sim.events_processed == 3
        assert sim.pending_events == 0

    def test_cancelled_reaped_accumulates_across_runs(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.run(until=2.0)
        sim.schedule(3.0, lambda: None).cancel()
        sim.run()
        assert sim.cancelled_reaped == 2

    def test_max_heap_depth_high_water_mark(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(float(i), lambda: None)
        assert sim.max_heap_depth == 7
        sim.run()
        # Draining does not lower the high-water mark.
        assert sim.max_heap_depth == 7

    def test_wall_time_accumulates(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        sim.run()
        first = sim.wall_time_s
        assert first > 0.0
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.wall_time_s > first

    def test_stats_dict_shape(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        sim.schedule(1.0, lambda: None).cancel()
        sim.run()
        stats = sim.stats()
        assert stats == {
            "events_processed": 1,
            "cancelled_reaped": 1,
            "max_heap_depth": 2,
            "sim_wall_time_s": sim.wall_time_s,
            "pending_events": 0,
            "pending_live": 0,
            "queue_resizes": 0,
        }

    def test_stats_includes_backend_counters(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        sim.run()
        assert sim.stats()["queue_resizes"] == 0

    def test_callback_hook_times_each_event(self):
        sim = Simulator()
        seen = []
        sim.callback_hook = lambda event, dt: seen.append((event.time, dt))
        sim.schedule(0.5, lambda: None)
        sim.schedule(1.5, lambda: None)
        sim.run()
        assert [t for t, _ in seen] == [0.5, 1.5]
        assert all(dt >= 0.0 for _, dt in seen)

    def test_callback_hook_skips_cancelled_events(self):
        sim = Simulator()
        seen = []
        sim.callback_hook = lambda event, dt: seen.append(event.time)
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert seen == [2.0]


class TestPendingLive:
    """pending_events counts queued entries; pending_live excludes
    cancelled-but-unreaped ones."""

    def test_cancelled_event_not_counted_live(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        assert sim.pending_live == 2
        event.cancel()
        assert sim.pending_events == 2
        assert sim.pending_live == 1

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.pending_live == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        event.cancel()
        # The event already fired; the live count must not go negative.
        assert sim.pending_events == 1
        assert sim.pending_live == 1

    def test_reaping_restores_agreement(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        assert sim.pending_live == 1
        sim.run()
        assert sim.pending_events == 0
        assert sim.pending_live == 0
        assert sim.cancelled_reaped == 1


class TestQueueBackends:
    """The queue is injectable: a profiling proxy can stand in for it."""

    def test_queue_instance_accepted(self):
        from repro.net.eventq import CalendarQueue

        queue = CalendarQueue()
        sim = Simulator(queue=queue)
        out = []
        sim.schedule(1.0, out.append, "a")
        sim.schedule(0.25, out.append, "b")
        assert queue.size == 2
        sim.run()
        assert out == ["b", "a"]
        assert queue.size == 0


class TestRunUntilEdgeCases:
    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        out = []
        sim.schedule(2.0, out.append, "edge")
        n = sim.run(until=2.0)
        assert n == 1
        assert out == ["edge"]
        assert sim.now == 2.0

    def test_clock_lands_on_until_after_edge_event(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.schedule(2.5, lambda: None)
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert sim.pending_events == 1

    def test_cancelled_event_beyond_until_stays_queued(self):
        sim = Simulator()
        event = sim.schedule(5.0, lambda: None)
        event.cancel()
        sim.run(until=1.0)
        # Not reaped: run() never looked past `until`.
        assert sim.cancelled_reaped == 0
        assert sim.pending_events == 1
        sim.run()
        assert sim.cancelled_reaped == 1
        assert sim.now == 1.0

    def test_windowed_runs_match_single_run(self):
        """Advancing in consecutive run(until) windows is bit-identical
        to one run(until), events landing exactly on a window edge
        included (timed window-by-window runs rely on this)."""

        def build(sim, log):
            def tick(tag, n, period):
                log.append((sim.now, tag, n))
                if n:
                    sim.schedule(period, tick, tag, n - 1, period)
            for i, tag in enumerate("abc"):
                sim.schedule(0.1 * (i + 1), tick, tag, 8, 0.37)
            # On every window edge from t=1.0 on.
            sim.schedule(1.0, tick, "edge", 4, 0.5)

        one, windowed = [], []
        sim = Simulator()
        build(sim, one)
        sim.run(until=3.0)
        sim2 = Simulator()
        build(sim2, windowed)
        horizon = 0.0
        while horizon < 3.0:
            horizon = min(horizon + 0.5, 3.0)
            sim2.run(until=horizon)
        assert windowed == one
        assert [t for t, tag, _ in one if tag == "edge"] == [
            1.0, 1.5, 2.0, 2.5, 3.0,
        ]
        assert sim2.now == sim.now == 3.0


class TestCallbackHookHoist:
    """The hook is read once per run() call (hot-loop hoist)."""

    def test_hook_installed_before_run_sees_every_event(self):
        sim = Simulator()
        seen = []
        sim.callback_hook = lambda event, dt: seen.append(event.time)
        for t in (0.1, 0.2, 0.3):
            sim.schedule(t, lambda: None)
        sim.run()
        assert seen == [0.1, 0.2, 0.3]
        assert len(seen) == sim.events_processed

    def test_hook_installed_mid_run_takes_effect_next_run(self):
        sim = Simulator()
        seen = []

        def install():
            sim.callback_hook = lambda event, dt: seen.append(event.time)

        sim.schedule(0.1, install)
        sim.schedule(0.2, lambda: None)
        sim.run()
        # Documented semantics: the attribute is read once per run(), so
        # the in-run install misses this run's remaining events...
        assert seen == []
        sim.schedule_at(0.3, lambda: None)
        sim.run()
        # ...and catches everything from the next call on.
        assert seen == [0.3]

    def test_hook_removed_mid_run_still_fires_this_run(self):
        sim = Simulator()
        seen = []
        sim.callback_hook = lambda event, dt: seen.append(event.time)

        def uninstall():
            sim.callback_hook = None

        sim.schedule(0.1, uninstall)
        sim.schedule(0.2, lambda: None)
        sim.run()
        assert seen == [0.1, 0.2]
