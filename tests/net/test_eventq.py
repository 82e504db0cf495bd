"""Property tests for the calendar event queue.

The determinism contract: CalendarQueue dequeues in exactly
``(time, seq)`` order — checked here against a sorted ``(time, seq)``
model under random times, ties, cancellations, mid-run inserts, calendar
resizes and extreme times.
"""

import random

from repro.net import CalendarQueue, Simulator
from repro.net.engine import Event


def _event(time, seq):
    return Event(time, seq, lambda: None, ())


def _drain(queue):
    out = []
    while queue.size:
        event = queue.pop()
        out.append((event.time, event.seq))
    return out


def _push_all(queue, pairs):
    for t, seq in pairs:
        queue.push(_event(t, seq))


class ReferenceQueue:
    """The contract as a model: pop the minimum ``(time, seq)`` pair."""

    def __init__(self):
        self.items = []

    def push(self, t, seq):
        self.items.append((t, seq))

    def pop(self):
        item = min(self.items)
        self.items.remove(item)
        return item


class TestOrderEquivalence:
    """CalendarQueue pops in the order of the sorted ``(time, seq)`` model."""

    def test_random_times(self):
        rng = random.Random(11)
        pushed = [(rng.random() * 100.0, seq) for seq in range(5000)]
        cal = CalendarQueue()
        _push_all(cal, pushed)
        assert _drain(cal) == sorted(pushed)

    def test_ties_break_by_seq(self):
        rng = random.Random(12)
        # Few distinct times, many events: mostly ties.
        times = [rng.random() for _ in range(7)]
        pushed = [(rng.choice(times), seq) for seq in range(2000)]
        cal = CalendarQueue()
        _push_all(cal, pushed)
        assert _drain(cal) == sorted(pushed)

    def test_mid_run_inserts(self):
        # Interleave pops with pushes, including pushes landing in the
        # calendar's current (being-drained) epoch and far future.
        rng = random.Random(13)
        ref, cal = ReferenceQueue(), CalendarQueue()
        seq = 0
        now = 0.0
        out_ref, out_cal = [], []
        for _ in range(3000):
            if cal.size and rng.random() < 0.45:
                out_ref.append(ref.pop())
                b = cal.pop()
                out_cal.append((b.time, b.seq))
                now = max(now, b.time)
            else:
                # Never schedule into the past (the Simulator forbids it).
                t = now + rng.choice([0.0, 1e-9, 0.001, 0.5, 50.0]) * rng.random()
                ref.push(t, seq)
                cal.push(_event(t, seq))
                seq += 1
        while ref.items:
            out_ref.append(ref.pop())
        out_cal.extend(_drain(cal))
        assert out_cal == out_ref
        assert out_cal == sorted(out_cal)

    def test_burst_then_sparse_resizes(self):
        # A dense burst (forces a shrink) followed by sparse events
        # (forces widens); order must survive every rebuild.
        rng = random.Random(14)
        pushed = [(rng.random(), seq) for seq in range(4000)]  # dense
        pushed += [  # sparse: one event per ~10 time units
            (10.0 + i * 10.0 + rng.random(), 4000 + i) for i in range(500)
        ]
        cal = CalendarQueue()
        _push_all(cal, pushed)
        assert _drain(cal) == sorted(pushed)
        assert cal.resizes > 0

    def test_simulator_cancellation_equivalence(self):
        # Cancelled events are skipped; the rest fire in (time, seq) order.
        rng = random.Random(15)
        sim = Simulator()
        fired = []
        events = [
            sim.schedule(rng.random() * 10.0, fired.append, i)
            for i in range(500)
        ]
        for e in rng.sample(events, 200):
            e.cancel()
        sim.run()
        expected = sorted(
            (e.time, e.seq) for e in events if not e.cancelled
        )
        assert len(fired) == 300
        assert [(events[i].time, events[i].seq) for i in fired] == expected

    def test_extreme_times(self):
        times = [0.0, 1e-300, 1e300, float("inf"), 12.5, 1e-12]
        pushed = list(zip(times, range(len(times))))
        cal = CalendarQueue()
        _push_all(cal, pushed)
        assert _drain(cal) == sorted(pushed)


class TestCalendarInternals:
    def test_peek_matches_pop(self):
        rng = random.Random(16)
        cal = CalendarQueue()
        for seq in range(1000):
            cal.push(_event(rng.random() * 5.0, seq))
        while cal.size:
            peeked = cal.peek()
            popped = cal.pop()
            assert peeked is popped
        assert cal.peek() is None

    def test_width_adapts_to_density(self):
        cal = CalendarQueue()
        initial = cal.width
        rng = random.Random(17)
        for seq in range(5000):  # 5000 events in one initial bucket
            cal.push(_event(rng.random() * initial, seq))
        _drain(cal)
        assert cal.resizes >= 1
        assert cal.width < initial

    def test_stats_exposes_resizes(self):
        cal = CalendarQueue()
        assert cal.stats() == {"queue_resizes": 0}

    def test_len_and_bool(self):
        cal = CalendarQueue()
        assert not cal and len(cal) == 0
        cal.push(_event(1.0, 0))
        assert cal and len(cal) == 1
