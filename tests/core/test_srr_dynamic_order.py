"""SRR under *dynamic* order (k) changes, mid-round.

The srr.py docstring claims: when the highest non-empty column changes
(a heavier flow arrives, or the heaviest drains), the WSS scan restarts
at the new order and "perturbs fairness for at most one round". These
tests pin that claim: after any mid-round k change, every backlogged
flow's service count over m subsequent rounds stays within one round's
share (``m*w ± w``) — exactly the regime the fault injector's churn
events drive in E13.
"""

from repro.core import Packet, SRRScheduler


def load(sched, fid, n, size=100):
    for i in range(n):
        sched.enqueue(Packet(fid, size, seq=i))


def service_counts(sched, n_packets):
    counts = {}
    for _ in range(n_packets):
        p = sched.dequeue()
        assert p is not None, "work conservation broke mid-measurement"
        counts[p.flow_id] = counts.get(p.flow_id, 0) + 1
    return counts


def assert_within_one_round(counts, weights, rounds):
    for fid, w in weights.items():
        got = counts.get(fid, 0)
        assert abs(got - rounds * w) <= w, (
            f"{fid}: {got} services over {rounds} rounds at weight {w} "
            f"deviates by more than one round's share"
        )


class TestHeaviestFlowDrains:
    def test_order_drops_when_heaviest_drains(self):
        s = SRRScheduler()
        s.add_flow("light", 1)
        s.add_flow("mid", 2)
        s.add_flow("heavy", 4)
        load(s, "light", 50)
        load(s, "mid", 50)
        load(s, "heavy", 2)  # drains mid-round
        assert s.order == 3
        while s._flows["heavy"].queue:
            s.dequeue()
        assert s.order == 2  # k tracked the drain immediately

    def test_fairness_perturbed_at_most_one_round(self):
        s = SRRScheduler()
        s.add_flow("light", 1)
        s.add_flow("mid", 2)
        s.add_flow("heavy", 4)
        load(s, "light", 100)
        load(s, "mid", 100)
        load(s, "heavy", 3)  # gone partway through round one
        while s._flows["heavy"].queue:
            s.dequeue()
        # Post-drain: order is 2, the per-round total weight is 3.
        rounds = 10
        counts = service_counts(s, 3 * rounds)
        assert_within_one_round(counts, {"light": 1, "mid": 2}, rounds)


class TestHeavierFlowJoins:
    def test_order_rises_on_midround_join(self):
        s = SRRScheduler()
        s.add_flow("light", 1)
        s.add_flow("mid", 2)
        load(s, "light", 100)
        load(s, "mid", 100)
        for _ in range(2):  # partway into a WSS^2 round
            s.dequeue()
        assert s.order == 2
        s.add_flow("big", 8)
        load(s, "big", 200)
        assert s.order == 4  # k jumped with the new highest column

    def test_fairness_after_join_within_one_round(self):
        s = SRRScheduler()
        s.add_flow("light", 1)
        s.add_flow("mid", 2)
        load(s, "light", 200)
        load(s, "mid", 200)
        for _ in range(2):
            s.dequeue()
        s.add_flow("big", 8)
        load(s, "big", 200)
        # New round: total weight 11.
        rounds = 8
        counts = service_counts(s, 11 * rounds)
        assert_within_one_round(
            counts, {"light": 1, "mid": 2, "big": 8}, rounds
        )

    def test_join_then_leave_returns_to_original_cadence(self):
        """A churn cycle (join + leave of a heavy flow) leaves the
        survivors' long-run shares untouched — the WSS restart costs at
        most one round, not permanent skew."""
        s = SRRScheduler()
        s.add_flow("a", 1)
        s.add_flow("b", 2)
        load(s, "a", 300)
        load(s, "b", 300)
        s.dequeue()
        s.add_flow("burst", 4)
        load(s, "burst", 8)
        while s._flows["burst"].queue:
            s.dequeue()
        s.remove_flow("burst")
        assert s.order == 2
        rounds = 20
        counts = service_counts(s, 3 * rounds)
        assert_within_one_round(counts, {"a": 1, "b": 2}, rounds)


class TestRepeatedChurn:
    def test_many_cycles_never_break_invariants(self):
        """Stress the dynamic path the fault injector exercises: repeated
        joins/leaves at varying weights with the guard watching."""
        from repro.faults import attach_guard

        s = SRRScheduler()
        s.add_flow("base", 2)
        load(s, "base", 500)
        guard = attach_guard(s, every=1)
        for cycle in range(12):
            fid = f"churn-{cycle}"
            s.add_flow(fid, 1 << (cycle % 4))
            load(s, fid, 5)
            for _ in range(12):
                s.dequeue()
            if s._flows[fid].queue:
                while s._flows[fid].queue:
                    s.dequeue()
            s.remove_flow(fid)
        assert guard.violations == []
        assert guard.checks_run > 0
        guard.detach()
