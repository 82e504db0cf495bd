"""Tests for the SRR scheduler (repro.core.srr).

The paper-anchored cases: the exact SRR service sequence from the worked
example (Section III-C of the supplied text lists it for the flow set
{7 x w=1, 2 x w=2, 1 x w=4}), per-round weighted fairness, O(1) per-packet
operation counts, and work conservation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConfigurationError,
    DuplicateFlowError,
    InvalidWeightError,
    OpCounter,
    Packet,
    SRRScheduler,
    UnknownFlowError,
)
from repro.core.wss import wss_sequence_recursive


def drain(sched, limit=None):
    """Dequeue until idle (or limit packets) returning the flow-id sequence."""
    out = []
    while limit is None or len(out) < limit:
        p = sched.dequeue()
        if p is None:
            break
        out.append(p.flow_id)
    return out


def load(sched, flows, packets_each, size=100):
    for fid in flows:
        for i in range(packets_each):
            sched.enqueue(Packet(fid, size, seq=i))


class TestPaperExample:
    """Section III-C worked example: f0..f6 w=1, f7,f8 w=2, f9 w=4."""

    def make(self):
        s = SRRScheduler()
        for i in range(7):
            s.add_flow(f"f{i}", 1)
        s.add_flow("f7", 2)
        s.add_flow("f8", 2)
        s.add_flow("f9", 4)
        return s

    def test_one_round_service_sequence(self):
        s = self.make()
        load(s, [f"f{i}" for i in range(10)], packets_each=8)
        # One WSS^3 round serves total weight 15.
        got = drain(s, limit=15)
        expected = [
            "f9", "f7", "f8", "f9",
            "f0", "f1", "f2", "f3", "f4", "f5", "f6",
            "f9", "f7", "f8", "f9",
        ]
        assert got == expected

    def test_round_repeats(self):
        s = self.make()
        load(s, [f"f{i}" for i in range(10)], packets_each=8)
        seq = drain(s, limit=30)
        assert seq[:15] == seq[15:]

    def test_inter_service_distances_match_paper(self):
        # The paper contrasts f9's SRR gaps (1, 3, 8, 3 cyclically) with
        # G-3's smoother (3, 4, 4, 4).
        s = self.make()
        load(s, [f"f{i}" for i in range(10)], packets_each=8)
        seq = drain(s, limit=30)
        positions = [i for i, fid in enumerate(seq) if fid == "f9"]
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        assert gaps[:4] == [3, 8, 3, 1]


class TestWeightedFairness:
    @pytest.mark.parametrize(
        "weights",
        [
            {"a": 1, "b": 1},
            {"a": 3, "b": 1},
            {"a": 5, "b": 3, "c": 2},
            {"a": 7, "b": 7, "c": 1, "d": 16},
            {f"f{i}": (i % 5) + 1 for i in range(20)},
        ],
    )
    def test_services_per_round_equal_weight(self, weights):
        """While all flows stay backlogged, one WSS round serves each flow
        exactly `weight` times (claim C2)."""
        s = SRRScheduler()
        for fid, w in weights.items():
            s.add_flow(fid, w)
        order = max(w for w in weights.values()).bit_length()
        round_slots = sum(weights.values())
        rounds = 3
        load(s, weights, packets_each=rounds * max(weights.values()) + 5)
        seq = drain(s, limit=rounds * round_slots)
        for fid, w in weights.items():
            assert seq.count(fid) == rounds * w, (fid, w, order)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=1, max_value=64),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_round_fairness(self, weights):
        s = SRRScheduler()
        for fid, w in weights.items():
            s.add_flow(fid, w)
        total = sum(weights.values())
        load(s, weights, packets_each=2 * max(weights.values()) + 1)
        seq = drain(s, limit=2 * total)
        for fid, w in weights.items():
            assert seq.count(fid) == 2 * w

    def test_long_run_throughput_share(self):
        s = SRRScheduler()
        s.add_flow("heavy", 10)
        s.add_flow("light", 1)
        load(s, ["heavy", "light"], packets_each=2000)
        seq = drain(s, limit=2200)
        heavy = seq.count("heavy")
        light = seq.count("light")
        assert heavy / light == pytest.approx(10.0, rel=0.05)


class TestSmoothness:
    def test_power_of_two_flows_are_perfectly_spread(self):
        """With one flow per column (an SWM configuration), each flow's
        services are equally spaced — the 'smoothed' in SRR."""
        s = SRRScheduler()
        s.add_flow("w4", 4)
        s.add_flow("w2", 2)
        s.add_flow("w1", 1)
        load(s, ["w4", "w2", "w1"], packets_each=50)
        seq = drain(s, limit=7 * 6)  # six full rounds
        for fid, w in [("w4", 4), ("w2", 2), ("w1", 1)]:
            positions = [i for i, x in enumerate(seq) if x == fid]
            gaps = {b - a for a, b in zip(positions, positions[1:])}
            # Perfectly regular: a single gap value 7 / w rounded pattern.
            assert len(gaps) <= 2, (fid, gaps)
            assert max(gaps) <= (7 // w) + 1

    def test_smoother_than_wrr_burst(self):
        """WRR serves a weight-8 flow 8 times back-to-back; SRR never
        serves it twice in a row when other flows are backlogged."""
        s = SRRScheduler()
        s.add_flow("big", 8)
        s.add_flow("small", 7)
        load(s, ["big", "small"], packets_each=100)
        seq = drain(s, limit=60)
        runs = 1
        longest = 1
        for a, b in zip(seq, seq[1:]):
            runs = runs + 1 if a == b == "big" else 1
            longest = max(longest, runs)
        assert longest <= 2


class TestWindowSmoothness:
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=1, max_value=32),
            min_size=2,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_every_flow_served_in_any_two_round_window(self, weights):
        """Long-run smoothness property: with all flows backlogged, ANY
        window of two rounds' worth of slots contains at least ``w``
        services of a weight-w flow (no flow can be squeezed out of a
        window by others' bursts — the anti-WRR property)."""
        s = SRRScheduler()
        for fid, w in weights.items():
            s.add_flow(fid, w)
        total = sum(weights.values())
        rounds = 4
        load(s, weights, packets_each=rounds * max(weights.values()) + 4)
        seq = drain(s, limit=rounds * total)
        window = 2 * total
        for start in range(0, len(seq) - window + 1, max(total // 2, 1)):
            chunk = seq[start:start + window]
            for fid, w in weights.items():
                assert chunk.count(fid) >= w, (fid, w, start)


class TestDynamics:
    def test_flow_leaves_matrix_when_drained(self):
        s = SRRScheduler()
        s.add_flow("a", 3)
        s.enqueue(Packet("a", 10))
        assert s.flow_state("a").in_matrix
        s.dequeue()
        assert not s.flow_state("a").in_matrix
        assert s.dequeue() is None

    def test_flow_rejoins_on_new_packet(self):
        s = SRRScheduler()
        s.add_flow("a", 1)
        s.enqueue(Packet("a", 10))
        s.dequeue()
        s.enqueue(Packet("a", 10))
        assert s.flow_state("a").in_matrix
        assert s.dequeue().flow_id == "a"

    def test_idle_scheduler_returns_none_and_resets(self):
        s = SRRScheduler()
        s.add_flow("a", 2)
        assert s.dequeue() is None
        assert s.scan_position == 0
        assert s.order == 0

    def test_arrival_of_heavier_flow_raises_order(self):
        s = SRRScheduler()
        s.add_flow("a", 1)
        s.add_flow("b", 8)
        s.enqueue(Packet("a", 10))
        assert s.order == 1
        s.enqueue(Packet("b", 10))
        assert s.order == 4

    def test_departure_of_heaviest_lowers_order(self):
        s = SRRScheduler()
        s.add_flow("a", 1)
        s.add_flow("b", 8)
        load(s, {"a": 1, "b": 1}, packets_each=1)
        # Drain b's single packet plus a's.
        drain(s)
        s.enqueue(Packet("a", 10))
        assert s.order == 1

    def test_remove_backlogged_flow_drops_queue(self):
        s = SRRScheduler()
        s.add_flow("a", 1)
        s.add_flow("b", 1)
        load(s, {"a": 1, "b": 1}, packets_each=4)
        dropped = s.remove_flow("a")
        assert dropped == 4
        assert s.backlog == 4
        assert drain(s) == ["b"] * 4

    def test_remove_flow_mid_scan_is_safe(self):
        """Removing the flow the scan cursor points at must not corrupt
        the scan (regression guard for the cursor-fix in _unlink)."""
        s = SRRScheduler()
        for i in range(4):
            s.add_flow(i, 1)
        load(s, range(4), packets_each=2)
        first = s.dequeue()  # cursor now points at the next column node
        assert first.flow_id == 0
        s.remove_flow(1)  # likely the cursor target
        rest = drain(s)
        assert rest.count(1) == 0
        assert rest.count(2) == 2 and rest.count(3) == 2

    def test_duplicate_flow_rejected(self):
        s = SRRScheduler()
        s.add_flow("a", 1)
        with pytest.raises(DuplicateFlowError):
            s.add_flow("a", 2)

    def test_unknown_flow_operations(self):
        s = SRRScheduler()
        with pytest.raises(UnknownFlowError):
            s.enqueue(Packet("ghost", 10))
        with pytest.raises(UnknownFlowError):
            s.remove_flow("ghost")
        with pytest.raises(UnknownFlowError):
            s.flow_state("ghost")

    def test_invalid_weights_rejected(self):
        s = SRRScheduler()
        with pytest.raises(InvalidWeightError):
            s.add_flow("a", 0)
        with pytest.raises(InvalidWeightError):
            s.add_flow("a", 2.5)

    def test_weight_wider_than_matrix_rejected_cleanly(self):
        s = SRRScheduler(max_order=4)
        with pytest.raises(ConfigurationError):
            s.add_flow("a", 16)
        assert not s.has_flow("a")  # not half-registered

    def test_queue_limit_enforced(self):
        s = SRRScheduler()
        s.add_flow("a", 1, max_queue=2)
        assert s.enqueue(Packet("a", 10))
        assert s.enqueue(Packet("a", 10))
        assert not s.enqueue(Packet("a", 10))
        assert s.backlog == 2


class TestComplexity:
    def test_ops_per_packet_constant_in_n(self):
        """Claim C1: dequeue cost does not grow with the number of flows."""

        def max_ops(n_flows):
            ops = OpCounter()
            s = SRRScheduler(op_counter=ops)
            for i in range(n_flows):
                s.add_flow(i, (i % 7) + 1)
            load(s, range(n_flows), packets_each=2)
            worst = 0
            for _ in range(min(500, 2 * n_flows)):
                before = ops.count
                if s.dequeue() is None:
                    break
                worst = max(worst, ops.count - before)
            return worst

        small = max_ops(8)
        large = max_ops(4096)
        assert large <= small + 3  # constant, modulo tiny scan variance

    def test_bounded_empty_scan_steps(self):
        """At most ~2 WSS terms are scanned per packet even with sparse
        columns (term value 1 always lands on a non-empty column)."""
        ops = OpCounter()
        s = SRRScheduler(op_counter=ops)
        # One flow with a huge weight: order is 10, 9 of 10 columns empty.
        s.add_flow("big", 512)
        load(s, ["big"], packets_each=300)
        worst = 0
        for _ in range(300):
            before = ops.count
            assert s.dequeue() is not None
            worst = max(worst, ops.count - before)
        assert worst <= 5


class TestDeficitMode:
    def test_byte_fairness_with_mixed_sizes(self):
        s = SRRScheduler(mode="deficit", quantum=1000)
        s.add_flow("jumbo", 1)
        s.add_flow("tiny", 1)
        for i in range(200):
            s.enqueue(Packet("jumbo", 1000, seq=i))
        for i in range(2000):
            s.enqueue(Packet("tiny", 100, seq=i))
        sent = {"jumbo": 0, "tiny": 0}
        for _ in range(600):
            p = s.dequeue()
            if p is None:
                break
            sent[p.flow_id] += p.size
        # Equal weights -> equal bytes despite 10x size imbalance.
        assert sent["jumbo"] / sent["tiny"] == pytest.approx(1.0, rel=0.1)

    def test_packet_mode_is_packet_fair_not_byte_fair(self):
        s = SRRScheduler(mode="packet")
        s.add_flow("jumbo", 1)
        s.add_flow("tiny", 1)
        for i in range(100):
            s.enqueue(Packet("jumbo", 1000, seq=i))
            s.enqueue(Packet("tiny", 100, seq=i))
        seq = drain(s, limit=100)
        assert seq.count("jumbo") == seq.count("tiny")

    def test_deficit_carries_over_small_quantum(self):
        # Quantum of 400 vs packets of 1000: the flow accumulates credit
        # over visits and still makes progress.
        s = SRRScheduler(mode="deficit", quantum=400)
        s.add_flow("a", 1)
        for i in range(5):
            s.enqueue(Packet("a", 1000, seq=i))
        got = drain(s)
        assert got == ["a"] * 5

    def test_deficit_reset_when_drained(self):
        s = SRRScheduler(mode="deficit", quantum=5000)
        s.add_flow("a", 1)
        s.enqueue(Packet("a", 100))
        s.dequeue()
        assert s.flow_state("a").deficit == 0

    def test_multiple_packets_per_visit(self):
        s = SRRScheduler(mode="deficit", quantum=1000)
        s.add_flow("a", 1)
        s.add_flow("b", 1)
        for i in range(10):
            s.enqueue(Packet("a", 100, seq=i))
        s.enqueue(Packet("b", 1000))
        seq = drain(s, limit=11)
        # a gets ~10 packets per visit (1000/100); they come in bursts but
        # the byte split stays equal.
        assert seq.count("a") == 10 and seq.count("b") == 1

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            SRRScheduler(mode="wfq")
        with pytest.raises(ConfigurationError):
            SRRScheduler(mode="deficit", quantum=0)


class TestWSSScanOrder:
    """SRR's closed-form scan against the paper's recursive WSS (Eq. 7)."""

    def test_serves_columns_in_reference_wss_order(self):
        # One backlogged flow per column j (weight 2^j): each WSS term v
        # serves exactly the flow of column k - v, so every order's
        # service sequence spells out WSS^k term by term.
        for k in range(1, 11):
            s = SRRScheduler()
            for j in range(k):
                s.add_flow(f"c{j}", 1 << j)
                load(s, [f"c{j}"], packets_each=3 * (1 << j) + 1)
            expected = [f"c{k - v}" for v in wss_sequence_recursive(k)] * 3
            assert drain(s, limit=len(expected)) == expected, k


class TestOrderChangePolicy:
    """The restart-on-order-change policy (DESIGN.md section 5)."""

    def test_round_fairness_holds_after_order_change(self):
        s = SRRScheduler()
        s.add_flow("a", 3)
        s.add_flow("b", 1)
        load(s, {"a": 1, "b": 1}, packets_each=100)
        drain(s, limit=10)
        # Raise the order mid-stream.
        s.add_flow("c", 8)
        load(s, {"c": 1}, packets_each=200)
        seq = drain(s, limit=3 * 12)  # ~three rounds of total weight 12
        # Shares settle at 8:3:1 within one round of phase slack.
        assert abs(seq.count("c") - 24) <= 3
        assert abs(seq.count("a") - 9) <= 3
        assert abs(seq.count("b") - 3) <= 2

    def test_order_shrink(self):
        s = SRRScheduler()
        s.add_flow("big", 8)
        s.add_flow("small", 1)
        for i in range(3):
            s.enqueue(Packet("big", 100, seq=i))
        s.enqueue(Packet("small", 100))
        # big has 3 packets, small 1: all must come out despite the
        # order dropping from 4 to 1 when big drains.
        got = drain(s)
        assert sorted(map(str, got)) == ["big", "big", "big", "small"]
        s.enqueue(Packet("small", 100))
        assert s.dequeue().flow_id == "small"


class TestAccounting:
    def test_backlog_counters_track_exactly(self):
        s = SRRScheduler()
        s.add_flow("a", 2)
        s.add_flow("b", 1)
        s.enqueue(Packet("a", 100))
        s.enqueue(Packet("b", 300))
        assert s.backlog == 2
        assert s.backlog_bytes == 400
        s.dequeue()
        assert s.backlog == 1
        s.dequeue()
        assert s.backlog == 0
        assert s.backlog_bytes == 0
        assert s.is_idle

    def test_flow_stats_accumulate(self):
        s = SRRScheduler()
        s.add_flow("a", 1)
        for i in range(3):
            s.enqueue(Packet("a", 50, seq=i))
        drain(s)
        st_ = s.flow_state("a")
        assert st_.packets_sent == 3
        assert st_.bytes_sent == 150

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["enq", "deq"]),
                st.integers(min_value=0, max_value=4),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_random_ops_keep_invariants(self, ops_list):
        s = SRRScheduler()
        for i in range(5):
            s.add_flow(i, i + 1)
        queued = 0
        for op, fid in ops_list:
            if op == "enq":
                s.enqueue(Packet(fid, 100))
                queued += 1
            else:
                if s.dequeue() is not None:
                    queued -= 1
        assert s.backlog == queued
        s.matrix.check_invariants()
        for i in range(5):
            flow = s.flow_state(i)
            assert flow.in_matrix == flow.backlogged
        assert len(drain(s)) == queued
