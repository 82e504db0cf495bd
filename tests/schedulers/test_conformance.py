"""Interface-conformance tests run against EVERY scheduler in the registry.

These pin down the contract the network simulator relies on: work
conservation, exact backlog accounting, FIFO order within a flow, queue
limits, flow add/remove semantics, and robustness to random operation
sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.extensions  # noqa: F401 - registers "rrr" and "g3"
from repro.core import DuplicateFlowError, Packet, UnknownFlowError
from repro.schedulers import available_schedulers, create_scheduler

ALL = available_schedulers()


def make(name):
    return create_scheduler(name)


def drain(sched, limit=100000):
    out = []
    for _ in range(limit):
        p = sched.dequeue()
        if p is None:
            break
        out.append(p)
    return out


@pytest.fixture(params=ALL)
def sched(request):
    return make(request.param)


class TestBasicContract:
    def test_empty_dequeue_returns_none(self, sched):
        sched.add_flow("a", 1)
        assert sched.dequeue() is None

    def test_single_packet_roundtrip(self, sched):
        sched.add_flow("a", 1)
        p = Packet("a", 100)
        assert sched.enqueue(p)
        got = sched.dequeue()
        assert got is p
        assert sched.dequeue() is None

    def test_work_conserving(self, sched):
        for i in range(4):
            sched.add_flow(i, i + 1)
        n = 0
        for i in range(4):
            for j in range(5):
                sched.enqueue(Packet(i, 100 + 10 * i, seq=j))
                n += 1
        got = drain(sched)
        assert len(got) == n
        assert sched.backlog == 0
        assert sched.backlog_bytes == 0

    def test_per_flow_fifo_order(self, sched):
        sched.add_flow("a", 2)
        sched.add_flow("b", 3)
        for i in range(10):
            sched.enqueue(Packet("a", 100, seq=i))
            sched.enqueue(Packet("b", 100, seq=i))
        got = drain(sched)
        for fid in ("a", "b"):
            seqs = [p.seq for p in got if p.flow_id == fid]
            assert seqs == sorted(seqs)

    def test_backlog_accounting(self, sched):
        sched.add_flow("a", 1)
        sched.add_flow("b", 1)
        sched.enqueue(Packet("a", 111))
        sched.enqueue(Packet("b", 222))
        assert sched.backlog == 2
        assert sched.backlog_bytes == 333
        assert len(sched) == 2
        sched.dequeue()
        assert sched.backlog == 1
        drain(sched)
        assert sched.is_idle

    def test_unknown_flow_enqueue_raises(self, sched):
        with pytest.raises(UnknownFlowError):
            sched.enqueue(Packet("ghost", 10))

    def test_duplicate_flow_raises(self, sched):
        sched.add_flow("a", 1)
        with pytest.raises(DuplicateFlowError):
            sched.add_flow("a", 1)

    def test_remove_flow_returns_drop_count(self, sched):
        sched.add_flow("a", 1)
        sched.add_flow("b", 1)
        for i in range(3):
            sched.enqueue(Packet("a", 100, seq=i))
        sched.enqueue(Packet("b", 100))
        assert sched.remove_flow("a") == 3
        assert not sched.has_flow("a")
        assert sched.backlog == 1
        got = drain(sched)
        assert [p.flow_id for p in got] == ["b"]

    def test_remove_unknown_flow_raises(self, sched):
        with pytest.raises(UnknownFlowError):
            sched.remove_flow("ghost")

    def test_queue_limit(self, sched):
        sched.add_flow("a", 1, max_queue=3)
        results = [sched.enqueue(Packet("a", 10)) for _ in range(5)]
        assert results == [True, True, True, False, False]
        assert sched.backlog == 3

    def test_flow_ids_listing(self, sched):
        sched.add_flow("x", 1)
        sched.add_flow("y", 2)
        assert set(sched.flow_ids()) == {"x", "y"}
        assert sched.has_flow("x")
        assert not sched.has_flow("z")

    def test_readd_flow_after_removal(self, sched):
        sched.add_flow("a", 1)
        sched.enqueue(Packet("a", 10))
        sched.remove_flow("a")
        sched.add_flow("a", 2)
        sched.enqueue(Packet("a", 10))
        assert sched.dequeue().flow_id == "a"

    def test_interleaved_enqueue_dequeue(self, sched):
        sched.add_flow("a", 1)
        sched.add_flow("b", 2)
        sched.enqueue(Packet("a", 10))
        assert sched.dequeue().flow_id == "a"
        sched.enqueue(Packet("b", 10))
        sched.enqueue(Packet("a", 10))
        got = drain(sched)
        assert {p.flow_id for p in got} == {"a", "b"}


class TestRandomisedConservation:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["enq", "deq", "deq", "enq"]),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=40, max_value=1500),
            ),
            max_size=150,
        ),
        st.sampled_from(ALL),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_packet_lost_or_duplicated(self, ops, name):
        sched = make(name)
        weights = [1, 2, 3, 5]
        for i in range(4):
            sched.add_flow(i, weights[i])
        pushed, popped = [], []
        for op, fid, size in ops:
            if op == "enq":
                p = Packet(fid, size)
                if sched.enqueue(p):
                    pushed.append(p.uid)
            else:
                p = sched.dequeue()
                if p is not None:
                    popped.append(p.uid)
        popped.extend(p.uid for p in drain(sched))
        assert sorted(popped) == sorted(pushed)
        assert sched.backlog == 0


class TestLongRunWeightedShare:
    """All weighted disciplines must deliver long-run service proportional
    to weights under constant backlog (equal packet sizes)."""

    WEIGHTED = [n for n in ALL if n not in ("fifo", "rr")]

    @pytest.mark.parametrize("name", WEIGHTED)
    def test_share_ratio(self, name):
        sched = make(name)
        sched.add_flow("w3", 3)
        sched.add_flow("w1", 1)
        for i in range(3000):
            sched.enqueue(Packet("w3", 100, seq=i))
        for i in range(1200):
            sched.enqueue(Packet("w1", 100, seq=i))
        count = {"w3": 0, "w1": 0}
        for _ in range(2000):
            p = sched.dequeue()
            assert p is not None
            count[p.flow_id] += 1
        assert count["w3"] / count["w1"] == pytest.approx(3.0, rel=0.1)
