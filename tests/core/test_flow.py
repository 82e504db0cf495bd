"""Tests for repro.core.flow (FlowState, weight validation)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import InvalidWeightError
from repro.core.flow import FlowState, check_weight
from repro.core.packet import Packet


class TestCheckWeight:
    def test_accepts_positive_ints(self):
        assert check_weight(1) == 1
        assert check_weight(2**40) == 2**40

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", None, True, False])
    def test_rejects_non_positive_and_non_int(self, bad):
        with pytest.raises(InvalidWeightError):
            check_weight(bad)

    def test_rejects_oversized(self):
        with pytest.raises(InvalidWeightError):
            check_weight(1 << 63)


class TestFlowState:
    def test_nodes_match_weight_bits(self):
        f = FlowState("a", 13)  # 0b1101
        assert sorted(f.nodes) == [0, 2, 3]
        for bit, node in f.nodes.items():
            assert node.flow is f
            assert node.column == bit
            assert not node.linked

    def test_float_weight_mode_for_timestamp_schedulers(self):
        f = FlowState("w", 2.5, integer_weight=False)
        assert f.weight == 2.5
        assert f.nodes == {}

    def test_integer_mode_rejects_floats(self):
        with pytest.raises(InvalidWeightError):
            FlowState("a", 2.5)

    def test_offer_and_take_fifo_order(self):
        f = FlowState("a", 1)
        p1, p2 = Packet("a", 10), Packet("a", 20)
        assert f.offer(p1) and f.offer(p2)
        assert f.backlogged
        assert f.backlog_bytes == 30
        assert f.take() is p1
        assert f.take() is p2
        assert not f.backlogged

    def test_take_updates_counters(self):
        f = FlowState("a", 1)
        f.offer(Packet("a", 100))
        f.offer(Packet("a", 50))
        f.take()
        f.take()
        assert f.packets_sent == 2
        assert f.bytes_sent == 150

    def test_queue_limit_drops(self):
        f = FlowState("a", 1, max_queue=2)
        assert f.offer(Packet("a", 10))
        assert f.offer(Packet("a", 10))
        assert not f.offer(Packet("a", 10))
        assert f.packets_dropped == 1
        assert len(f.queue) == 2

    def test_head_size(self):
        f = FlowState("a", 1)
        f.offer(Packet("a", 77))
        f.offer(Packet("a", 99))
        assert f.head_size() == 77

    def test_in_matrix_initially_false(self):
        f = FlowState("a", 5)
        assert not f.in_matrix
