"""Tests for measurement probes (monitors) and delivery records (sinks)."""

import pytest

from repro.core import Packet
from repro.net import (
    BurstSource,
    CBRSource,
    DeliveryRecord,
    FlowRecord,
    Network,
    ServiceTrace,
    SinkRegistry,
    Simulator,
)


def bottleneck_net():
    net = Network(default_scheduler="srr")
    for n in ("h", "r", "d"):
        net.add_node(n)
    net.add_link("h", "r", rate_bps=10e6, delay=0.001)
    net.add_link("r", "d", rate_bps=1e6, delay=0.001)
    return net


class TestDeliveryRecord:
    def test_delay_property(self):
        rec = DeliveryRecord("f", 0, 100, created_at=1.0, delivered_at=1.25)
        assert rec.delay == pytest.approx(0.25)


class TestFlowRecord:
    def test_accumulates(self):
        fr = FlowRecord("f")
        fr.add(DeliveryRecord("f", 0, 100, 0.0, 0.5))
        fr.add(DeliveryRecord("f", 1, 200, 0.1, 1.0))
        assert fr.packets == 2
        assert fr.bytes == 300
        assert fr.delays() == [0.5, 0.9]
        assert fr.first_at == 0.5
        assert fr.last_at == 1.0

    def test_throughput_window(self):
        fr = FlowRecord("f")
        for i in range(10):
            fr.add(DeliveryRecord("f", i, 125, 0.0, 0.1 * (i + 1)))
        # 10 * 125 B over 1 s = 10 kb/s.
        assert fr.throughput_bps(0.0, 1.0) == pytest.approx(10_000)
        # Half the window -> half the packets, same rate.
        assert fr.throughput_bps(0.0, 0.5) == pytest.approx(10_000)

    def test_empty_window(self):
        fr = FlowRecord("f")
        assert fr.throughput_bps(0.0, 1.0) == 0.0


class TestSinkRegistry:
    def test_record_and_lookup(self):
        sim = Simulator()
        sinks = SinkRegistry(sim)
        sinks.record(Packet("a", 100, created_at=0.0))
        sinks.record(Packet("a", 100, created_at=0.0, seq=1))
        sinks.record(Packet("b", 50, created_at=0.0))
        assert sinks.total_packets == 3
        assert sinks.total_bytes == 250
        assert sinks.flow("a").packets == 2
        assert sinks.delays("never-seen") == []


class TestServiceTrace:
    def test_service_curve_and_window(self):
        net = bottleneck_net()
        net.add_flow("a", "h", "d", weight=1)
        net.add_flow("b", "h", "d", weight=1)
        trace = ServiceTrace(net.port("r", "d"))
        net.attach_source("a", BurstSource(10, packet_size=500))
        net.attach_source("b", BurstSource(10, packet_size=500))
        net.run(until=1.0)
        assert len(trace) == 20
        assert set(trace.flows()) == {"a", "b"}
        curve = trace.service_curve("a")
        assert curve[-1][1] == 5000  # cumulative bytes
        times = [t for t, _s in curve]
        assert times == sorted(times)
        # Window covering everything equals the total.
        assert trace.service_in_window("a", 0.0, 2.0) == 5000
        # Complementary windows partition the total.
        mid = curve[2][0]
        first = trace.service_in_window("a", 0.0, mid)
        rest = trace.service_in_window("a", mid, 2.0)
        assert first + rest == 5000

    def test_slot_sequence(self):
        net = bottleneck_net()
        net.add_flow("a", "h", "d", weight=1)
        trace = ServiceTrace(net.port("r", "d"))
        net.attach_source("a", BurstSource(3, packet_size=500))
        net.run(until=1.0)
        assert trace.slot_sequence() == ["a", "a", "a"]

