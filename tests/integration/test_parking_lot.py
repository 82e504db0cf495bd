"""Integration tests for the parking-lot topology."""

import pytest

from repro.core import ConfigurationError
from repro.bench.scenarios import parking_lot_network


class TestParkingLot:
    def test_structure_and_delivery(self):
        net = parking_lot_network("srr", hops=3, cross_flows_per_hop=10)
        net.run(until=1.5)
        assert net.sinks.flow("tag").packets > 0
        # Cross traffic at every hop got through too.
        for h in range(3):
            assert net.sinks.flow(f"x{h}_0").packets > 0

    def test_reservation_check(self):
        with pytest.raises(ConfigurationError):
            parking_lot_network("srr", hops=2, cross_flows_per_hop=1000)
        with pytest.raises(ConfigurationError):
            parking_lot_network("srr", hops=0)

    def test_delay_grows_with_hops(self):
        """The composition story: each contended hop adds latency. Mean
        delay compounds nearly additively; the worst case grows too but
        sub-additively (worst-case phases rarely align across hops —
        which is why Corollary 1's additive bound is an upper envelope)."""
        mean, worst = {}, {}
        for hops in (1, 3):
            net = parking_lot_network("srr", hops=hops,
                                      cross_flows_per_hop=40)
            net.run(until=2.0)
            delays = net.sinks.delays("tag")
            mean[hops] = sum(delays) / len(delays)
            worst[hops] = max(delays)
        assert mean[3] > mean[1] * 1.6
        assert worst[3] > worst[1]

    def test_every_hop_contended(self):
        net = parking_lot_network("srr", hops=2, cross_flows_per_hop=40)
        net.run(until=1.0)
        for i in range(2):
            port = net.port(f"R{i}", f"R{i + 1}")
            assert port.packets_out > 500  # cross + tagged traffic flowed
