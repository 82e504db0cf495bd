"""Tests for the ServiceTrace probe: window queries and curves."""

from repro.net import CBRSource, Network, ServiceTrace


def two_hop_net():
    net = Network(default_scheduler="srr")
    for n in ("h", "r", "d"):
        net.add_node(n)
    net.add_link("h", "r", rate_bps=10e6, delay=0.001)
    net.add_link("r", "d", rate_bps=1e6, delay=0.001)
    return net


def run_cbr(net, stop_at=0.5, until=2.0, rate_bps=80_000):
    net.add_flow("f1", "h", "d", weight=1)
    net.attach_source(
        "f1", CBRSource(rate_bps=rate_bps, packet_size=200, stop_at=stop_at)
    )
    net.run(until=until)


class TestServiceTraceWindows:
    def test_incremental_index_matches_brute_force(self):
        net = two_hop_net()
        trace = ServiceTrace(net.port("r", "d"))
        run_cbr(net)
        assert len(trace) > 10
        # The incremental timestamp index must agree with a full scan
        # for arbitrary windows, including empty and open-ended ones.
        t_end = trace.entries[-1][0]
        for t0, t1 in [(0.0, t_end), (0.1, 0.3), (0.2, 0.2), (t_end, 99.0)]:
            brute = sum(
                size for t, fid, size in trace.entries
                if fid == "f1" and t0 <= t < t1
            )
            assert trace.service_in_window("f1", t0, t1) == brute

    def test_times_stay_aligned_with_entries(self):
        net = two_hop_net()
        trace = ServiceTrace(net.port("r", "d"))
        run_cbr(net)
        assert trace._times == [t for t, _f, _s in trace.entries]
        assert trace._times == sorted(trace._times)

    def test_flows_and_slot_sequence(self):
        net = two_hop_net()
        trace = ServiceTrace(net.port("r", "d"))
        run_cbr(net)
        assert trace.flows() == ["f1"]
        assert len(trace.slot_sequence()) == len(trace)

    def test_service_curve_cumulative(self):
        net = two_hop_net()
        trace = ServiceTrace(net.port("r", "d"))
        run_cbr(net)
        curve = trace.service_curve("f1")
        totals = [b for _t, b in curve]
        assert totals == sorted(totals)
        assert totals[-1] == sum(s for _t, f, s in trace.entries if f == "f1")

