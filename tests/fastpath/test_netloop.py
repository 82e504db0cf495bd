"""The lean bottleneck replay vs the generic event-driven network.

``run_single_bottleneck_fast`` must be *semantically* faithful to
``single_bottleneck_network`` + ``Network.run``: identical per-flow
delivered packet and byte counts, and identical mean delays (the tandem
recurrences reproduce the engine's float arithmetic exactly, so the
comparison is exact, not approximate).
"""

import random

import pytest

from repro.bench.scenarios import single_bottleneck_network
from repro.core.errors import ConfigurationError
from repro.fastpath.netloop import run_single_bottleneck_fast
from repro.schedulers.registry import create_scheduler


def object_reference(n_flows, until):
    net = single_bottleneck_network("srr", n_flows)
    net.run(until=until)
    out = {}
    for fid, rec in net.sinks.flows.items():
        delays = rec.delays()
        out[fid] = (rec.packets, rec.bytes, sum(delays), max(delays))
    return out


def fast_by_fid(run):
    out = {}
    fids = ["tag"] + [f"bg{i}" for i in range(run.n_flows)]
    for slot, fid in enumerate(fids):
        if run.delivered[slot]:
            out[fid] = (
                run.delivered[slot],
                run.delivered_bytes[slot],
                run.delay_sum[slot],
                run.delay_max[slot],
            )
    return out


class TestFaithfulness:
    @pytest.mark.parametrize("n_flows", [1, 4, 16, 64])
    def test_exact_counts_and_delays_vs_network(self, n_flows):
        until = 0.5
        expected = object_reference(n_flows, until)
        run = run_single_bottleneck_fast(n_flows, until)
        got = fast_by_fid(run)
        assert set(got) == set(expected)
        for fid in expected:
            packets, nbytes, delay_sum, delay_max = expected[fid]
            assert got[fid][0] == packets, f"{fid}: delivered count"
            assert got[fid][1] == nbytes, f"{fid}: delivered bytes"
            assert got[fid][2] == pytest.approx(delay_sum, abs=1e-9), fid
            assert got[fid][3] == pytest.approx(delay_max, abs=1e-12), fid

    def test_unsaturated_run_matches(self):
        net = single_bottleneck_network("srr", 4, saturate=False)
        net.run(until=0.5)
        run = run_single_bottleneck_fast(4, 0.5, saturate=False)
        got = fast_by_fid(run)
        for fid, rec in net.sinks.flows.items():
            assert got[fid][0] == rec.packets


class TestRunAccounting:
    def test_totals_are_consistent(self):
        run = run_single_bottleneck_fast(16, 0.5)
        assert run.total_delivered == sum(run.delivered)
        # Forwarded counts bottleneck serialization completions; a final
        # packet's delivery may land past the window, never the reverse.
        assert run.forwarded >= run.total_delivered
        assert sum(run.emitted) >= run.forwarded
        assert run.terms_scanned > 0  # SRR telemetry rides along
        for slot in range(run.n_flows + 1):
            if run.delivered[slot]:
                assert run.mean_delay(slot) > 0
            else:
                assert run.mean_delay(slot) == 0.0

    def test_mean_delay_is_sum_over_count(self):
        run = run_single_bottleneck_fast(4, 0.3)
        slot = 0
        assert run.mean_delay(slot) == (
            run.delay_sum[slot] / run.delivered[slot]
        )


class TestScanBound:
    @pytest.mark.parametrize("n_flows", [4, 64, 512])
    def test_each_pull_scans_at_most_two_terms(self, n_flows):
        """The paper's WSS bound on the scalar lane, one pull at a time,
        over the replay's flow set: ``tag`` at weight 2 and ``n_flows``
        ``bg`` flows at weight 1. Each burst pushes two tag packets and,
        every other burst, one packet per bg flow; a random number of
        pulls follows, so flows go idle, the WSS order changes, and
        pulls scan empty columns."""
        sched = create_scheduler("srr", quantum=200)
        sched.add_flow("tag", 2)
        for i in range(n_flows):
            sched.add_flow(f"bg{i}", 1)
        tag = sched.slot_of("tag")
        bg = [sched.slot_of(f"bg{i}") for i in range(n_flows)]
        rng = random.Random(n_flows)
        deltas = []

        def pull():
            before = sched.terms_scanned
            item = sched.pull()
            deltas.append(sched.terms_scanned - before)
            return item

        for burst in range(240):
            sched.push(tag, 200)
            sched.push(tag, 200)
            if burst % 2 == 0:
                for slot in bg:
                    sched.push(slot, 200)
            for _ in range(rng.randint(1, sched.backlog)):
                assert pull() is not None
        while pull() is not None:
            pass
        assert len(deltas) == 480 + 120 * n_flows + 1
        assert max(deltas) <= 2


class TestGuards:
    def test_scheduler_without_scalar_lane_is_rejected(self):
        for name in ("wfq", "drr"):
            with pytest.raises(ConfigurationError):
                run_single_bottleneck_fast(4, 0.1, scheduler=name)

    def test_overbooked_link_is_rejected(self):
        with pytest.raises(ConfigurationError):
            run_single_bottleneck_fast(4, 0.1, link_bps=50_000)
