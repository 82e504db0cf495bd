"""Tests for the SRR/DRR flight recorder (repro.obs.flight)."""

import pytest

from repro.bench.scenarios import single_bottleneck_network
from repro.core import Packet, SRRScheduler
from repro.fastpath.netloop import run_single_bottleneck_fast
from repro.obs import flight as flight_mod
from repro.obs.flight import (
    FLIGHT_ENV_VAR,
    FlightRecorder,
    get_flight_recorder,
    set_flight_recorder,
)
from repro.schedulers import DRRScheduler


@pytest.fixture(autouse=True)
def clean_recorder(monkeypatch):
    monkeypatch.delenv(FLIGHT_ENV_VAR, raising=False)
    flight_mod._reset_for_tests()
    yield
    flight_mod._reset_for_tests()


class TestRingBuffer:
    def test_capacity_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(capacity=3)
        with pytest.raises(ValueError):
            FlightRecorder(sample_shift=-1)

    def test_wrap_at_exact_capacity(self):
        rec = FlightRecorder(capacity=4, sample_shift=0)
        for i in range(4):
            rec.record(0, i, 100, 1, 1, 0.0, 1)
        # Exactly full: nothing dropped yet, all four held in order.
        assert len(rec) == 4
        assert rec.dropped == 0
        assert [r["slot"] for r in rec.records()] == [0, 1, 2, 3]
        rec.record(1, 99, 100, 1, 1, 0.0, 1)
        # One past capacity: the oldest record is gone, newest appended.
        assert len(rec) == 4
        assert rec.dropped == 1
        assert [r["slot"] for r in rec.records()] == [1, 2, 3, 99]

    def test_window_is_newest_suffix(self):
        rec = FlightRecorder(capacity=8, sample_shift=0)
        for i in range(5):
            rec.record(0, i, 100, 0, 0, 0.0, 1)
        assert [r["slot"] for r in rec.window(2)] == [3, 4]
        assert rec.window(0) == []

    def test_record_fields_and_dt(self):
        rec = FlightRecorder(capacity=4, sample_shift=0)
        rec.now = 1.5
        rec.record(1, 3, 200, 7, 2, 4.5, 6)
        (r,) = rec.records()
        assert r == {
            "kind": "pull", "slot": 3, "size": 200, "ops": 7, "terms": 2,
            "credit": 4.5, "occupancy": 6, "dt": 1.5,
        }

    def test_clear_reuses_storage(self):
        rec = FlightRecorder(capacity=4, sample_shift=0)
        rec.n = 10
        rec.record(0, 0, 100, 0, 0, 0.0, 1)
        rec.clear()
        assert len(rec) == 0 and rec.n == 0 and rec.dropped == 0

    def test_snapshot_block(self):
        rec = FlightRecorder(capacity=8, sample_shift=1)
        rec.n = 6
        rec.record(0, 0, 100, 0, 0, 0.0, 1)
        rec.record(1, 0, 100, 1, 1, 0.0, 0)
        block = rec.snapshot(window=1)
        assert block["schema"] == flight_mod.FLIGHT_SCHEMA
        assert block["sample_shift"] == 1
        assert block["sample_rate"] == 2
        assert block["capacity"] == 8
        assert block["ops_seen"] == 6
        assert block["recorded"] == 2
        assert block["dropped"] == 0
        assert [r["kind"] for r in block["window"]] == ["pull"]


class TestArming:
    def test_arm_swaps_to_twin_and_disarm_restores(self):
        sched = SRRScheduler()
        bare = type(sched)
        rec = FlightRecorder(capacity=64, sample_shift=0)
        rec.arm(sched)
        twin = type(sched)
        assert twin is not bare
        assert twin._flight_base is bare
        assert sched._flight is rec
        FlightRecorder.disarm(sched)
        assert type(sched) is bare
        assert "_flight" not in sched.__dict__

    def test_born_as_twin_when_global_recorder_armed(self):
        rec = FlightRecorder(capacity=64, sample_shift=0)
        set_flight_recorder(rec)
        sched = SRRScheduler()
        assert type(sched)._flight_base is not None
        assert sched._flight is rec

    def test_shift_zero_records_every_operation(self):
        rec = FlightRecorder(capacity=64, sample_shift=0)
        set_flight_recorder(rec)
        sched = SRRScheduler()
        sched.add_flow("a", 1)
        slot = sched.slot_of("a")
        for _ in range(5):
            assert sched.push(slot, 100)
        served = 0
        while sched.pull() is not None:
            served += 1
        assert served == 5
        kinds = [r["kind"] for r in rec.records()]
        assert kinds.count("push") == 5
        assert kinds.count("pull") == 5
        # The trailing empty pull bumps the op counter but stores nothing.
        assert rec.n == 11

    def test_sampling_mask_keeps_one_in_rate(self):
        rec = FlightRecorder(capacity=64, sample_shift=2)  # 1 in 4
        set_flight_recorder(rec)
        sched = SRRScheduler()
        sched.add_flow("a", 1)
        slot = sched.slot_of("a")
        for _ in range(16):
            sched.push(slot, 100)
        assert rec.n == 16
        assert len(rec) == 4  # n = 4, 8, 12, 16

    def test_env_activation_and_authoritative_disarm(self, monkeypatch):
        monkeypatch.setenv(FLIGHT_ENV_VAR, "3")
        rec = get_flight_recorder()
        assert rec is not None and rec.sample_shift == 3
        sched = SRRScheduler()
        assert sched._flight is rec
        # Explicit disarm wins over a stale env var for this process.
        set_flight_recorder(None)
        assert get_flight_recorder() is None


class TestObjectLane:
    @pytest.mark.parametrize("cls", [SRRScheduler, DRRScheduler])
    def test_enqueue_dequeue_are_recorded(self, cls):
        rec = FlightRecorder(capacity=64, sample_shift=0)
        sched = cls()
        rec.arm(sched)
        sched.add_flow("a", 2)
        for _ in range(3):
            assert sched.enqueue(Packet("a", 100))
        while sched.dequeue() is not None:
            pass
        kinds = [r["kind"] for r in rec.records()]
        assert kinds == ["push"] * 3 + ["pull"] * 3
        slot = sched.slot_of("a")
        assert {r["slot"] for r in rec.records()} == {slot}
        assert [r["occupancy"] for r in rec.records()] == [1, 2, 3, 2, 1, 0]

    def test_env_armed_network_keeps_recorder_off_digest(self, monkeypatch):
        def digest():
            net = single_bottleneck_network("srr", 8)
            net.run(until=0.3)
            return {
                fid: (r.packets, r.bytes, tuple(r.delays()))
                for fid, r in net.sinks.flows.items()
            }

        off = digest()
        monkeypatch.setenv(FLIGHT_ENV_VAR, "6")
        flight_mod._reset_for_tests()
        armed = digest()
        rec = get_flight_recorder()
        assert rec.n > 0 and len(rec) > 0
        assert armed == off


class TestNetloopSampling:
    def run(self, **kwargs):
        return run_single_bottleneck_fast(4, 0.3, **kwargs)

    def test_armed_run_matches_recorder_off(self):
        off = self.run()
        set_flight_recorder(FlightRecorder(sample_shift=6))
        armed = self.run()
        assert armed.total_delivered == off.total_delivered
        for slot in range(len(off.delivered)):
            assert armed.delivered[slot] == off.delivered[slot]
            assert armed.mean_delay(slot) == off.mean_delay(slot)

    def test_burst_sampling_stores_both_kinds(self):
        rec = FlightRecorder(sample_shift=1)
        set_flight_recorder(rec)
        run = self.run()
        assert run.total_delivered > 0
        kinds = {r["kind"] for r in rec.records()}
        assert kinds == {"push", "pull"}
        # The burst accounting still counts every operation it skips.
        assert rec.n >= 2 * run.total_delivered

    def test_drr_burst_sampling_matches_recorder_off(self):
        off = self.run(scheduler="drr")
        rec = FlightRecorder(sample_shift=1)
        set_flight_recorder(rec)
        armed = self.run(scheduler="drr")
        assert armed.delivered == off.delivered
        assert armed.delay_sum == off.delay_sum
        assert {r["kind"] for r in rec.records()} == {"push", "pull"}

    def test_exact_mode_in_netloop(self):
        rec = FlightRecorder(capacity=1 << 15, sample_shift=0)
        set_flight_recorder(rec)
        run = self.run()
        pulls = [r for r in rec.records() if r["kind"] == "pull"]
        ops = [r["ops"] for r in pulls]
        terms = [r["terms"] for r in pulls]
        assert len(ops) == run.total_delivered
        # The paper's WSS bound: at most two terms examined per packet.
        assert max(terms) <= 2
