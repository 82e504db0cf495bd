"""Tests for the per-flow SLO watchdog."""

import pytest

from repro.core import ConfigurationError, SLOViolation
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.qos import SLOWatchdog


class FakePacket:
    def __init__(self, flow_id, created_at, delivered_at, seq=0, size=200):
        self.flow_id = flow_id
        self.created_at = created_at
        self.delivered_at = delivered_at
        self.seq = seq
        self.size = size


def make_watchdog(mode="record"):
    return SLOWatchdog(mode=mode, tracer=None, registry=MetricsRegistry())


class TestWatch:
    def test_unwatched_flows_ignored(self):
        dog = make_watchdog(mode="raise")
        dog.on_delivery(FakePacket("be-1", 0.0, 99.0))  # very late, no SLO
        assert not dog.violations

    def test_record_mode_counts(self):
        dog = make_watchdog()
        dog.watch("f1", 0.010)
        dog.on_delivery(FakePacket("f1", 0.0, 0.005))
        dog.on_delivery(FakePacket("f1", 0.0, 0.050, seq=1))
        dog.on_delivery(FakePacket("f1", 0.0, 0.020, seq=2))
        assert len(dog.violations) == 2
        assert dog.violation_count("f1") == 2
        assert dog.worst_delay("f1") == pytest.approx(0.050)
        v = dog.violations[0]
        assert isinstance(v, SLOViolation)
        assert v.flow_id == "f1"
        assert v.observed_s == pytest.approx(0.050)
        assert v.target_s == pytest.approx(0.010)
        assert v.details["seq"] == 1

    def test_raise_mode_raises_on_first_exceedance(self):
        dog = make_watchdog(mode="raise")
        dog.watch("f1", 0.010)
        dog.on_delivery(FakePacket("f1", 0.0, 0.005))
        with pytest.raises(SLOViolation):
            dog.on_delivery(FakePacket("f1", 0.0, 0.011))

    def test_unwatch_stops_checking(self):
        dog = make_watchdog(mode="raise")
        dog.watch("f1", 0.010)
        dog.unwatch("f1")
        dog.on_delivery(FakePacket("f1", 0.0, 1.0))  # no longer watched
        assert not dog.violations
        assert dog.watched() == {}

    def test_watch_updates_target_in_place(self):
        dog = make_watchdog()
        dog.watch("f1", 0.010)
        dog.watch("f1", 0.100)  # re-quote loosened the target
        dog.on_delivery(FakePacket("f1", 0.0, 0.050))
        assert not dog.violations
        assert dog.watched() == {"f1": 0.100}

    def test_zero_window_attaches_no_events(self):
        tracer = Tracer()
        for i in range(8):
            tracer.emit("enqueue", float(i), flow="f1")
        dog = SLOWatchdog(mode="raise", window=0, tracer=tracer,
                          registry=MetricsRegistry())
        dog.watch("f1", 0.010)
        with pytest.raises(SLOViolation) as info:
            dog.on_delivery(FakePacket("f1", 0.0, 0.050))
        assert info.value.trace_window == []
        with pytest.raises(ConfigurationError):
            SLOWatchdog(window=-1, registry=MetricsRegistry())

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            make_watchdog().watch("f1", 0.0)
        with pytest.raises(ConfigurationError):
            SLOWatchdog(mode="panic", registry=MetricsRegistry())


class TestReporting:
    def test_listener_and_class_totals(self):
        dog = make_watchdog()
        dog.watch("gold", 0.01, service_class="guaranteed")
        dog.watch("iron", 0.01, service_class="best-effort")
        seen = []
        dog.add_violation_listener(seen.append)
        dog.on_delivery(FakePacket("gold", 0.0, 0.02))
        dog.on_delivery(FakePacket("iron", 0.0, 0.03))
        dog.on_delivery(FakePacket("iron", 0.0, 0.04))
        assert [v.flow_id for v in seen] == ["gold", "iron", "iron"]
        assert dog.class_violations() == {"guaranteed": 1, "best-effort": 2}
        summary = dog.summary()
        assert summary["watched"] == 2
        assert summary["violations"] == 3

    def test_registry_counters(self):
        registry = MetricsRegistry()
        dog = SLOWatchdog(mode="record", tracer=None, registry=registry)
        dog.watch("f1", 0.010)
        dog.on_delivery(FakePacket("f1", 0.0, 0.005))
        dog.on_delivery(FakePacket("f1", 0.0, 0.050))
        snap = registry.snapshot()
        assert snap["slo_checks_total"]["value"] == 2
        assert snap["slo_violations_total"]["value"] == 1
