"""Tests for packet-lifecycle tracing (repro.obs.trace)."""

import pytest

from repro.net import CBRSource, Network, Simulator
from repro.obs.trace import Tracer, get_tracer, set_tracer


@pytest.fixture
def restore_tracer():
    previous = get_tracer()
    yield
    set_tracer(previous)


def small_net():
    net = Network(default_scheduler="srr")
    for n in ("h", "r", "d"):
        net.add_node(n)
    net.add_link("h", "r", rate_bps=10e6, delay=0.001)
    net.add_link("r", "d", rate_bps=1e6, delay=0.001)
    return net


class TestTracerBuffer:
    def test_emit_and_filter(self):
        tr = Tracer()
        tr.emit("enqueue", 0.5, port="p", flow="f", uid=1)
        tr.emit("transmit", 1.0, port="p", flow="f", uid=1)
        assert len(tr) == 2
        assert tr.events("enqueue") == [
            {"t": 0.5, "kind": "enqueue", "port": "p", "flow": "f", "uid": 1}
        ]

    def test_none_fields_dropped(self):
        tr = Tracer()
        tr.emit("drop", 0.0, port="p", flow=None)
        assert tr.events() == [{"t": 0.0, "kind": "drop", "port": "p"}]

    def test_ring_keeps_newest(self):
        tr = Tracer(capacity=4)
        for i in range(10):
            tr.emit("enqueue", float(i), uid=i)
        assert len(tr) == 4
        assert tr.emitted == 10
        assert tr.dropped == 6
        assert [e["uid"] for e in tr.events()] == [6, 7, 8, 9]

    def test_wrap_at_exact_capacity(self):
        tr = Tracer(capacity=4)
        for i in range(4):
            tr.emit("enqueue", float(i), uid=i)
        # Exactly full: everything retained, nothing counted dropped.
        assert len(tr) == 4 and tr.dropped == 0
        assert [e["uid"] for e in tr.events()] == [0, 1, 2, 3]
        tr.emit("enqueue", 4.0, uid=4)
        assert len(tr) == 4 and tr.dropped == 1
        assert [e["uid"] for e in tr.events()] == [1, 2, 3, 4]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clear(self):
        tr = Tracer()
        tr.emit("enqueue", 0.0)
        tr.clear()
        assert len(tr) == 0 and tr.emitted == 0


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tr = Tracer()
        tr.emit("enqueue", 0.25, port="p", flow="f1", uid=7, size=200)
        tr.emit("dequeue", 0.5, port="p", flow="f1", uid=7, waited_s=0.25)
        path = str(tmp_path / "trace.jsonl")
        assert tr.write_jsonl(path) == 2
        assert Tracer.read_jsonl(path) == tr.events()

    def test_file_object_and_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 0.0, "kind": "drop"}\n\n')
        with open(path) as fh:
            events = Tracer.read_jsonl(fh)
        assert events == [{"t": 0.0, "kind": "drop"}]

    def test_truncated_final_line_tolerated(self, tmp_path):
        """A crash mid-write loses at most the last event, not the file."""
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"t": 0.0, "kind": "drop"}\n{"t": 0.5, "kind": "deq'
        )
        assert Tracer.read_jsonl(str(path)) == [{"t": 0.0, "kind": "drop"}]

    def test_mid_file_garbage_raises_artifact_error(self, tmp_path):
        from repro.core.errors import ArtifactError

        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"t": 0.0, "kind": "drop"}\nnot json\n{"t": 1.0, "kind": "drop"}\n'
        )
        with pytest.raises(ArtifactError) as info:
            Tracer.read_jsonl(str(path))
        assert "line 2" in str(info.value)

    def test_write_is_atomic(self, tmp_path):
        tr = Tracer()
        tr.emit("enqueue", 0.25, port="p", flow="f1")
        path = tmp_path / "trace.jsonl"
        tr.write_jsonl(str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]


class TestEngineHook:
    def test_records_slow_callbacks(self):
        sim = Simulator()
        tr = Tracer()
        sim.callback_hook = tr.engine_hook(threshold_s=0.0)
        sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        sim.run()
        events = tr.events("sim_event")
        assert len(events) == 2
        assert events[0]["t"] == pytest.approx(0.1)
        assert "fn" in events[0] and "elapsed_s" in events[0]

    def test_threshold_filters(self):
        sim = Simulator()
        tr = Tracer()
        sim.callback_hook = tr.engine_hook(threshold_s=10.0)
        sim.schedule(0.1, lambda: None)
        sim.run()
        assert tr.events("sim_event") == []


class TestPortEmission:
    def test_lifecycle_events_from_network_run(self, restore_tracer):
        tr = Tracer()
        set_tracer(tr)
        net = small_net()
        net.add_flow("f1", "h", "d", weight=1)
        net.attach_source(
            "f1", CBRSource(rate_bps=80_000, packet_size=200, stop_at=0.5)
        )
        net.run(until=2.0)
        kinds = {e["kind"] for e in tr.events()}
        assert {"enqueue", "sched_decision", "dequeue", "transmit"} <= kinds
        # Store-and-forward conservation: every transmit had a dequeue,
        # every dequeue an enqueue; two hops each see every packet.
        n_tx = len(tr.events("transmit"))
        assert n_tx == len(tr.events("dequeue"))
        assert n_tx == len(tr.events("enqueue"))
        assert n_tx == 2 * net.sinks.flows["f1"].packets
        waited = tr.events("dequeue")[0]
        assert waited["waited_s"] >= 0.0
        assert waited["port"] and waited["flow"] == "f1"

    def test_drop_events(self, restore_tracer):
        tr = Tracer()
        set_tracer(tr)
        net = Network(default_scheduler="srr")
        for n in ("h", "d"):
            net.add_node(n)
        net.add_link("h", "d", rate_bps=8_000, delay=0.001,
                     buffer_packets=2)
        net.add_flow("f1", "h", "d", weight=1)
        net.attach_source(
            "f1", CBRSource(rate_bps=800_000, packet_size=100, stop_at=0.2)
        )
        net.run(until=1.0)
        drops = tr.events("drop")
        assert drops, "overloaded 2-packet buffer must drop"
        assert drops[0]["flow"] == "f1"
        port = next(iter(net.nodes["h"].ports.values()))
        assert len(drops) == port.drops

    def test_ports_off_by_default(self):
        assert get_tracer() is None
        net = small_net()
        port = next(iter(net.nodes["h"].ports.values()))
        assert port.tracer is None


class TestCliFlag:
    def test_bench_trace_flag_writes_jsonl(self, tmp_path, capsys):
        from repro.bench.runner import main

        path = str(tmp_path / "e3.jsonl")
        rc = main([
            "e3", "--quick", "--no-artifact", "--quiet",
            "--jobs", "2", "--trace", path,
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "forces --jobs 1" in err
        events = Tracer.read_jsonl(path)
        assert events, "a network experiment must emit lifecycle events"
        assert {"enqueue", "transmit"} <= {e["kind"] for e in events}
        # The flag restores the previous (off) state afterwards.
        assert get_tracer() is None
