"""Tests for the telemetry bus (repro.obs.telemetry) and the dashboard."""

import json

import pytest

from repro.core.errors import ArtifactError
from repro.obs.telemetry import (
    TELEMETRY_ENV_VAR,
    TelemetryWriter,
    get_telemetry,
    read_telemetry,
    set_telemetry,
)
from repro.obs.top import collect_frames, render, summarize


@pytest.fixture(autouse=True)
def clean_bus(monkeypatch):
    monkeypatch.delenv(TELEMETRY_ENV_VAR, raising=False)
    previous = set_telemetry(None)
    yield
    set_telemetry(previous)


class TestWriter:
    def test_frames_carry_envelope_and_sequence(self, tmp_path):
        path = tmp_path / "run.jsonl"
        w = TelemetryWriter(path)
        w.frame("run_start", total=5)
        w.frame("run_end")
        w.close()
        frames = read_telemetry(path)
        assert [f["kind"] for f in frames] == ["run_start", "run_end"]
        assert [f["seq"] for f in frames] == [1, 2]
        assert frames[0]["total"] == 5
        assert all(f["pid"] == w.pid and "t" in f for f in frames)

    def test_heartbeat_rate_limited(self, tmp_path):
        w = TelemetryWriter(tmp_path / "run.jsonl", interval_s=3600)
        assert w.heartbeat(events=1) is True
        assert w.heartbeat(events=2) is False  # inside the interval
        w.close()
        frames = read_telemetry(w.path)
        assert len(frames) == 1
        assert frames[0]["events"] == 1
        assert "rss_kb" in frames[0]  # filled in by default

    def test_concurrent_writers_interleave(self, tmp_path):
        path = tmp_path / "run.jsonl"
        a, b = TelemetryWriter(path), TelemetryWriter(path)
        a.frame("sweep", done=1)
        b.frame("sweep", done=2)
        a.frame("sweep", done=3)
        a.close()
        b.close()
        assert [f["done"] for f in read_telemetry(path)] == [1, 2, 3]

    def test_env_activation_per_process(self, tmp_path, monkeypatch):
        assert get_telemetry() is None
        monkeypatch.setenv(TELEMETRY_ENV_VAR, str(tmp_path / "env.jsonl"))
        w = get_telemetry()
        assert w is not None
        assert get_telemetry() is w  # cached for this pid
        w.frame("run_start")
        w.close()
        assert read_telemetry(tmp_path / "env.jsonl")


class TestReader:
    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        line = json.dumps({"t": 1.0, "pid": 1, "kind": "heartbeat"})
        path.write_text(line + "\n" + line[: len(line) // 2])
        frames = read_telemetry(path)
        assert len(frames) == 1  # torn tail dropped silently

    def test_mid_file_garbage_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        line = json.dumps({"t": 1.0, "pid": 1, "kind": "heartbeat"})
        path.write_text("not json\n" + line + "\n")
        with pytest.raises(ArtifactError):
            read_telemetry(path)


def write_frames(path, frames):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(f) + "\n" for f in frames))


class TestDashboard:
    def test_collect_groups_by_file_and_pid(self, tmp_path):
        tele = tmp_path / "telemetry"
        write_frames(tele / "a.jsonl", [
            {"t": 1.0, "pid": 10, "kind": "run_start"},
            {"t": 2.0, "pid": 11, "kind": "run_start"},
        ])
        write_frames(tele / "b.jsonl", [{"t": 1.0, "pid": 12, "kind": "sweep"}])
        sources = collect_frames(str(tmp_path))
        assert set(sources) == {("a.jsonl", 10), ("a.jsonl", 11),
                                ("b.jsonl", 12)}

    def test_finished_done_and_stalled(self, tmp_path):
        tele = tmp_path / "telemetry"
        write_frames(tele / "done.jsonl", [
            {"t": 0.0, "pid": 1, "kind": "run_start"},
            {"t": 5.0, "pid": 1, "kind": "run_end"},
        ])
        write_frames(tele / "hung.jsonl", [
            {"t": 0.0, "pid": 2, "kind": "heartbeat"},
        ])
        rows = summarize(collect_frames(str(tmp_path)), now=100.0,
                         stall_after=10.0)
        by_file = {r["file"]: r for r in rows}
        assert by_file["done.jsonl"]["finished"] is True
        assert by_file["done.jsonl"]["stalled"] is False
        assert by_file["hung.jsonl"]["finished"] is False
        assert by_file["hung.jsonl"]["stalled"] is True
        body = render(rows)
        assert "done" in body and "STALLED" in body

    def test_progress_rate_and_eta(self, tmp_path):
        tele = tmp_path / "telemetry"
        write_frames(tele / "sweep.jsonl", [
            {"t": 0.0, "pid": 1, "kind": "sweep", "done": 0, "total": 10},
            {"t": 5.0, "pid": 1, "kind": "sweep", "done": 5, "total": 10},
        ])
        (row,) = summarize(collect_frames(str(tmp_path)), now=5.0)
        assert row["done"] == 5 and row["total"] == 10
        assert row["eta_s"] == pytest.approx(5.0)  # 1 point/s, 5 left
        assert "5/10" in render([row])

    def test_render_empty(self):
        assert "no telemetry frames" in render([])


class TestCli:
    def test_top_once_snapshot(self, tmp_path, capsys):
        from repro.obs.__main__ import main
        tele = tmp_path / "telemetry"
        write_frames(tele / "run.jsonl", [
            {"t": 0.0, "pid": 1, "kind": "run_start"},
            {"t": 1.0, "pid": 1, "kind": "run_end"},
        ])
        assert main(["top", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "run.jsonl" in out and "done" in out
