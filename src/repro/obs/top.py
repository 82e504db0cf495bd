"""``python -m repro.obs top``: a live dashboard over telemetry files.

Tails the per-run JSONL telemetry files that sweep, conformance and
engine workers append (see :mod:`repro.obs.telemetry`) and renders a
refreshing terminal table: one row per (file, pid) source showing
throughput (events/s from engine heartbeats), sweep progress with an
ETA, resident memory, and a stall flag — a source whose newest frame is
older than ``--stall-after`` seconds and that has not written a
terminal frame is marked ``STALLED``, the live-side complement of the
sweep reaper's hard timeout.

``--once`` renders a single snapshot and exits (what CI and the tests
use); the default loops until interrupted.
"""

from __future__ import annotations

import glob
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.tables import format_table
from ..core.errors import ArtifactError
from .telemetry import read_telemetry

__all__ = ["collect_frames", "summarize", "render", "main"]

#: Frame kinds that mark a source as finished (never flagged stalled).
TERMINAL_KINDS = frozenset({"run_end", "sweep_end"})

DEFAULT_STALL_AFTER_S = 10.0


def telemetry_files(target: str) -> List[str]:
    """Telemetry files under ``target`` (a dir, scanned recursively, or
    a single ``.jsonl`` file)."""
    if os.path.isfile(target):
        return [target]
    pattern = os.path.join(target, "**", "*.jsonl")
    return sorted(
        path for path in glob.glob(pattern, recursive=True)
        if "telemetry" in os.path.basename(path)
        or "telemetry" in os.path.basename(os.path.dirname(path))
    )


def collect_frames(
    target: str,
) -> Dict[Tuple[str, int], List[Dict[str, Any]]]:
    """All readable frames grouped by (file, pid), frames in file order."""
    sources: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
    for path in telemetry_files(target):
        try:
            frames = read_telemetry(path)
        except (OSError, ArtifactError):
            continue  # mid-rotation or corrupt: skip this refresh
        label = os.path.basename(path)
        for frame in frames:
            key = (label, int(frame.get("pid", 0)))
            sources.setdefault(key, []).append(frame)
    return sources


def _rate(frames: Sequence[Dict[str, Any]], field: str) -> Optional[float]:
    """Delta rate of a monotone counter field across its frame span."""
    carrying = [f for f in frames if field in f]
    if len(carrying) < 2:
        return None
    first, last = carrying[0], carrying[-1]
    dt = last["t"] - first["t"]
    if dt <= 0:
        return None
    return (last[field] - first[field]) / dt


def summarize(
    sources: Dict[Tuple[str, int], List[Dict[str, Any]]],
    *,
    now: Optional[float] = None,
    stall_after: float = DEFAULT_STALL_AFTER_S,
) -> List[Dict[str, Any]]:
    """One status row per source, sorted by file then pid."""
    if now is None:
        now = time.time()
    rows: List[Dict[str, Any]] = []
    for (label, pid), frames in sorted(sources.items()):
        last = frames[-1]
        age = now - last["t"]
        finished = any(f.get("kind") in TERMINAL_KINDS for f in frames)
        done = total = None
        for frame in reversed(frames):
            if "done" in frame:
                done = frame.get("done")
                total = frame.get("total")
                break
        eta = None
        points_rate = _rate(frames, "done")
        if (
            not finished and points_rate and done is not None
            and total is not None and total > done
        ):
            eta = (total - done) / points_rate
        # Overload-control state from the newest "control" frame (the
        # ControlPlane's telemetry); absent for runs with no controller.
        control = None
        control_frames = [f for f in frames if f.get("kind") == "control"]
        if control_frames:
            last_control = control_frames[-1]
            control = {
                "zone": last_control.get("zone"),
                "load": last_control.get("load"),
                "shed": last_control.get("shed"),
                "shed_per_s": _rate(control_frames, "shed"),
                "revocations": last_control.get("revocations"),
            }
        rows.append({
            "file": label,
            "pid": pid,
            "frames": len(frames),
            "kind": last.get("kind", "?"),
            "events_per_s": _rate(frames, "events"),
            "sim_time": last.get("sim_time"),
            "done": done,
            "total": total,
            "failed": next(
                (f["failed"] for f in reversed(frames) if "failed" in f), None
            ),
            "eta_s": eta,
            "control": control,
            "rss_kb": last.get("rss_kb"),
            "age_s": age,
            "finished": finished,
            "stalled": not finished and age > stall_after,
        })
    return rows


def _cell(value: Any, fmt: str = "{}") -> str:
    return "-" if value is None else fmt.format(value)


def render(rows: List[Dict[str, Any]], *, title: str = "telemetry") -> str:
    """The status rows as an aligned table."""
    if not rows:
        return "(no telemetry frames found)"
    table_rows = []
    for row in rows:
        progress = "-"
        if row["done"] is not None:
            progress = f"{row['done']}/{_cell(row['total'])}"
            if row["failed"]:
                progress += f" ({row['failed']} failed)"
        status = "done" if row["finished"] else (
            "STALLED" if row["stalled"] else "running"
        )
        control = "-"
        if row.get("control") is not None:
            c = row["control"]
            shed = c["shed"] if c["shed"] is not None else 0
            control = f"{_cell(c['zone'])} shed:{shed}"
            if c["shed_per_s"]:
                control += f"({c['shed_per_s']:.1f}/s)"
            if c["revocations"]:
                control += f" rev:{c['revocations']}"
        table_rows.append([
            row["file"],
            row["pid"],
            row["kind"],
            _cell(row["events_per_s"], "{:,.0f}/s"),
            _cell(row["sim_time"], "{:.3f}"),
            progress,
            _cell(row["eta_s"], "{:.0f}s"),
            control,
            _cell(row["rss_kb"]),
            f"{row['age_s']:.1f}s",
            status,
        ])
    return format_table(
        ["source", "pid", "last", "events", "sim_t", "points", "eta",
         "control", "rss_kb", "age", "status"],
        table_rows,
        title=title,
    )


def main(
    target: str,
    *,
    once: bool = False,
    interval_s: float = 2.0,
    stall_after: float = DEFAULT_STALL_AFTER_S,
) -> int:
    """Entry point behind ``python -m repro.obs top``."""
    while True:
        rows = summarize(collect_frames(target), stall_after=stall_after)
        body = render(rows, title=f"telemetry: {target}")
        if once:
            print(body)
            return 0
        # Clear + home, then redraw: a plain-ANSI refresh loop keeps the
        # dashboard dependency-free.
        sys.stdout.write("\x1b[2J\x1b[H" + body + "\n")
        sys.stdout.write(
            f"(refreshing every {interval_s:g}s; Ctrl-C to exit)\n"
        )
        sys.stdout.flush()
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:
            return 0
