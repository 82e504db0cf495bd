"""The live telemetry bus: heartbeat frames from long-running workers.

Crash-tolerant sweeps and nightly conformance runs take minutes to
hours and, until this module, emitted nothing until they finished — a
hung worker and a slow one looked identical. The telemetry bus makes
progress observable *while it happens*:

* Workers (sweep subprocesses, pool workers, the inline path, the event
  engine's main loop) append small JSON **frames** to a shared per-run
  ``.jsonl`` file: heartbeats with events/s and sim-time progress,
  per-point completions, run start/end markers. Each frame is one line,
  written with a single flushed ``write()`` in append mode — POSIX
  guarantees small ``O_APPEND`` writes are atomic, so frames from many
  processes interleave without tearing (the same reason the atomic-write
  helpers in :mod:`repro.harness.io` stage through ``os.replace``:
  readers never observe a half-written document). A reader can still
  catch a frame mid-write at the file's tail, which is why
  :func:`read_telemetry` tolerates a truncated *final* line, exactly
  like :meth:`repro.obs.trace.Tracer.read_jsonl`.

* ``python -m repro.obs top <results-dir>`` (:mod:`repro.obs.top`)
  tails these files and renders a live table: per-worker throughput,
  done/total progress with an ETA, and stall detection — a source that
  has not produced a frame for ``--stall-after`` seconds without a
  terminal frame is flagged, pairing with the sweep timeout/reaper
  machinery which will eventually kill it.

Activation follows the ``REPRO_ENGINE`` pattern:
CLIs set ``REPRO_TELEMETRY=<path>`` before fanning out, and every
process that inherits it lazily opens its own appending writer on first
:func:`get_telemetry` call. The cached writer is keyed by pid so forked
and spawned workers never share a file object (only the append-mode fd
semantics above).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, TextIO, Union

__all__ = [
    "TELEMETRY_ENV_VAR",
    "TELEMETRY_SCHEMA",
    "TelemetryWriter",
    "get_telemetry",
    "set_telemetry",
    "read_telemetry",
    "rss_kb",
]

#: Environment variable carrying the telemetry file path to workers.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

#: Schema tag stamped on ``run_start`` frames.
TELEMETRY_SCHEMA = "repro.obs/telemetry/v1"

#: Default heartbeat rate limit (seconds between frames per writer).
DEFAULT_INTERVAL_S = 1.0


def rss_kb() -> int:
    """Current resident set size in kB (0 when unknown).

    Reads ``/proc/self/status`` where available (Linux); falls back to
    ``ru_maxrss`` (peak, not current — close enough for leak spotting).
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    try:
        import resource
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return 0


class TelemetryWriter:
    """Appends JSON frames for one process to a shared telemetry file.

    ``frame()`` writes unconditionally; ``heartbeat()`` rate-limits to
    one frame per ``interval_s`` so hot loops can call it freely.
    """

    __slots__ = ("path", "pid", "interval_s", "seq", "_fh", "_last_beat")

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        *,
        interval_s: float = DEFAULT_INTERVAL_S,
    ) -> None:
        self.path = os.fspath(path)
        self.pid = os.getpid()
        self.interval_s = interval_s
        self.seq = 0
        self._fh: Optional[TextIO] = None
        self._last_beat = float("-inf")

    def _file(self) -> TextIO:
        if self._fh is None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def frame(self, kind: str, **fields: Any) -> None:
        """Append one frame unconditionally (start/end/point markers)."""
        self.seq += 1
        payload = {"t": time.time(), "pid": self.pid, "seq": self.seq,
                   "kind": kind}
        payload.update(fields)
        fh = self._file()
        # One write + flush per frame: O_APPEND keeps concurrent writers
        # line-atomic; flushing keeps the dashboard's view current.
        fh.write(json.dumps(payload) + "\n")
        fh.flush()

    def heartbeat(self, kind: str = "heartbeat", **fields: Any) -> bool:
        """Append a frame at most once per ``interval_s``; True if sent."""
        now = time.monotonic()
        if now - self._last_beat < self.interval_s:
            return False
        self._last_beat = now
        fields.setdefault("rss_kb", rss_kb())
        self.frame(kind, **fields)
        return True

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:
        return f"TelemetryWriter({self.path!r}, pid={self.pid})"


# -- process-global writer -----------------------------------------------------

_active: Optional[TelemetryWriter] = None


def get_telemetry() -> Optional[TelemetryWriter]:
    """This process's telemetry writer, or ``None`` when the bus is off.

    A writer installed by :func:`set_telemetry` wins; otherwise, if
    ``REPRO_TELEMETRY=<path>`` is set (inherited from the launching
    CLI), a writer is created lazily. A writer cached by a *parent*
    process is never reused after fork/spawn — the pid check recreates
    a per-process writer with its own file descriptor.
    """
    global _active
    if _active is not None and _active.pid == os.getpid():
        return _active
    path = os.environ.get(TELEMETRY_ENV_VAR)
    if not path:
        _active = None
        return None
    _active = TelemetryWriter(path)
    return _active


def set_telemetry(
    writer: Optional[TelemetryWriter],
) -> Optional[TelemetryWriter]:
    """Install (or with ``None`` remove) this process's writer."""
    global _active
    previous = _active
    _active = writer
    return previous


# -- reading -------------------------------------------------------------------

def read_telemetry(path: Union[str, "os.PathLike[str]"]) -> List[Dict]:
    """Load telemetry frames, tolerating a truncated final line.

    A live run may be flushing a frame while we read, so an
    unparseable *last* line is silently dropped (the next refresh will
    see it whole). Corruption anywhere earlier raises
    :class:`~repro.core.errors.ArtifactError` — same contract as
    :meth:`repro.obs.trace.Tracer.read_jsonl`.
    """
    from ..core.errors import ArtifactError

    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    frames: List[Dict] = []
    for i, line in enumerate(lines):
        try:
            frames.append(json.loads(line))
        except ValueError:
            if i == len(lines) - 1:
                break  # torn tail of a live file
            raise ArtifactError(
                f"{path}: telemetry line {i + 1} is not valid JSON"
            ) from None
    return frames
