"""Structured run results: the RunResult record and its JSON form.

A :class:`RunResult` is the machine-readable record of one experiment
run: the resolved config, the summary metrics (the dict the legacy
``eN_*`` functions returned), the per-sweep-point records every table row
is derived from, the rendered tables themselves, engine/op-count
observability totals, wall time, and environment/git metadata. It
round-trips through JSON losslessly (tuples normalise to lists), which is
what the ``results/`` artifacts and their tests rely on.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from .config import ExperimentConfig, _jsonable

__all__ = ["RunResult", "environment_metadata"]


def _strip_keys(value: Any, keys) -> Any:
    """Recursively drop dict entries whose key is in ``keys``."""
    if isinstance(value, dict):
        return {
            k: _strip_keys(v, keys)
            for k, v in value.items() if k not in keys
        }
    if isinstance(value, list):
        return [_strip_keys(v, keys) for v in value]
    return value


def environment_metadata() -> Dict[str, Any]:
    """Python/platform/git metadata identifying where a run happened."""
    meta: Dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "argv": list(sys.argv),
    }
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if commit.returncode == 0:
            meta["git_commit"] = commit.stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=5,
        )
        if dirty.returncode == 0:
            meta["git_dirty"] = bool(dirty.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout / git unavailable: metadata is best-effort
    return meta


@dataclass
class RunResult:
    """The structured outcome of one experiment run."""

    experiment: str
    config: ExperimentConfig
    metrics: Dict[str, Any]
    points: List[Dict[str, Any]] = field(default_factory=list)
    tables: List[str] = field(default_factory=list)
    engine: Dict[str, float] = field(default_factory=dict)
    #: Observability block: ``{"metrics": <registry snapshot>}`` with
    #: sorted canonical keys. Deliberately NOT volatile — the registry
    #: must be bit-identical across ``--jobs`` values, and the
    #: parallel-vs-serial identity tests enforce that here.
    obs: Dict[str, Any] = field(default_factory=dict)
    started_at: str = ""
    wall_time_s: float = 0.0
    environment: Dict[str, Any] = field(default_factory=dict)
    #: Point/metric field names that measure wall-clock time (declared
    #: by the spec); excluded from the stable comparison form.
    timing_fields: List[str] = field(default_factory=list)

    #: JSON fields that legitimately differ between two runs of the same
    #: config (used by the parallel-vs-serial equality tests and CI).
    VOLATILE_FIELDS = ("started_at", "wall_time_s", "environment", "engine")

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.harness/run-result/v1",
            "experiment": self.experiment,
            "config": self.config.to_json_dict(),
            "metrics": _jsonable(self.metrics),
            "points": _jsonable(self.points),
            "tables": list(self.tables),
            "engine": _jsonable(self.engine),
            "obs": _jsonable(self.obs),
            "started_at": self.started_at,
            "wall_time_s": self.wall_time_s,
            "environment": _jsonable(self.environment),
            "timing_fields": list(self.timing_fields),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        return cls(
            experiment=data["experiment"],
            config=ExperimentConfig.from_json_dict(data["config"]),
            metrics=dict(data.get("metrics", {})),
            points=[dict(p) for p in data.get("points", [])],
            tables=list(data.get("tables", [])),
            engine=dict(data.get("engine", {})),
            obs=dict(data.get("obs", {})),
            started_at=data.get("started_at", ""),
            wall_time_s=data.get("wall_time_s", 0.0),
            environment=dict(data.get("environment", {})),
            timing_fields=list(data.get("timing_fields", [])),
        )

    def stable_json_dict(self) -> Dict[str, Any]:
        """The JSON form minus run-volatile fields (timestamps, wall
        time, environment) — two runs of the same config at the same
        code must agree on this exactly, regardless of ``--jobs``."""
        data = self.to_json_dict()
        for key in self.VOLATILE_FIELDS:
            data.pop(key, None)
        data["config"].pop("jobs", None)
        data["config"].pop("quiet", None)
        # Per-point engine records carry the same volatility (the
        # simulator's wall-time counter) down at point granularity, and
        # timing experiments measure wall clock as their data.
        drop = set(self.timing_fields) | {"engine"}
        data["points"] = [_strip_keys(p, drop) for p in data["points"]]
        data["metrics"] = _strip_keys(
            data["metrics"], set(self.timing_fields)
        )
        if self.timing_fields:
            # Rendered tables embed the timing columns.
            data.pop("tables", None)
        return data
