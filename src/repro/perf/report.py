"""pytest-benchmark-compatible JSON reporting + regression comparison.

The document written to ``BENCH_runtime.json`` follows the layout of
pytest-benchmark's ``--benchmark-json`` output (``machine_info`` /
``commit_info`` / ``benchmarks[].stats``), so standard tooling
(pytest-benchmark compare, CI dashboards) can consume it directly.
``extra_info`` carries the throughput numbers this repo actually gates
on (work items per second), and :func:`compare` implements the
tolerance-based regression check used by the CI perf smoke job.
"""

from __future__ import annotations

import math
import platform
import subprocess
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence

from .benchmarks import BenchResult

__all__ = [
    "build_document", "compare", "speedup_summary", "fastpath_speedup",
]

SCHEMA = "repro.perf/bench/v1"


def _stats(times: Sequence[float]) -> Dict[str, float]:
    n = len(times)
    mean = sum(times) / n
    var = sum((t - mean) ** 2 for t in times) / (n - 1) if n > 1 else 0.0
    ordered = sorted(times)
    mid = n // 2
    median = (
        ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    )
    return {
        "min": ordered[0],
        "max": ordered[-1],
        "mean": mean,
        "stddev": math.sqrt(var),
        "median": median,
        "rounds": n,
        "ops": 1.0 / mean if mean > 0 else 0.0,
    }


def _machine_info() -> Dict[str, Any]:
    return {
        "node": platform.node(),
        "processor": platform.processor(),
        "machine": platform.machine(),
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "system": platform.system(),
        "release": platform.release(),
    }


def _commit_info() -> Dict[str, Any]:
    info: Dict[str, Any] = {"id": None, "dirty": None, "branch": None}
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if head.returncode == 0:
            info["id"] = head.stdout.strip()
        branch = subprocess.run(
            ["git", "rev-parse", "--abbrev-ref", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if branch.returncode == 0:
            info["branch"] = branch.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=5,
        )
        if status.returncode == 0:
            info["dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass  # best-effort: benches also run outside git checkouts
    return info


def build_document(results: Sequence[BenchResult]) -> Dict[str, Any]:
    """Assemble the full pytest-benchmark-compatible JSON document."""
    benchmarks: List[Dict[str, Any]] = []
    for result in results:
        bench = result.benchmark
        benchmarks.append({
            "group": bench.group,
            "name": bench.name,
            "fullname": f"repro.perf::{bench.name}",
            "params": dict(bench.params),
            "stats": _stats(result.times),
            "extra_info": {
                "work_items": result.work_items,
                "throughput_per_s": result.throughput,
            },
        })
    return {
        "schema": SCHEMA,
        "datetime": datetime.now(timezone.utc).isoformat(),
        "machine_info": _machine_info(),
        "commit_info": _commit_info(),
        "benchmarks": benchmarks,
    }


def speedup_summary(doc: Dict[str, Any]) -> Dict[str, float]:
    """Calendar-vs-heap speedups derivable from one document.

    Returns ``{"event_loop": x, "end_to_end": y}`` (throughput ratios,
    calendar over heap) for whichever groups have both engines present.
    """
    by_group: Dict[str, Dict[str, float]] = {}
    for bench in doc.get("benchmarks", []):
        engine = bench.get("params", {}).get("engine")
        if engine is None:
            continue
        rate = bench.get("extra_info", {}).get("throughput_per_s", 0.0)
        by_group.setdefault(bench["group"], {})[engine] = rate
    out: Dict[str, float] = {}
    for group, rates in by_group.items():
        if rates.get("heap") and rates.get("calendar"):
            out[group] = rates["calendar"] / rates["heap"]
    return out


def fastpath_speedup(doc: Dict[str, Any]) -> Dict[str, float]:
    """Lean-replay-vs-event-engine speedups, per group, from one document.

    Compares *mean round times* (engine over lean replay), not
    throughput: the engine benches count events as work items while the
    lean loop counts packets, so their rates are not commensurable — but
    each pair runs the semantically identical workload, so wall time is.
    The engine side is the calendar run (the faster engine, i.e. the
    conservative denominator); the lean side is the entry whose params
    carry ``core: "fast"`` and no ``engine``.
    """
    objects: Dict[str, float] = {}
    fasts: Dict[str, float] = {}
    for bench in doc.get("benchmarks", []):
        params = bench.get("params", {})
        mean = bench.get("stats", {}).get("mean", 0.0)
        if params.get("core") == "fast" and "engine" not in params:
            fasts[bench["group"]] = mean
        elif params.get("engine") == "calendar":
            objects[bench["group"]] = mean
    out: Dict[str, float] = {}
    for group, fast_mean in fasts.items():
        obj_mean = objects.get(group)
        if obj_mean and fast_mean:
            out[group] = obj_mean / fast_mean
    return out


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    tolerance: float = 1.25,
) -> List[str]:
    """Regression check: mean round time vs the baseline, per benchmark.

    A benchmark regresses when its mean exceeds the baseline mean by more
    than ``tolerance`` (e.g. 1.25 = 25% slower). A baseline benchmark
    missing from the current run is also a failure — silently dropping a
    bench would hollow out the gate. Returns human-readable failure
    lines; empty means within tolerance.
    """
    if tolerance <= 1.0:
        raise ValueError(f"tolerance must be > 1.0, got {tolerance}")
    current_by_name = {
        b["name"]: b for b in current.get("benchmarks", [])
    }
    failures: List[str] = []
    for base in baseline.get("benchmarks", []):
        name = base["name"]
        now = current_by_name.get(name)
        if now is None:
            failures.append(f"{name}: missing from current run")
            continue
        base_mean = base["stats"]["mean"]
        now_mean = now["stats"]["mean"]
        if base_mean > 0 and now_mean > base_mean * tolerance:
            failures.append(
                f"{name}: {now_mean:.4f}s vs baseline "
                f"{base_mean:.4f}s ({now_mean / base_mean:.2f}x, "
                f"tolerance {tolerance:.2f}x)"
            )
    return failures
