"""The experiment run harness (config -> sweep -> result -> artifact).

This package is the machinery shared by every experiment in
:mod:`repro.bench`: typed run configuration, deterministic (optionally
process-parallel) parameter sweeps, and structured, machine-readable
result artifacts. The experiments themselves stay in the bench layer as
thin declarative bodies; everything about *running* them — seeding,
timing, fan-out, table emission, JSON artifacts — lives here.

Layering: ``repro.harness`` depends only on the standard library,
:mod:`repro.analysis.tables` (for table rendering), and
:mod:`repro.obs.metrics` (the per-run metrics registry merged into
``RunResult.obs``) — both themselves stdlib-only; it never imports the
bench layer, so scenario/workload code cannot leak into the runner
machinery.
"""

from .config import (
    SCALES,
    ExperimentConfig,
    ExperimentSpec,
    RunContext,
    build_config,
    resolve_params,
)
from .io import atomic_write_json, atomic_write_text, load_json_checked
from .result import RunResult, environment_metadata
from .run import run_config_for_spec, run_spec
from .sweep import SweepPointError, child_seed, spawn_seeds, sweep, task_hash
from .artifacts import (
    artifact_path,
    benchmark_summary,
    load_artifact,
    write_artifact,
)

__all__ = [
    "SCALES",
    "ExperimentConfig",
    "ExperimentSpec",
    "RunContext",
    "RunResult",
    "SweepPointError",
    "artifact_path",
    "atomic_write_json",
    "atomic_write_text",
    "benchmark_summary",
    "build_config",
    "child_seed",
    "environment_metadata",
    "load_artifact",
    "load_json_checked",
    "resolve_params",
    "run_config_for_spec",
    "run_spec",
    "spawn_seeds",
    "sweep",
    "task_hash",
    "write_artifact",
]
