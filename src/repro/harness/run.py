"""Execute one ExperimentConfig against its spec, producing a RunResult."""

from __future__ import annotations

import time
from datetime import datetime, timezone
from typing import Any, Mapping, Optional

from .config import ExperimentConfig, ExperimentSpec, RunContext, build_config
from .result import RunResult, environment_metadata

__all__ = ["run_spec", "run_config_for_spec"]


def run_config_for_spec(
    spec: ExperimentSpec, config: ExperimentConfig
) -> RunResult:
    """Run ``spec`` under a fully resolved ``config``."""
    params = spec.params_type(**dict(config.params))
    ctx = RunContext(seed=config.seed, jobs=config.jobs, quiet=config.quiet)
    started = datetime.now(timezone.utc)
    t0 = time.perf_counter()
    metrics = spec.body(params, ctx)
    wall = time.perf_counter() - t0
    return RunResult(
        experiment=spec.eid,
        config=config,
        metrics=metrics,
        points=ctx.points,
        tables=ctx.tables,
        engine=dict(ctx.engine),
        obs={"metrics": ctx.metrics.snapshot()},
        started_at=started.isoformat(),
        wall_time_s=wall,
        environment=environment_metadata(),
        timing_fields=list(spec.timing_fields),
    )


def run_spec(
    spec: ExperimentSpec,
    *,
    seed: int = 1,
    scale: str = "default",
    jobs: int = 1,
    quiet: bool = True,
    overrides: Optional[Mapping[str, Any]] = None,
) -> RunResult:
    """Build the config for ``spec`` and run it in one call."""
    config = build_config(
        spec, seed=seed, scale=scale, jobs=jobs, quiet=quiet,
        overrides=overrides,
    )
    return run_config_for_spec(spec, config)
