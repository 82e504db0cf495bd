"""Execute one ExperimentConfig against its spec, producing a RunResult."""

from __future__ import annotations

import os
import time
from datetime import datetime, timezone
from typing import Any, Mapping, Optional

from ..net.eventq import ENGINE_ENV_VAR
from .config import ExperimentConfig, ExperimentSpec, RunContext, build_config
from .result import RunResult, environment_metadata

__all__ = ["run_spec", "run_config_for_spec"]


def run_config_for_spec(
    spec: ExperimentSpec, config: ExperimentConfig
) -> RunResult:
    """Run ``spec`` under a fully resolved ``config``.

    ``config.engine`` is applied as the process-default event-queue
    backend (the ``REPRO_ENGINE`` environment variable) for the duration
    of the body, so every Simulator the body builds — including those in
    forked sweep-pool workers, which inherit the environment — uses the
    requested backend without threading an argument through every point
    function. The prior value is restored afterwards.
    """
    params = spec.params_type(**dict(config.params))
    ctx = RunContext(seed=config.seed, jobs=config.jobs, quiet=config.quiet)
    saved = os.environ.get(ENGINE_ENV_VAR)
    if config.engine is not None:
        os.environ[ENGINE_ENV_VAR] = config.engine
    started = datetime.now(timezone.utc)
    t0 = time.perf_counter()
    try:
        metrics = spec.body(params, ctx)
    finally:
        if config.engine is not None:
            if saved is None:
                os.environ.pop(ENGINE_ENV_VAR, None)
            else:
                os.environ[ENGINE_ENV_VAR] = saved
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
    engine: Optional[str] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> RunResult:
    """Build the config for ``spec`` and run it in one call."""
    config = build_config(
        spec, seed=seed, scale=scale, jobs=jobs, quiet=quiet,
        engine=engine, overrides=overrides,
    )
    return run_config_for_spec(spec, config)
