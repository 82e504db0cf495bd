"""Typed run configuration: ExperimentConfig, ExperimentSpec, RunContext.

An :class:`ExperimentSpec` is the declarative description of one
experiment: its id, title, a frozen dataclass of typed parameters (the
replacement for ad-hoc ``**kwargs``), per-scale parameter presets, and a
body function. An :class:`ExperimentConfig` is one concrete run of a
spec: resolved parameters plus ``seed``/``scale``/``jobs``. The body
receives a :class:`RunContext`, which carries the seed and job count,
runs sweeps, and collects the per-point records and rendered tables that
end up in the :class:`~repro.harness.result.RunResult`.
"""

from __future__ import annotations

import random
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.tables import records_table
from ..core.errors import ConfigurationError
from ..net.eventq import QUEUE_KINDS
from ..obs.metrics import MetricsRegistry
from .sweep import FailedRun, child_seed, sweep

__all__ = [
    "SCALES",
    "ExperimentConfig",
    "ExperimentSpec",
    "RunContext",
    "build_config",
    "resolve_params",
]

#: The recognised run scales, smallest to largest.
SCALES = ("quick", "default", "full")


def _jsonable(value: Any) -> Any:
    """Normalise params for JSON: tuples -> lists, dict keys -> str."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One concrete, reproducible experiment run.

    ``params`` holds the fully resolved per-experiment parameters (the
    field names of the spec's params dataclass); ``seed`` is the root of
    every RNG used by the run; ``scale`` records which preset produced
    the params; ``jobs`` is the sweep fan-out.
    """

    experiment: str
    seed: int = 1
    scale: str = "default"
    jobs: int = 1
    quiet: bool = True
    #: Crash-tolerance knobs forwarded to :func:`repro.harness.sweep.sweep`
    #: (all off by default; like ``jobs`` they cannot change results, only
    #: whether a run survives a hung or crashing point).
    timeout: Optional[float] = None
    retries: int = 0
    retry_backoff: float = 0.0
    checkpoint_dir: Optional[str] = None
    #: Event-queue backend for every Simulator in the run (``"heap"`` /
    #: ``"calendar"``); ``None`` leaves the process default in place.
    #: Like ``jobs``, this cannot change results — only wall time — so
    #: the stable result form excludes it.
    engine: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "scale": self.scale,
            "jobs": self.jobs,
            "quiet": self.quiet,
            "timeout": self.timeout,
            "retries": self.retries,
            "retry_backoff": self.retry_backoff,
            "checkpoint_dir": self.checkpoint_dir,
            "engine": self.engine,
            "params": _jsonable(dict(self.params)),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ExperimentConfig":
        return cls(
            experiment=data["experiment"],
            seed=data.get("seed", 1),
            scale=data.get("scale", "default"),
            jobs=data.get("jobs", 1),
            quiet=data.get("quiet", True),
            timeout=data.get("timeout"),
            retries=data.get("retries", 0),
            retry_backoff=data.get("retry_backoff", 0.0),
            checkpoint_dir=data.get("checkpoint_dir"),
            engine=data.get("engine"),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment.

    Attributes:
        eid: Short id (``"e1"`` .. ``"e12"``).
        title: One-line description (CLI listing).
        params_type: A (frozen) dataclass of typed parameters with
            defaults — the ``default`` scale.
        body: ``body(params, ctx) -> metrics dict``. The metrics dict is
            the experiment's summary result (the legacy return value);
            per-point records and tables are collected on the ctx.
        scales: Parameter overrides per scale name (``"quick"``/
            ``"full"``); the ``default`` scale is the dataclass defaults.
        timing_fields: Names of point/metric fields whose *measured
            value* is wall-clock time (timing experiments). These are
            inherently run-volatile, so the stable result form excludes
            them from the parallel-vs-serial identity.
    """

    eid: str
    title: str
    params_type: type
    body: Callable[[Any, "RunContext"], Dict]
    scales: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    timing_fields: Tuple[str, ...] = ()

    def param_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(self.params_type))


def resolve_params(
    spec: ExperimentSpec,
    scale: str = "default",
    overrides: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Defaults -> scale preset -> explicit overrides, validated."""
    if scale not in SCALES:
        raise ConfigurationError(
            f"unknown scale {scale!r}; choose from {SCALES}"
        )
    if not is_dataclass(spec.params_type):
        raise ConfigurationError(
            f"{spec.eid}: params_type must be a dataclass"
        )
    names = set(spec.param_names())
    resolved: Dict[str, Any] = {}
    for f in fields(spec.params_type):
        if f.default is not MISSING:
            resolved[f.name] = f.default
        elif f.default_factory is not MISSING:
            resolved[f.name] = f.default_factory()
        else:
            raise ConfigurationError(
                f"{spec.eid}: parameter {f.name!r} has no default"
            )
    for layer_name, layer in (
        (f"scale {scale!r}", spec.scales.get(scale, {})),
        ("overrides", overrides or {}),
    ):
        for key, value in layer.items():
            if key not in names:
                raise ConfigurationError(
                    f"{spec.eid}: unknown parameter {key!r} in {layer_name}; "
                    f"known: {sorted(names)}"
                )
            resolved[key] = value
    return resolved


def build_config(
    spec: ExperimentSpec,
    *,
    seed: int = 1,
    scale: str = "default",
    jobs: int = 1,
    quiet: bool = True,
    timeout: Optional[float] = None,
    retries: int = 0,
    retry_backoff: float = 0.0,
    checkpoint_dir: Optional[str] = None,
    engine: Optional[str] = None,
    overrides: Optional[Mapping[str, Any]] = None,
) -> ExperimentConfig:
    """Resolve a full :class:`ExperimentConfig` for one run of ``spec``."""
    if engine is not None and engine not in QUEUE_KINDS:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {sorted(QUEUE_KINDS)}"
        )
    return ExperimentConfig(
        experiment=spec.eid,
        seed=seed,
        scale=scale,
        jobs=jobs,
        quiet=quiet,
        timeout=timeout,
        retries=retries,
        retry_backoff=retry_backoff,
        checkpoint_dir=checkpoint_dir,
        engine=engine,
        params=resolve_params(spec, scale, overrides),
    )


class RunContext:
    """Per-run services handed to an experiment body.

    Collects the run's per-point records, rendered tables, and engine /
    op-count observability totals; provides deterministic child RNGs and
    the (possibly parallel) :meth:`sweep`.
    """

    def __init__(
        self,
        seed: int = 1,
        jobs: int = 1,
        quiet: bool = True,
        timeout: Optional[float] = None,
        retries: int = 0,
        retry_backoff: float = 0.0,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        self.seed = seed
        self.jobs = jobs
        self.quiet = quiet
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.checkpoint_dir = checkpoint_dir
        self.points: List[Dict[str, Any]] = []
        self.tables: List[str] = []
        self.engine: Dict[str, Any] = {}
        #: Sweep points that exhausted their attempts (``FailedRun``
        #: records): the run completes without them and their structured
        #: failure records land in ``RunResult.failed``.
        self.failed: List[Any] = []
        #: Counts ``sweep()`` calls so each gets its own checkpoint
        #: subdirectory (a body may sweep more than once).
        self._sweep_calls = 0
        #: The run's metrics registry. Sweep points run in child
        #: processes, so bodies snapshot a per-point registry there and
        #: merge the snapshots here (:meth:`record_metrics`) in task
        #: order; the merged snapshot lands in ``RunResult.obs``.
        self.metrics = MetricsRegistry()

    # -- determinism -------------------------------------------------------

    def child_seed(self, index: int) -> int:
        """Deterministic seed for sweep point ``index`` of this run."""
        return child_seed(self.seed, index)

    def rng(self, index: int = 0) -> random.Random:
        """An independent, deterministic RNG for point ``index``."""
        return random.Random(self.child_seed(index))

    # -- sweeping ----------------------------------------------------------

    def sweep(self, fn: Callable, tasks: Sequence[Tuple]) -> List[Any]:
        """Run ``fn`` over ``tasks`` honouring this run's ``jobs`` and
        crash-tolerance knobs.

        With ``timeout``/``retries``/``checkpoint_dir`` active, points
        that exhaust their attempts are collected on :attr:`failed` as
        structured ``FailedRun`` records and only the successful results
        are returned (still in task order) — one bad point no longer
        aborts the run. With all knobs off this is the plain
        zero-overhead sweep.
        """
        robust = (
            self.timeout is not None
            or self.retries > 0
            or self.checkpoint_dir is not None
        )
        call_dir = None
        if self.checkpoint_dir is not None:
            call_dir = str(
                Path(self.checkpoint_dir) / f"sweep-{self._sweep_calls}"
            )
        self._sweep_calls += 1
        if not robust:
            return sweep(fn, tasks, jobs=self.jobs, seed=self.seed)
        results = sweep(
            fn,
            tasks,
            jobs=self.jobs,
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.retry_backoff,
            failures="collect",
            seed=self.seed,
            checkpoint_dir=call_dir,
        )
        kept = []
        for outcome in results:
            if isinstance(outcome, FailedRun):
                self.failed.append(outcome)
            else:
                kept.append(outcome)
        return kept

    # -- result collection -------------------------------------------------

    def add_point(self, record: Mapping[str, Any]) -> None:
        """Record one per-sweep-point metrics record."""
        self.points.append(dict(record))

    def add_points(self, records: Sequence[Mapping[str, Any]]) -> None:
        for record in records:
            self.add_point(record)

    def record_metrics(self, snapshot: Mapping[str, Mapping[str, Any]]) -> None:
        """Merge a child registry snapshot into this run's registry.

        Counters/histograms add, gauges take the max, so the merged
        result is independent of ``--jobs`` as long as bodies merge in
        task (submission) order — which :meth:`sweep` already guarantees
        for its returned records.
        """
        self.metrics.merge_snapshot(snapshot)

    def record_engine(self, stats: Mapping[str, Any]) -> None:
        """Accumulate simulator/op-count observability counters.

        Summable counters (event counts, wall times, op counts) from each
        sweep point are added together — except ``max_*`` high-water
        marks, which take the maximum — and the totals surface in
        ``RunResult.engine``. String values (``queue_kind``) pass through
        verbatim: every point in a run uses the same backend.
        """
        for key, value in stats.items():
            if isinstance(value, str):
                self.engine[key] = value
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if key.startswith("max_"):
                self.engine[key] = max(self.engine.get(key, 0), value)
            else:
                self.engine[key] = self.engine.get(key, 0) + value

    def table(
        self,
        headers: Sequence[str],
        rows: Sequence[Sequence] = None,
        *,
        records: Sequence[Mapping[str, Any]] = None,
        columns: Sequence = None,
        title: Optional[str] = None,
        precision: int = 3,
    ) -> str:
        """Render, collect and (unless quiet) print one result table.

        Either pass pre-built ``rows``, or ``records`` + ``columns`` to
        derive the rows from the same per-point records stored in the
        :class:`RunResult` (see
        :func:`repro.analysis.tables.records_table`).
        """
        if records is not None:
            text = records_table(
                records, columns, headers=headers, title=title,
                precision=precision,
            )
        else:
            from ..analysis.tables import format_table

            text = format_table(
                headers, rows or [], title=title, precision=precision
            )
        self.tables.append(text)
        if not self.quiet:
            print()
            print(text)
        return text
