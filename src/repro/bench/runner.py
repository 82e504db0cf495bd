"""Experiment registry + CLI (``python -m repro.bench <experiment>``).

The CLI is a thin shell over :mod:`repro.harness`: it resolves one
:class:`~repro.harness.ExperimentSpec` per requested experiment into an
:class:`~repro.harness.ExperimentConfig` (``--seed``/``--scale``/
``--jobs``/``--set key=value``), runs it, writes a ``results/<exp>/
<timestamp>-<seed>.json`` artifact (disable with ``--no-artifact``) and
optionally dumps the full :class:`~repro.harness.RunResult` as JSON with
``--json``.

``run_experiment(name, **params)`` is the Python entry point the pytest
benches use: keyword parameters override the spec's defaults and the
summary metrics dict is returned.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from typing import Any, Dict, List, Mapping, Optional

from ..core.errors import ConfigurationError
from ..harness import RunResult, run_spec
from .experiments import SPECS

__all__ = ["SPECS", "run_experiment", "run_config", "main"]


def run_experiment(
    name: str, *, seed: int = 1, jobs: int = 1, quiet: bool = True,
    **params: Any,
) -> Dict:
    """Run one experiment by id; return its summary metrics dict.

    ``params`` override the spec's default-scale parameters by name.
    """
    return run_config(
        name, seed=seed, jobs=jobs, quiet=quiet, overrides=params
    ).metrics


def run_config(
    name: str,
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
) -> RunResult:
    """Run one experiment through the harness; return the full RunResult."""
    try:
        spec = SPECS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; choose from {sorted(SPECS)}"
        ) from None
    return run_spec(
        spec, seed=seed, scale=scale, jobs=jobs, quiet=quiet,
        timeout=timeout, retries=retries, retry_backoff=retry_backoff,
        checkpoint_dir=checkpoint_dir, engine=engine, overrides=overrides,
    )


def _parse_overrides(items: List[str]) -> Dict[str, Any]:
    """``--set key=value`` pairs; values parsed as Python literals."""
    overrides: Dict[str, Any] = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                f"--set expects key=value, got {item!r}"
            )
        try:
            overrides[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            overrides[key] = raw
    return overrides


def main(argv: List[str] = None) -> int:
    """CLI entry point: run one experiment, or ``all``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the SRR reproduction's tables and figures.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="experiments:\n" + "\n".join(
            f"  {name:4s} {spec.title}" for name, spec in SPECS.items()
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(SPECS) + ["all"],
        help="experiment id (see list below) or 'all'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorthand for --scale quick",
    )
    parser.add_argument(
        "--scale",
        choices=("quick", "default", "full"),
        default="default",
        help="parameter preset: quick (CI-sized), default, or full",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="root seed for every RNG in the run (default 1)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool fan-out for sweeps; results are bit-identical "
             "to --jobs 1 (default 1; 0 = all cores)",
    )
    parser.add_argument(
        "--engine", choices=("heap", "calendar"), default=None,
        help="event-queue backend for every Simulator in the run "
             "(default: REPRO_ENGINE env var, else calendar); results "
             "are bit-identical across backends — only wall time differs",
    )
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE",
        help="override one experiment parameter (repeatable); values are "
             "Python literals, e.g. --set n_values=(16,64)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full RunResult as JSON instead of tables",
    )
    parser.add_argument(
        "--results-dir", default="results",
        help="artifact directory (default: results/)",
    )
    parser.add_argument(
        "--no-artifact", action="store_true",
        help="do not write a results/<exp>/<timestamp>-<seed>.json artifact",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the result tables",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record packet-lifecycle events (bounded ring buffer) and "
             "write them as JSONL to PATH; forces --jobs 1 so events "
             "from pool workers are not lost",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-sweep-point wall-clock budget; hung points are "
             "terminated and recorded as FailedRun instead of wedging "
             "the run",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-run a failed/timed-out sweep point up to N extra times "
             "(each attempt's child seed is recorded in the artifact)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.0, metavar="SECONDS",
        help="base delay of the seeded exponential backoff (with jitter) "
             "between retry attempts; each wait is recorded per attempt "
             "in the artifact's failure records (default 0 = retry "
             "immediately)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="checkpoint each sweep point under "
             "<results-dir>/<exp>/checkpoints/ and skip points whose "
             "valid checkpoint already exists (failed points re-run)",
    )
    parser.add_argument(
        "--check-invariants", action="store_true",
        help="attach the runtime invariant guard pack (SRR matrix "
             "integrity, DRR credit conservation, WFQ vtime "
             "monotonicity, work conservation) where the experiment "
             "supports it",
    )
    parser.add_argument(
        "--control", choices=("on", "off", "both"), default=None,
        help="overload control plane arm selection for experiments that "
             "support it (e14): 'on' runs only the controlled arm, 'off' "
             "only the uncontrolled baseline, 'both' the paired "
             "comparison (e14's default)",
    )
    parser.add_argument(
        "--watermark-low", type=float, default=None, metavar="FRAC",
        help="admission watermark below which joins are always admitted "
             "(fraction of bottleneck capacity; e14 default 0.70)",
    )
    parser.add_argument(
        "--watermark-high", type=float, default=None, metavar="FRAC",
        help="admission watermark at/above which joins are always "
             "rejected; between low and high they are shed "
             "probabilistically (e14 default 0.90)",
    )
    parser.add_argument(
        "--flight", type=int, nargs="?", const=6, default=None,
        metavar="SHIFT",
        help="arm the process-wide flight recorder at 1-in-2^SHIFT "
             "sampling (default shift 6 = 1/64); the recording totals "
             "are printed to stderr on exit",
    )
    parser.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="append live heartbeat frames (JSONL) to PATH from this "
             "process and every sweep worker; watch them with "
             "'python -m repro.obs top'",
    )
    args = parser.parse_args(argv)

    import os

    from ..harness import write_artifact
    from ..obs.flight import (
        FLIGHT_ENV_VAR,
        FlightRecorder,
        set_flight_recorder,
    )
    from ..obs.telemetry import (
        TELEMETRY_ENV_VAR,
        get_telemetry,
        set_telemetry,
    )
    from ..obs.trace import Tracer, set_tracer

    scale = "quick" if args.quick else args.scale
    overrides = _parse_overrides(args.overrides)
    names = sorted(SPECS) if args.experiment == "all" else [args.experiment]
    # 'all' in natural order e1..e16, not lexicographic.
    names.sort(key=lambda n: int(n[1:]))
    jobs = args.jobs
    tracer = None
    previous_tracer = None
    if args.trace is not None:
        if jobs != 1:
            print("--trace forces --jobs 1 (pool workers cannot share "
                  "the ring buffer)", file=sys.stderr)
            jobs = 1
        tracer = Tracer()
        previous_tracer = set_tracer(tracer)
    if args.check_invariants:
        overrides = dict(overrides)
        overrides["check_invariants"] = True
        unsupported = [
            n for n in names
            if "check_invariants" not in SPECS[n].param_names()
        ]
        if unsupported and args.experiment != "all":
            raise ConfigurationError(
                f"--check-invariants is not supported by "
                f"{', '.join(unsupported)}"
            )
    for flag, key, value in (
        ("--control", "control", args.control),
        ("--watermark-low", "low", args.watermark_low),
        ("--watermark-high", "high", args.watermark_high),
    ):
        if value is None:
            continue
        overrides = dict(overrides)
        overrides[key] = value
        unsupported = [
            n for n in names if key not in SPECS[n].param_names()
        ]
        if unsupported and args.experiment != "all":
            raise ConfigurationError(
                f"{flag} is not supported by {', '.join(unsupported)}"
            )
    # Observability plumbing: both are env-var activated so sweep pool
    # workers (fresh processes) pick them up on their own.
    saved_env = {}
    recorder = None
    previous_recorder = None
    if args.flight is not None:
        recorder = FlightRecorder(sample_shift=args.flight)
        previous_recorder = set_flight_recorder(recorder)
        saved_env[FLIGHT_ENV_VAR] = os.environ.get(FLIGHT_ENV_VAR)
        os.environ[FLIGHT_ENV_VAR] = str(args.flight)
    telemetry = None
    if args.telemetry is not None:
        saved_env[TELEMETRY_ENV_VAR] = os.environ.get(TELEMETRY_ENV_VAR)
        os.environ[TELEMETRY_ENV_VAR] = args.telemetry
        set_telemetry(None)
        telemetry = get_telemetry()
        telemetry.frame(
            "run_start", experiments=names, scale=scale, seed=args.seed,
        )
    payloads = []
    try:
        for name in names:
            checkpoint_dir = None
            if args.resume:
                # Deterministic location, so a re-run of the same
                # (experiment, seed, scale) finds its own checkpoints.
                checkpoint_dir = (
                    f"{args.results_dir}/{name}/checkpoints/"
                    f"seed{args.seed}-{scale}"
                )
            result = run_config(
                name,
                seed=args.seed,
                scale=scale,
                jobs=jobs,
                quiet=args.quiet or args.json,
                timeout=args.timeout,
                retries=args.retries,
                retry_backoff=args.retry_backoff,
                checkpoint_dir=checkpoint_dir,
                engine=args.engine,
                overrides=overrides if args.experiment != "all" else {
                    k: v for k, v in overrides.items()
                    if k in SPECS[name].param_names()
                },
            )
            if result.failed:
                print(
                    f"{name}: {len(result.failed)} sweep point(s) failed "
                    f"after retries (recorded in the artifact)",
                    file=sys.stderr,
                )
            if not args.no_artifact:
                path = write_artifact(result, results_dir=args.results_dir)
                print(f"wrote {path}", file=sys.stderr)
            if args.json:
                payloads.append(result.to_json_dict())
    finally:
        if tracer is not None:
            set_tracer(previous_tracer)
            written = tracer.write_jsonl(args.trace)
            print(f"wrote {written} trace events to {args.trace} "
                  f"({tracer.dropped} dropped by the ring buffer)",
                  file=sys.stderr)
        if recorder is not None:
            set_flight_recorder(previous_recorder)
            snap = recorder.snapshot()
            print(f"flight recorder: {snap['recorded']} records "
                  f"({snap['ops_seen']} ops seen at 1/"
                  f"{snap['sample_rate']} sampling, "
                  f"{snap['dropped']} overwritten)", file=sys.stderr)
        if telemetry is not None:
            telemetry.frame("run_end", experiments=names)
            telemetry.close()
            set_telemetry(None)
        for var, prev in saved_env.items():
            if prev is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = prev
    if args.json:
        print(json.dumps(payloads[0] if len(payloads) == 1 else payloads,
                         indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
