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
        overrides=overrides,
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
    args = parser.parse_args(argv)

    from ..harness import write_artifact
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
    payloads = []
    try:
        for name in names:
            result = run_config(
                name,
                seed=args.seed,
                scale=scale,
                jobs=jobs,
                quiet=args.quiet or args.json,
                overrides=overrides if args.experiment != "all" else {
                    k: v for k, v in overrides.items()
                    if k in SPECS[name].param_names()
                },
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
    if args.json:
        print(json.dumps(payloads[0] if len(payloads) == 1 else payloads,
                         indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
