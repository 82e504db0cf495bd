"""``python -m repro.conformance`` — the differential conformance fuzzer.

Modes
-----
Randomized budget (default)
    ``--seeds 200 [--quick] [--jobs 4]`` generates that many seeded
    scenarios and drives every registered scheduler variant through the
    oracle families. Failing scenarios are shrunk and written as repro
    artifacts under ``--results-dir`` (default ``results/conformance``).
Corpus replay
    ``--corpus`` replays the committed seed corpus (the PR-blocking CI
    job); any violation is a regression.
Artifact replay
    ``--replay results/conformance/repro-drr-17.json`` re-runs one
    shrunk repro and reports its violations.

Determinism: seeds map to scenarios purely (SplitMix64 children), the
per-seed work is self-contained, and parallel fan-out goes through
:func:`repro.harness.sweep.sweep` — so ``--jobs 1`` and ``--jobs N``
produce bit-identical verdict digests, which the CI job asserts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..harness.sweep import sweep
from .corpus import (
    DEFAULT_RESULTS_DIR,
    corpus_seeds,
    load_repro_artifact,
    write_repro_artifact,
)
from .oracles import DEFAULT_FAMILIES, check_scenario, families_to_recheck
from .runner import VARIANTS, run_scenario, variant_by_name
from .scenario import generate_scenario
from .shrink import shrink

__all__ = ["main", "check_seed"]


def check_seed(
    seed: int,
    quick: bool = False,
    variant_names: Optional[Sequence[str]] = None,
    bounds: bool = False,
) -> Dict[str, Any]:
    """Fuzz one seed across variants (module-level: sweep workers pickle
    it). Returns a JSON-able verdict record with a content digest.

    ``bounds=True`` adds the network-calculus certification family on
    the disciplines with a service curve."""
    scenario = generate_scenario(seed, quick=quick)
    names = list(variant_names) if variant_names else [
        v.name for v in VARIANTS()
    ]
    families: Sequence[str] = DEFAULT_FAMILIES
    if bounds:
        families = families + ("bounds",)
    violations: List[Dict[str, Any]] = []
    hasher = hashlib.sha256()
    for name in names:
        variant = variant_by_name(name)
        run = run_scenario(variant, scenario)
        hasher.update(repr((seed, name, run.order_key())).encode())
        for v in check_scenario(variant, scenario, run=run,
                                families=families):
            violations.append(v.to_json_dict())
    return {
        "seed": seed,
        "violations": violations,
        "digest": hasher.hexdigest()[:16],
    }


def _failure_signature(name: str, violations) -> tuple:
    """Dedup key for shrinking: same variant + same oracle checks.

    Dozens of seeds usually hit one bug; shrinking every one of them
    costs minutes and yields near-identical repros, so only the first
    scenario per signature is shrunk (the rest are still *reported*).
    """
    return (name, frozenset((v.family, v.check) for v in violations))


def _fail_and_shrink(
    record: Dict[str, Any],
    quick: bool,
    results_dir: Path,
    quiet: bool,
    shrunk_signatures: set,
) -> List[Path]:
    """Shrink each failing variant of one seed; write repro artifacts."""
    seed = record["seed"]
    scenario = generate_scenario(seed, quick=quick)
    paths: List[Path] = []
    failing_variants = sorted({v["variant"] for v in record["violations"]})
    for name in failing_variants:
        variant = variant_by_name(name)
        families = families_to_recheck(
            v["family"] for v in record["violations"] if v["variant"] == name
        )
        violations = check_scenario(variant, scenario, families=families)
        if not violations:
            continue  # the recorded failure did not reproduce
        signature = _failure_signature(name, violations)
        if signature in shrunk_signatures:
            continue
        shrunk_signatures.add(signature)
        small, small_violations = shrink(variant, scenario, violations)
        path = write_repro_artifact(
            name, small, small_violations,
            results_dir=results_dir, shrunk_from=scenario,
        )
        paths.append(path)
        if not quiet:
            print(
                f"  shrunk seed {seed} / {name}: "
                f"{len(scenario.flows)} flows x {len(scenario.ops)} ops "
                f"-> {len(small.flows)} flows x {len(small.ops)} ops "
                f"({small_violations[0].check}) -> {path}"
            )
    return paths


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description="Differential conformance fuzzer for every "
                    "registered scheduler.",
    )
    parser.add_argument("--seeds", type=int, default=50,
                        help="number of random seeds to fuzz (default 50)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed (seeds run seed-base..+N-1)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller scenarios (CI budget)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes")
    parser.add_argument("--variants", default=None,
                        help="comma-separated variant subset "
                             "(default: all)")
    parser.add_argument("--bounds", action="store_true",
                        help="also certify observed delays against the "
                             "network-calculus bounds (srr/drr/wrr/iwrr)")
    parser.add_argument("--corpus", action="store_true",
                        help="replay the committed seed corpus instead "
                             "of random seeds")
    parser.add_argument("--replay", metavar="PATH", default=None,
                        help="replay one repro artifact and exit")
    parser.add_argument("--results-dir", default=str(DEFAULT_RESULTS_DIR),
                        help="where repro artifacts are written")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable summary to stdout")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without shrinking")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    results_dir = Path(args.results_dir)
    variant_names = (
        [n.strip() for n in args.variants.split(",") if n.strip()]
        if args.variants else None
    )
    if variant_names:
        for name in variant_names:
            variant_by_name(name)  # fail fast on typos

    if args.replay:
        repro = load_repro_artifact(args.replay)
        variant = variant_by_name(repro["variant"])
        families = families_to_recheck(
            v["family"] for v in repro["violations"]
        )
        violations = check_scenario(variant, repro["scenario"],
                                    families=families)
        payload = {
            "replay": str(args.replay),
            "variant": variant.name,
            "violations": [v.to_json_dict() for v in violations],
        }
        if args.json:
            print(json.dumps(payload, indent=2))
        elif violations:
            print(f"replay {args.replay}: {len(violations)} violation(s)")
            for v in violations:
                print(f"  [{v.family}/{v.check}] {v.message}")
        else:
            print(f"replay {args.replay}: no violations (fixed?)")
        return 1 if violations else 0

    if args.corpus:
        seeds = corpus_seeds()
    else:
        seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    tasks = [(seed, args.quick, variant_names, args.bounds) for seed in seeds]
    records = sweep(check_seed, tasks, jobs=args.jobs)

    digest = hashlib.sha256(
        "".join(r["digest"] for r in records).encode()
    ).hexdigest()[:16]
    failing = [r for r in records if r["violations"]]
    artifacts: List[Path] = []
    if failing and not args.no_shrink:
        shrunk_signatures: set = set()
        for record in failing:
            artifacts.extend(
                _fail_and_shrink(record, args.quick, results_dir,
                                 args.quiet or args.json,
                                 shrunk_signatures)
            )
    n_violations = sum(len(r["violations"]) for r in records)
    summary = {
        "seeds": len(seeds),
        "quick": args.quick,
        "bounds": bool(args.bounds),
        "variants": variant_names or [v.name for v in VARIANTS()],
        "violations": n_violations,
        "failing_seeds": [r["seed"] for r in failing],
        "digest": digest,
        "artifacts": [str(p) for p in artifacts],
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    elif not args.quiet or failing:
        verdict = "OK" if not failing else "FAIL"
        print(
            f"conformance {verdict}: {len(seeds)} seed(s) x "
            f"{len(summary['variants'])} variant(s), "
            f"{n_violations} violation(s), digest {digest}"
        )
        for record in failing:
            by = {}
            for v in record["violations"]:
                key = f"{v['variant']}:{v['family']}/{v['check']}"
                by[key] = by.get(key, 0) + 1
            detail = ", ".join(f"{k} x{n}" for k, n in sorted(by.items()))
            print(f"  seed {record['seed']}: {detail}")
    return 1 if failing else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
