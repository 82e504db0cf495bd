"""Greedy scenario shrinking: minimal replayable repros.

Given a failing (variant, scenario) pair, :func:`shrink` repeatedly
applies structure-reducing transformations — drop a flow, halve the op
tail/head (the "duration"), shrink weights toward 1 — keeping a candidate
only when the failure *persists* (same oracle family on re-check). The
result is the smallest scenario this greedy walk reaches, typically a
couple of flows and a handful of ops, which is what lands in the repro
artifact.

The predicate re-runs the default oracle families plus any opt-in
family the original failure tripped (:func:`~.oracles.families_to_recheck`,
the same families ``--replay`` re-checks), so a shrunk repro is
guaranteed to still fail when replayed from its artifact.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.errors import ReproError
from .oracles import Violation, check_scenario, families_to_recheck
from .runner import OP_BUDGET, Variant
from .scenario import Scenario

__all__ = ["shrink", "failure_families"]

#: Cap on predicate evaluations per shrink (each is a handful of full
#: scenario runs); greedy convergence is usually well under this.
MAX_PREDICATE_CALLS = 250

#: Livelock gap budget during shrinking. Each livelocked candidate burns
#: its full gap, so the default budget would make 250 predicate calls
#: cost minutes; 200k still clears the worst honest inter-departure gap
#: (~1.6x10^4 ops measured) by >10x. The shrunk result is re-verified at
#: the full
#: budget before being returned, so a shrink can never "find" a failure
#: that would not reproduce at replay time.
SHRINK_OP_BUDGET = 200_000

#: Fractional weights are never shrunk below the generator's own minimum
#: (1e-4): below it, even a *correct* byte-credit scheduler needs more
#: ops per packet than the livelock watchdog allows, so a shrunk repro
#: would keep "failing" after the bug under test is fixed.
MIN_FRAC_WEIGHT = 1e-4


def failure_families(violations: Sequence[Violation]) -> frozenset:
    return frozenset(v.family for v in violations)


def shrink(
    variant: Variant,
    scenario: Scenario,
    violations: Sequence[Violation],
    *,
    max_calls: int = MAX_PREDICATE_CALLS,
) -> Tuple[Scenario, List[Violation]]:
    """Minimise ``scenario`` while ``variant`` still fails the same
    oracle family; returns the shrunk scenario and its violations."""
    target = failure_families(violations)
    families = families_to_recheck(target)
    calls = 0
    best_violations = list(violations)

    def still_fails(candidate: Scenario) -> Optional[List[Violation]]:
        nonlocal calls
        if calls >= max_calls:
            return None
        calls += 1
        try:
            found = check_scenario(variant, candidate, families=families,
                                   op_budget=SHRINK_OP_BUDGET)
        except ReproError:
            # The transformation made the scenario outright invalid for
            # this scheduler (e.g. a weight shrunk past its accepted
            # domain); that is not the same failure.
            return None
        if target & failure_families(found):
            return found
        return None

    current = scenario
    progress = True
    while progress and calls < max_calls:
        progress = False
        # 1. Drop flows, one at a time (largest index first so indices
        #    of untried flows stay stable across successful drops).
        for i in reversed(range(len(current.flows))):
            if len(current.flows) <= 1:
                break
            candidate = current.without_flow(i)
            found = still_fails(candidate)
            if found is not None:
                current, best_violations = candidate, found
                progress = True
        # 2. Halve the op list: try dropping the tail, then the head
        #    (repeatedly — each acceptance halves again next pass).
        n = len(current.ops)
        if n > 1:
            for candidate_ops in (current.ops[: n // 2],
                                  current.ops[n // 2:]):
                candidate = current.with_ops(candidate_ops)
                found = still_fails(candidate)
                if found is not None:
                    current, best_violations = candidate, found
                    progress = True
                    break
        # 3. Shrink weights toward 1 (and fractional weights toward
        #    their integer counterpart), all flows at once then singly.
        shrunk_all = current.with_weights(
            [max(1, f.weight // 2) for f in current.flows],
            [max(f.frac_weight / 2, MIN_FRAC_WEIGHT)
             if f.frac_weight > MIN_FRAC_WEIGHT else f.frac_weight
             for f in current.flows],
        )
        if shrunk_all != current:
            found = still_fails(shrunk_all)
            if found is not None:
                current, best_violations = shrunk_all, found
                progress = True
        for i, f in enumerate(current.flows):
            if f.weight <= 1:
                continue
            weights = [g.weight for g in current.flows]
            weights[i] = max(1, weights[i] // 2)
            candidate = current.with_weights(
                weights, [g.frac_weight for g in current.flows]
            )
            found = still_fails(candidate)
            if found is not None:
                current, best_violations = candidate, found
                progress = True
    # Final pass: drop ops one by one while cheap (small scenarios only).
    if len(current.ops) <= 24:
        i = len(current.ops) - 1
        while i >= 0 and calls < max_calls:
            candidate = current.with_ops(
                current.ops[:i] + current.ops[i + 1:]
            )
            found = still_fails(candidate)
            if found is not None:
                current, best_violations = candidate, found
            i -= 1
    if current is not scenario:
        # Re-verify at the full watchdog budget: the reduced shrink
        # budget could (in principle) misread a slow-but-honest candidate
        # as livelocked, and the artifact must fail at replay time.
        try:
            found = check_scenario(variant, current, families=families,
                                   op_budget=OP_BUDGET)
        except ReproError:
            found = []
        if target & failure_families(found):
            return current, found
        return scenario, list(violations)
    return current, best_violations
