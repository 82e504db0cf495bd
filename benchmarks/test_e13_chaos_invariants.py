"""E13 — churn/fault resilience: the invariant pack stays silent under
chaos.

A seeded fault schedule (flow churn, link flaps, overload bursts,
malformed packets) runs against every scheduler with the runtime
invariant guards attached. The guards must actually run, the fault
plans must actually be built, and no structural invariant may break.
Parameters are those of ``python -m repro.bench e13 --quick --seed 7
--set check_invariants=True``; CI compares that run across ``--jobs 1``
and ``--jobs 4``.
"""

from repro.bench import SPECS, run_experiment


def test_e13_no_invariant_violations_under_chaos(run_once):
    result = run_once(
        run_experiment, "e13", seed=7, check_invariants=True,
        **SPECS["e13"].scales["quick"],
    )
    assert result["violations_total"] == 0, (
        f"invariant violations under chaos: {result['violations_total']}"
    )
    assert result["checks_total"] > 0, "guards never ran"
    assert result["plan_signatures"], "no fault plans built"
