"""E14 — adaptive overload control: every quote honored or revoked.

The same fault plan runs with the control plane off and on. The
uncontrolled arm must show guaranteed-class SLO violations (the chaos
is strong enough to prove something); the controlled arm must show
none, and no quote may be silently broken. Parameters are those of
``python -m repro.bench e14 --quick --seed 7`` (``control="both"`` is
the default); CI compares that run across ``--jobs 1`` and ``--jobs 4``.
"""

from repro.bench import SPECS, run_experiment


def test_e14_control_plane_removes_slo_violations(run_once):
    result = run_once(
        run_experiment, "e14", seed=7, control="both",
        **SPECS["e14"].scales["quick"],
    )
    assert result["uncontrolled_violations"] > 0, (
        "uncontrolled arm saw no SLO violations: chaos too weak"
    )
    assert result["controlled_violations"] == 0, (
        f"guaranteed-class SLO violations with control on: "
        f"{result['controlled_violations']}"
    )
    for sched, arms in result.items():
        if not isinstance(arms, dict):
            continue
        on = arms["on"]
        assert on["guaranteed_violations"] == 0, (sched, on)
        assert on["silently_violated"] == 0, (
            f"{sched}: quote silently broken with control on"
        )
