"""E16 — network-calculus bound tightness: every case certifies.

For each discipline with a closed-form service curve, conformant CBR
flows run through the derived bottleneck; every observed delay must sit
at or below its certified bound, and the worst observed/certified ratio
must lie in (0, 1]. Parameters are those of
``python -m repro.bench e16 --quick --seed 7``.
"""

from repro.bench import SPECS, run_experiment


def test_e16_every_case_certifies(run_once):
    result = run_once(
        run_experiment, "e16", seed=7, **SPECS["e16"].scales["quick"],
    )
    assert result["all_certified"], f"uncertified bound cases: {result}"
    assert 0 < result["worst_ratio"] <= 1.0, result
