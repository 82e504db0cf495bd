"""E10 — measured worst lag vs analytic bound, every bounded scheduler.

Validates Lemma 2 (SRR), Theorem 2 (G-3) and Eq. 11 (RRR) empirically:
for a sweep of tagged weights among unit-weight competitors, the measured
worst deviation from the ideal rate-r service must stay under the bound.
"""

from repro.bench import run_experiment


def test_e10_bound_validation(run_once):
    result = run_once(run_experiment, "e10", n_flows=40, rounds=25)
    for name in ("srr", "g3", "rrr"):
        assert result[name], name
        for case in result[name]:
            assert case["ok"], (name, case)
    # SRR's measured lag grows with the round (N-dependence shows up even
    # in the measurement, not just the bound).
    srr = {c["weight"]: c["measured"] for c in result["srr"]}
    assert max(srr.values()) > 0
