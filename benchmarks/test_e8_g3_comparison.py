"""E8 [ext] — the follow-on text's Fig. 9: G-3 vs SRR vs RRR delays.

Shape assertions from the figure's discussion: G-3's worst delays stay
inside its Theorem 2 bounds; SRR's worst delay is large for BOTH flows
(rate does not help it); RRR is worst for the low-rate flow f1 (its m
grows with the slot grid) while remaining fine for f2.
"""

from repro.bench import run_experiment

DURATION = 4.0
N_BACKGROUND = 300


def test_e8_g3_comparison(run_once):
    result = run_once(
        run_experiment,
        "e8",
        schedulers=("g3", "srr", "rrr"),
        duration=DURATION,
        n_background=N_BACKGROUND,
    )
    bounds = result["bounds"]
    g3, srr, rrr = result["g3"], result["srr"], result["rrr"]
    # G-3 within its analytic end-to-end bounds.
    assert g3["f1"]["max_ms"] <= bounds["f1"]
    assert g3["f2"]["max_ms"] <= bounds["f2"]
    # G-3 protects the high-rate flow far better than SRR.
    assert g3["f2"]["max_ms"] < srr["f2"]["max_ms"] / 1.5
    # RRR's low-rate flow is the worst of the three (grid-dependent m).
    assert rrr["f1"]["max_ms"] > g3["f1"]["max_ms"]
    # RRR still handles the high-rate flow reasonably (1-2 large bits).
    assert rrr["f2"]["max_ms"] < srr["f2"]["max_ms"]
