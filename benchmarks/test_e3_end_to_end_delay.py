"""E3 — end-to-end delay in the paper's dumbbell (Fig. 8 workload).

Shape assertions (paper, Section V): under SRR both the 32 kb/s and the
1024 kb/s flow see large worst-case delays of similar magnitude (delay
grows with N for every weight); under WFQ the high-rate flow is protected
(its delay stays near the propagation floor).
"""

from repro.bench import run_experiment

# Reduced scale: 300 background flows, 4 simulated seconds.
N_BACKGROUND = 300
DURATION = 4.0


def test_e3_end_to_end_delay(run_once):
    result = run_once(
        run_experiment,
        "e3",
        schedulers=("srr", "drr", "wfq"),
        duration=DURATION,
        n_background=N_BACKGROUND,
    )
    srr, wfq = result["srr"], result["wfq"]
    # Both reserved flows suffer under SRR (delay ∝ N regardless of rate).
    assert srr["f1"]["max_ms"] > 40
    assert srr["f2"]["max_ms"] > 40
    # WFQ keeps the high-rate flow near the 22 ms propagation+store floor.
    assert wfq["f2"]["max_ms"] < 25
    # And WFQ beats SRR for both flows.
    assert wfq["f1"]["max_ms"] < srr["f1"]["max_ms"]
    assert wfq["f2"]["max_ms"] < srr["f2"]["max_ms"]
    # Everybody's packets actually arrived.
    for name in result:
        for fid in ("f1", "f2"):
            assert result[name][fid]["packets"] > 0
