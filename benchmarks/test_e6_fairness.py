"""E6 — weighted fairness in a saturated node (claim C2).

SRR must deliver exactly weight-proportional service per round
(Jain index 1) with a fluid lag comparable to WFQ's and far below
WRR/DRR's burst-induced lag; plain RR must be visibly unfair under
unequal weights.
"""

from repro.bench import run_experiment


def test_e6_fairness(run_once):
    result = run_once(
        run_experiment,
        "e6",
        schedulers=("srr", "wrr", "drr", "wfq", "rr"),
        n_flows=16,
        rounds=12,
    )
    # Weighted disciplines reach Jain ~= 1 over whole rounds.
    for name in ("srr", "wrr", "drr", "wfq"):
        assert result[name]["jain"] > 0.99, name
    # Unweighted RR cannot.
    assert result["rr"]["jain"] < 0.9
    # The short-term story: SRR's fluid lag is WFQ-like (sub-packet),
    # WRR/DRR lag by whole bursts.
    assert result["srr"]["worst_lag_packets"] < 2.0
    assert result["wfq"]["worst_lag_packets"] < 2.0
    assert result["wrr"]["worst_lag_packets"] > 3 * result["srr"]["worst_lag_packets"]
    assert result["drr"]["worst_lag_packets"] > 3 * result["srr"]["worst_lag_packets"]
