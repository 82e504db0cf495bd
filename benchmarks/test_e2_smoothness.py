"""E2 — service-order smoothness: SRR vs WRR/DRR/RR (claim C3).

The paper's headline qualitative claim: SRR spreads a flow's services
evenly across the round where WRR/DRR deliver them in bursts. Asserted
via the gap coefficient-of-variation and max inter-service distance of
the heaviest flow, and the max wait of the lightest flow.
"""

from repro.bench import run_experiment


def test_e2_smoothness(run_once):
    result = run_once(run_experiment, "e2",
                      schedulers=("srr", "wrr", "drr"), n_flows=12, rounds=8)
    srr, wrr, drr = result["srr"], result["wrr"], result["drr"]
    # SRR's heavy flow is served far more regularly than WRR's.
    assert srr["heavy"]["cv"] < wrr["heavy"]["cv"] / 4
    assert srr["heavy"]["max_gap"] < wrr["heavy"]["max_gap"] / 2
    # Same against DRR (quantum = L -> WRR-like bursts).
    assert srr["heavy"]["cv"] < drr["heavy"]["cv"] / 4
    # The light flow's worst wait is no worse under SRR than under the
    # burst schedulers.
    assert srr["light"]["max_gap"] <= wrr["light"]["max_gap"]
