"""E5 — per-packet scheduling cost vs N: the O(1) claim (C1).

SRR's elementary-operation count per dequeue must stay flat from 16 to
4096 flows while WFQ's grows (heap + GPS tracking) — the paper's central
complexity comparison. A wall-clock benchmark of the SRR hot path rides
along.
"""

from repro.bench import run_experiment
from repro.bench.workloads import build_loaded_scheduler

N_VALUES = (16, 256, 4096)


def test_e5_ops_shape(run_once):
    result = run_once(
        run_experiment,
        "e5",
        schedulers=("srr", "drr", "wfq", "scfq", "g3"),
        n_values=N_VALUES,
        measure=2000,
    )
    srr, wfq, scfq, g3 = (
        result["srr"], result["wfq"], result["scfq"], result["g3"],
    )
    # O(1): SRR cost flat within noise across a 256x flow-count range.
    assert srr[4096] <= srr[16] + 2
    # G-3 (slot lookup) flat as well.
    assert g3[4096] <= g3[16] + 2
    # Timestamp schedulers grow: SCFQ ~log N, WFQ worse.
    assert scfq[4096] > scfq[16] * 1.5
    assert wfq[4096] > wfq[16] * 2
    # At scale, SRR is cheaper than both.
    assert srr[4096] < scfq[4096] < wfq[4096]


def test_e5_srr_dequeue_wallclock(benchmark):
    """Wall-clock nanoseconds per SRR dequeue at N = 4096."""
    sched = build_loaded_scheduler(
        "srr", {i: (i % 7) + 1 for i in range(4096)}, packets_per_flow=3
    )

    def spin():
        for _ in range(2000):
            sched.dequeue()

    benchmark(spin)


def test_e5_wfq_dequeue_wallclock(benchmark):
    """Wall-clock comparison point: WFQ dequeue at N = 4096."""
    sched = build_loaded_scheduler(
        "wfq", {i: (i % 7) + 1 for i in range(4096)}, packets_per_flow=3
    )

    def spin():
        for _ in range(2000):
            sched.dequeue()

    benchmark(spin)
