"""E4 — worst delay vs number of competing flows (Theorem 1's shape).

SRR's tagged-flow delay must grow ~linearly with N and stay within the
Lemma 2 analytic bound (plus the fixed path delay); WFQ's must grow far
slower (its bound is N-independent).
"""

from repro.analysis import wfq_delay_bound
from repro.bench import BOTTLENECK_BPS, MTU, run_experiment

N_VALUES = (16, 64, 256)


def test_e4_delay_vs_n(run_once):
    result = run_once(
        run_experiment,
        "e4",
        schedulers=("srr", "wfq"),
        n_values=N_VALUES,
        duration=3.0,
    )
    srr = result["srr"]
    wfq = result["wfq"]
    bound = result["bound_ms"]
    # Linear growth: 16x more flows -> (roughly) 10x worse SRR delay.
    assert srr[256] / srr[16] > 4.0
    # Measured SRR delay within the Lemma 2 bound at every N.
    for n in N_VALUES:
        assert srr[n] <= bound[n] * 1.02
    # WFQ's delay stays under its *N-independent* bound (L/r + L/C plus
    # ~1.7 ms of fixed path delay) at every N — that is the qualitative
    # difference, not the growth rate at small N.
    wfq_flat_ms = (
        wfq_delay_bound(0, 32_000, MTU, BOTTLENECK_BPS) + 0.002
    ) * 1e3
    for n in N_VALUES:
        assert wfq[n] <= wfq_flat_ms
    # SRR's delay crosses WFQ's flat bound once N is large enough
    # (N > C/r): here by N = 256 it is already close; assert ordering.
    assert wfq[256] < srr[256]
