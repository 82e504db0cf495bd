"""E12 — CAC delay quotes per discipline + empirical validation.

The control-plane consequence of the paper's complexity/delay tradeoff:
SRR's N-dependent bound forces enormous worst-case-N quotes; G-3's
Theorem 2 (N-independent) quotes the same reservation an order of
magnitude tighter; WFQ tighter still; FIFO cannot promise anything; and
the SRR quote, however loose, must hold empirically.
"""

from repro.bench import run_experiment


def test_e12_admission_quotes(run_once):
    result = run_once(run_experiment, "e12")
    srr = result["srr"]["total_ms"]
    g3 = result["g3"]["total_ms"]
    wfq = result["wfq"]["total_ms"]
    # Quote ordering: wfq < g3 << srr (and drr in srr's class).
    assert wfq < g3 < srr / 5
    assert result["drr"]["total_ms"] > g3
    # Guarantee flags.
    for name in ("srr", "drr", "g3", "wfq"):
        assert result[name]["guaranteed"], name
    assert not result["fifo"]["guaranteed"]
    # The SRR quote holds under saturation.
    v = result["validation"]
    assert v["within_quote"]
    assert v["competitors"] > 100  # the path really was saturated
