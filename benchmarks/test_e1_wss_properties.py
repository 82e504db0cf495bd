"""E1 — the WSS definition table (orders, counts, spacing).

Regenerates the WSS examples of the paper (Eq. 6-7) and checks the two
structural properties SRR's fairness rests on.
"""

from repro.bench import run_experiment


def test_e1_wss_properties(run_once):
    result = run_once(run_experiment, "e1", max_order=14)
    assert result["all_counts_ok"]
    assert result["all_spacing_ok"]
    assert result["wss4"] == [1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1]


def test_e1_term_generation_speed(benchmark):
    """Raw closed-form term generation throughput (the per-packet step)."""
    from repro.core.wss import WSSCursor

    cursor = WSSCursor(20)

    def spin():
        for _ in range(10000):
            cursor.advance()

    benchmark(spin)
