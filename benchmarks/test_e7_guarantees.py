"""E7 — reserved-flow throughput under best-effort overload (claim C5).

Every QoS scheduler must deliver each reserved flow's goodput within a
few percent of its reservation despite the Pareto best-effort overload;
FIFO — no isolation — must visibly hurt at least one reserved flow.
"""

from repro.bench import run_experiment

DURATION = 4.0
N_BACKGROUND = 100


def test_e7_guarantees(run_once):
    result = run_once(
        run_experiment,
        "e7",
        schedulers=("srr", "drr", "wfq", "fifo"),
        duration=DURATION,
        n_background=N_BACKGROUND,
    )
    for name in ("srr", "drr", "wfq"):
        for fid in ("f1", "f2"):
            ratio = (
                result[name][fid]["goodput_bps"]
                / result[name][fid]["reserved_bps"]
            )
            assert 0.9 < ratio < 1.1, (name, fid, ratio)
            # Isolation: reserved flows never queue behind the flood.
            assert result[name][fid]["max_ms"] < 100, (name, fid)
    # FIFO has no isolation: reserved packets sit behind the best-effort
    # backlog and their delay explodes by an order of magnitude.
    assert result["fifo"]["f1"]["max_ms"] > 5 * result["srr"]["f1"]["max_ms"]
