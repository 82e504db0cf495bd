"""E9 — space-time tradeoffs (Section IV-B) and design-choice ablations.

(a) WSS storage: materialised 2^k array vs the fold-onto-2^k' table vs
    the closed form — exactness is tested elsewhere; here the *space*
    ordering is asserted and the lookup costs are reported.
(b) G-3 TArray partial expansion: storage shrinks as fewer levels are
    expanded while per-packet work grows — the tradeoff's two sides.
"""

from repro.bench import run_experiment


def test_e9_space_time(run_once):
    result = run_once(
        run_experiment, "e9", wss_order=16, stored_order=9, lookups=20000
    )
    wss = result["wss"]
    # Space ordering: closed form stores nothing; folded stores 2^9-1;
    # materialised stores 2^16-1.
    assert wss["closed form (v2+1)"]["entries"] == 0
    assert wss["folded onto 2^9"]["entries"] == 2**9 - 1
    assert wss["materialised 2^k"]["entries"] == 2**16 - 1
    # TArray ablation: less expansion = less storage but slower packets.
    tarray = result["tarray"]
    assert tarray["top 0 levels"]["storage"] < tarray["full"]["storage"]
    assert tarray["top 0 levels"]["us"] > tarray["full"]["us"]


def test_e9_dynamic_order_ablation(run_once):
    """Design-choice ablation: SRR's dynamic order restart still yields
    exact per-round fairness once the weight mix stabilises."""
    from repro.core import Packet, SRRScheduler

    def run():
        sched = SRRScheduler()
        sched.add_flow("heavy", 8)
        sched.add_flow("light", 1)
        for i in range(400):
            sched.enqueue(Packet("heavy", 200, seq=i))
        for i in range(60):
            sched.enqueue(Packet("light", 200, seq=i))
        # Mid-stream arrival of a heavier flow forces an order change.
        served = []
        for _ in range(45):
            served.append(sched.dequeue().flow_id)
        sched.add_flow("huge", 16)
        for i in range(200):
            sched.enqueue(Packet("huge", 200, seq=i))
        for _ in range(100):
            served.append(sched.dequeue().flow_id)
        return served

    served = run_once(lambda: run())
    # After the perturbation, shares settle near 16:8:1 (the 75-slot
    # window is not round-aligned, so allow one round's phase slack).
    tail = served[-75:]  # ~three rounds of 25
    assert abs(tail.count("huge") - 48) <= 6
    assert abs(tail.count("heavy") - 24) <= 4
    assert abs(tail.count("light") - 3) <= 2
