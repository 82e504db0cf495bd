"""E11 — variable packet sizes ("multi-service" networks).

SRR's base (packet) mode is byte-unfair under bimodal sizes exactly by
the size ratio; the deficit variant restores byte fairness while keeping
WSS spreading; DRR/WFQ are byte-fair by construction.
"""

import pytest

from repro.bench import run_experiment


def test_e11_variable_packet_sizes(run_once):
    result = run_once(run_experiment, "e11", rounds=250)
    # Packet mode: the large-packet flow gets ~1500/64 the bytes.
    assert result["srr packet"] > 10
    # Deficit mode and the byte-based disciplines: ~1.0.
    assert result["srr deficit"] == pytest.approx(1.0, rel=0.15)
    assert result["drr"] == pytest.approx(1.0, rel=0.15)
    assert result["wfq"] == pytest.approx(1.0, rel=0.15)
