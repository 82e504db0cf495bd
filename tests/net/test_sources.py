"""Tests for traffic sources."""

import pytest

from repro.core import ConfigurationError
from repro.net import (
    BurstSource,
    CBRSource,
    ExponentialOnOffSource,
    ParetoOnOffSource,
    PoissonSource,
    Simulator,
)


def run_source(source, until):
    sim = Simulator()
    emissions = []
    source.bind(sim, lambda size: emissions.append((sim.now, size)))
    source.start()
    sim.run(until=until)
    return emissions


class TestCBR:
    def test_exact_spacing(self):
        # 200 B at 16 kb/s -> one packet every 0.1 s.
        src = CBRSource(rate_bps=16_000, packet_size=200)
        emissions = run_source(src, until=1.0)
        times = [t for t, _s in emissions]
        assert len(times) == 11  # t = 0.0 .. 1.0 inclusive
        for i, t in enumerate(times):
            assert t == pytest.approx(i * 0.1)

    def test_start_stop_window(self):
        src = CBRSource(16_000, 200, start_at=0.5, stop_at=0.85)
        emissions = run_source(src, until=2.0)
        times = [t for t, _s in emissions]
        assert times[0] == pytest.approx(0.5)
        assert times[-1] <= 0.85

    def test_average_rate(self):
        src = CBRSource(rate_bps=1_000_000, packet_size=500)
        emissions = run_source(src, until=1.0)
        bits = sum(s * 8 for _t, s in emissions)
        assert bits == pytest.approx(1_000_000, rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CBRSource(0)
        with pytest.raises(ConfigurationError):
            CBRSource(1000, 0)


class TestPoisson:
    def test_mean_rate(self):
        src = PoissonSource(mean_rate_bps=800_000, packet_size=100, seed=7)
        emissions = run_source(src, until=10.0)
        bits = sum(s * 8 for _t, s in emissions)
        assert bits / 10.0 == pytest.approx(800_000, rel=0.1)

    def test_reproducible_with_seed(self):
        a = run_source(PoissonSource(100_000, 100, seed=3), until=2.0)
        b = run_source(PoissonSource(100_000, 100, seed=3), until=2.0)
        assert a == b

    def test_interarrival_variability(self):
        emissions = run_source(PoissonSource(100_000, 100, seed=5), until=5.0)
        times = [t for t, _s in emissions]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert len(set(round(g, 9) for g in gaps)) > len(gaps) // 2


class TestParetoOnOff:
    def test_mean_rate_property(self):
        src = ParetoOnOffSource(
            peak_rate_bps=4_000_000, mean_on=0.1, mean_off=0.1
        )
        assert src.mean_rate_bps == pytest.approx(2_000_000)

    def test_long_run_rate_near_mean(self):
        src = ParetoOnOffSource(
            peak_rate_bps=2_000_000,
            packet_size=200,
            mean_on=0.05,
            mean_off=0.05,
            alpha=1.9,  # lighter tail converges faster
            seed=11,
        )
        emissions = run_source(src, until=60.0)
        bits = sum(s * 8 for _t, s in emissions)
        assert bits / 60.0 == pytest.approx(1_000_000, rel=0.35)

    def test_bursty_structure(self):
        """On/off structure: gaps are bimodal (packet spacing vs off
        periods), unlike CBR."""
        src = ParetoOnOffSource(
            peak_rate_bps=1_000_000, packet_size=200, seed=2
        )
        emissions = run_source(src, until=10.0)
        times = [t for t, _s in emissions]
        gaps = [b - a for a, b in zip(times, times[1:])]
        spacing = 200 * 8 / 1_000_000
        long_gaps = [g for g in gaps if g > 3 * spacing]
        short_gaps = [g for g in gaps if g <= 1.5 * spacing]
        assert long_gaps and short_gaps

    def test_alpha_validation(self):
        with pytest.raises(ConfigurationError):
            ParetoOnOffSource(1e6, alpha=1.0)
        with pytest.raises(ConfigurationError):
            ParetoOnOffSource(1e6, mean_on=0)

    def test_reproducible(self):
        mk = lambda: ParetoOnOffSource(1e6, 200, seed=9)
        assert run_source(mk(), 5.0) == run_source(mk(), 5.0)


class TestExponentialOnOff:
    def test_emits_and_reproducible(self):
        mk = lambda: ExponentialOnOffSource(1e6, 200, seed=4)
        a, b = run_source(mk(), 5.0), run_source(mk(), 5.0)
        assert a and a == b


class TestBurst:
    def test_instant_burst(self):
        src = BurstSource(5, packet_size=100, at=1.0)
        emissions = run_source(src, until=2.0)
        assert len(emissions) == 5
        assert all(t == pytest.approx(1.0) for t, _s in emissions)

    def test_spaced_burst(self):
        src = BurstSource(3, packet_size=100, at=0.0, spacing=0.5)
        emissions = run_source(src, until=2.0)
        assert [t for t, _s in emissions] == pytest.approx([0.0, 0.5, 1.0])

    def test_counters(self):
        src = BurstSource(4, packet_size=250)
        run_source(src, until=1.0)
        assert src.packets_emitted == 4
        assert src.bytes_emitted == 1000


class TestDriftFreeGrids:
    """Periodic arrivals are start + n*interval, not accumulated sums."""

    def test_cbr_emissions_on_exact_grid(self):
        # 0.1 s is not float-representable, so accumulated `now + interval`
        # would drift off the grid; the epoch form must not.
        src = CBRSource(rate_bps=16_000, packet_size=200, start_at=0.25)
        emissions = run_source(src, until=500.0)
        interval = src.interval
        assert len(emissions) > 4000
        for n, (t, _size) in enumerate(emissions):
            assert t == 0.25 + n * interval  # exact equality, no approx

    def test_cbr_batching_does_not_change_emissions(self):
        a = run_source(CBRSource(16_000, 200, batch=1), until=10.0)
        b = run_source(CBRSource(16_000, 200, batch=64), until=10.0)
        c = run_source(CBRSource(16_000, 200, batch=1000), until=10.0)
        assert a == b == c

    def test_cbr_stop_at_schedules_no_dead_events(self):
        sim = Simulator()
        src = CBRSource(16_000, 200, stop_at=0.35)
        src.bind(sim, lambda size: None)
        src.start()
        sim.run()
        # Emissions at 0.0, 0.1, 0.2, 0.3 — and the clock never ran past
        # the last one (no events linger beyond stop_at).
        assert src.packets_emitted == 4
        assert sim.now == pytest.approx(0.3)
        assert sim.pending_events == 0

    def test_on_off_phase_uses_exact_grid(self):
        sim = Simulator()
        times = []
        phases = []

        class Recorder(ExponentialOnOffSource):
            def _begin_on(self):
                emitted = self.packets_emitted
                super()._begin_on()
                if self.packets_emitted > emitted:
                    phases.append(self._on_epoch)

        src = Recorder(
            peak_rate_bps=160_000, packet_size=200, mean_on=0.5,
            mean_off=0.1, seed=3,
        )
        src.bind(sim, lambda size: times.append(sim.now))
        src.start()
        sim.run(until=20.0)
        assert len(times) > 100
        assert len(phases) > 3
        interval = src.interval
        # Each emission sits exactly on its ON phase's grid.
        bounds = phases[1:] + [float("inf")]
        it = iter(times)
        t = next(it)
        for epoch, nxt in zip(phases, bounds):
            n = 0
            while t is not None and t < nxt:
                assert t == epoch + n * interval  # exact equality
                n += 1
                t = next(it, None)
        assert t is None  # every emission was matched to a phase

    def test_ulp_drift_at_ten_million_packets(self):
        # The property behind the grid form: accumulating `t += interval`
        # 10^7 times drifts by thousands of ulps, while the closed form
        # start + n*interval stays within one rounding step of the exact
        # rational value at any n.
        from fractions import Fraction
        import math
        import random

        rng = random.Random(1234)
        n = 10_000_000
        for _ in range(5):
            start = rng.uniform(0.0, 10.0)
            interval = rng.uniform(1e-7, 1e-5)
            grid = start + n * interval
            exact = Fraction(start) + n * Fraction(interval)
            assert abs(Fraction(grid) - exact) <= 2 * Fraction(math.ulp(grid))

        # And the accumulated form really does drift (the bug the grid
        # form fixes): one deterministic witness is enough.
        interval = 0.1
        acc = 0.0
        for _ in range(n):
            acc += interval
        exact = n * Fraction(interval)
        assert abs(Fraction(acc) - exact) > 1000 * Fraction(math.ulp(acc))
