"""Tests for the control plane's deterministic rate estimators."""

import pytest

from repro.core import ConfigurationError
from repro.qos import EWMARateEstimator, RateEstimatorBank


class TestEWMA:
    def test_converges_to_cbr_rate(self):
        """A steady 200 B / 10 ms stream is 160 kb/s; after many tau the
        estimate should sit within a few percent of it."""
        est = EWMARateEstimator(tau_s=0.1)
        for i in range(500):
            est.observe(i * 0.01, 200)
        assert est.rate_bps(5.0) == pytest.approx(160_000, rel=0.05)

    def test_same_instant_burst_coalesces(self):
        """Back-to-back arrivals at one simulation instant must merge
        into a single sample instead of dividing by a zero dt."""
        est = EWMARateEstimator(tau_s=0.1)
        est.observe(0.0, 100)
        for _ in range(10):
            est.observe(1.0, 100)  # an 11th-instant burst, one sample
        rate = est.rate_bps(1.5)
        assert rate > 0
        assert rate < float("inf")

    def test_decays_toward_zero_in_silence(self):
        est = EWMARateEstimator(tau_s=0.1)
        for i in range(100):
            est.observe(i * 0.01, 200)
        busy = est.rate_bps(1.0)
        assert est.rate_bps(2.0) < busy / 100  # 10 tau of silence

    def test_deterministic(self):
        a, b = EWMARateEstimator(tau_s=0.25), EWMARateEstimator(tau_s=0.25)
        for i in range(50):
            a.observe(i * 0.003, 120)
            b.observe(i * 0.003, 120)
        assert a.rate_bps(0.2) == b.rate_bps(0.2)

    def test_rejects_bad_tau(self):
        with pytest.raises(ConfigurationError):
            EWMARateEstimator(tau_s=0.0)


class TestBank:
    def test_lazy_keys_and_drop(self):
        bank = RateEstimatorBank(tau_s=0.1)
        assert len(bank) == 0
        assert bank.rate_bps("ghost", 1.0) == 0.0
        bank.observe("f1", 0.0, 200)
        bank.observe("f2", 0.0, 200)
        assert set(bank.keys()) == {"f1", "f2"}
        bank.drop("f1")
        assert len(bank) == 1
        bank.drop("f1")  # idempotent
