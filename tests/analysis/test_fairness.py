"""Tests for repro.analysis.fairness."""

import pytest

from repro.core import ConfigurationError
from repro.analysis import (
    gap_statistics,
    jain_index,
    worst_case_lag,
)


class TestJain:
    def test_equal_shares_is_one(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_one_hog_is_one_over_n(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_intermediate(self):
        idx = jain_index([4, 2])
        assert 0.5 < idx < 1.0

    def test_all_zero_vacuous(self):
        assert jain_index([0, 0]) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            jain_index([])
        with pytest.raises(ConfigurationError):
            jain_index([1, -1])


def interleaved_trace(n_rounds, size=100):
    """Perfectly alternating a/b trace, 1 unit of time per packet."""
    trace = []
    t = 0.0
    for _ in range(n_rounds):
        for fid in ("a", "b"):
            t += 1.0
            trace.append((t, fid, size))
    return trace


def bursty_trace(n_rounds, burst=8, size=100):
    """WRR-like: `burst` of a, then `burst` of b, per round."""
    trace = []
    t = 0.0
    for _ in range(n_rounds):
        for fid in ("a", "b"):
            for _ in range(burst):
                t += 1.0
                trace.append((t, fid, size))
    return trace


class TestWorstCaseLag:
    def test_interleaved_small_lag(self):
        lag = worst_case_lag(interleaved_trace(50), {"a": 1, "b": 1})
        assert lag["a"] <= 100
        assert lag["b"] <= 100

    def test_bursty_large_lag(self):
        lag = worst_case_lag(bursty_trace(10, burst=8), {"a": 1, "b": 1})
        # While a's burst of 8 is served, b falls ~4 packets behind.
        assert lag["b"] >= 300

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            worst_case_lag([], {"a": 0})


class TestGapStats:
    def test_periodic_sequence(self):
        seq = ["a", "b", "a", "b", "a", "b"]
        g = gap_statistics(seq, "a")
        assert g.min_gap == g.max_gap == 2
        assert g.cv == 0.0
        assert g.services == 3

    def test_bursty_sequence(self):
        seq = ["a", "a", "a", "b", "b", "b", "a", "a", "a", "b", "b", "b"]
        g = gap_statistics(seq, "a")
        assert g.max_gap == 4
        assert g.min_gap == 1
        assert g.cv > 0.5

    def test_requires_two_services(self):
        with pytest.raises(ConfigurationError):
            gap_statistics(["a", "b", "b"], "a")
