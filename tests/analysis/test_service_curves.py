"""Tests for service-curve utilities and table rendering."""

import pytest

from repro.core import ConfigurationError
from repro.analysis import format_table, max_ideal_lag


class TestCurves:
    def test_on_time_service_zero_deviation(self):
        # 100 B every 0.1 s = 8000 bps exactly.
        finish = [0.1 * (i + 1) for i in range(10)]
        assert max_ideal_lag(finish, 8000, 100) == pytest.approx(0.0)

    def test_late_service_measured(self):
        # 100 B due at 0.1 s, finished at 0.5 s.
        assert max_ideal_lag([0.5], 8000, 100) == pytest.approx(0.4)

    def test_early_service_clamped_to_zero(self):
        assert max_ideal_lag([0.05], 8000, 100) == 0.0

    def test_start_time_shift(self):
        assert max_ideal_lag(
            [1.1], 8000, 100, start_time=1.0
        ) == pytest.approx(0.0)

    def test_max_ideal_lag_matches_definition(self):
        # Packets due at 0.1, 0.2, 0.3; actual 0.1, 0.25, 0.31.
        lag = max_ideal_lag([0.1, 0.25, 0.31], 8000, 100)
        assert lag == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            max_ideal_lag([0.1], 0, 100)
        with pytest.raises(ConfigurationError):
            max_ideal_lag([0.1], 8000, 0)

    def test_nan_finish_times_rejected(self):
        nan = float("nan")
        with pytest.raises(ConfigurationError):
            max_ideal_lag([0.1, nan], 8000, 100)

    def test_empty_curve_raises_not_zero(self):
        # A starved flow must surface as an error, never as a perfect
        # 0.0 deviation (the silent-zero bug E10 used to inherit).
        with pytest.raises(ConfigurationError):
            max_ideal_lag([], 8000, 100)


class TestTables:
    def test_alignment_and_rule(self):
        out = format_table(
            ["name", "value"],
            [["srr", 1.5], ["wfq", 22.125]],
            precision=2,
        )
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) == {"-"}
        assert "1.50" in lines[2]
        assert "22.12" in lines[3]
        # Columns align: every line equally... rule spans the header.
        assert len(lines[1]) == len(lines[0])

    def test_title(self):
        out = format_table(["a"], [[1]], title="E1: demo")
        assert out.splitlines()[0] == "E1: demo"

    def test_non_float_cells(self):
        out = format_table(["x"], [[True], ["text"], [3]])
        assert "True" in out and "text" in out and "3" in out
