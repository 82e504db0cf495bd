"""Tiny-scale smoke tests of every experiment function and the CLI.

The benches in ``benchmarks/`` assert the result *shapes* at realistic
scale; these tests only pin the harness plumbing (structure of the
returned dicts, quiet mode, CLI dispatch) so refactors are caught fast.
"""

import pytest

from repro.core import ConfigurationError
from repro.bench import SPECS, run_experiment
from repro.bench.runner import main


class TestExperimentFunctions:
    def test_e1(self, capsys):
        result = run_experiment("e1", max_order=6, quiet=False)
        assert result["all_counts_ok"] and result["all_spacing_ok"]
        assert "E1" in capsys.readouterr().out

    def test_e2(self):
        result = run_experiment(
            "e2", schedulers=("srr", "wrr"), n_flows=6, rounds=4, quiet=True
        )
        assert set(result) == {"srr", "wrr"}
        assert result["srr"]["heavy"]["services"] > 0

    def test_e5(self):
        result = run_experiment(
            "e5", schedulers=("srr",), n_values=(8, 32), measure=200,
            quiet=True,
        )
        assert set(result["srr"]) == {8, 32}

    def test_e6(self):
        result = run_experiment(
            "e6", schedulers=("srr", "rr"), n_flows=6, rounds=4, quiet=True
        )
        assert result["srr"]["jain"] > result["rr"]["jain"] - 1e-9

    def test_e9(self):
        result = run_experiment(
            "e9", wss_order=10, stored_order=6, lookups=500, quiet=True
        )
        assert result["wss"]["closed form (v2+1)"]["entries"] == 0
        assert "full" in result["tarray"]

    def test_e10(self):
        result = run_experiment("e10", n_flows=8, rounds=6, quiet=True)
        for name in ("srr", "g3", "rrr"):
            assert all(case["ok"] for case in result[name])

    def test_e3_small(self):
        result = run_experiment(
            "e3", schedulers=("srr",), duration=0.5, n_background=10,
            quiet=True,
        )
        assert result["srr"]["f1"]["packets"] > 0

    def test_e4_small(self):
        result = run_experiment(
            "e4", schedulers=("srr",), n_values=(8,), duration=0.5,
            quiet=True,
        )
        assert 8 in result["srr"]

    def test_e7_small(self):
        result = run_experiment(
            "e7", schedulers=("srr",), duration=1.0, n_background=10,
            quiet=True,
        )
        assert result["srr"]["f2"]["goodput_bps"] > 0

    def test_e8_small(self):
        result = run_experiment(
            "e8", schedulers=("g3",), duration=0.5, n_background=10,
            quiet=True,
        )
        assert result["g3"]["f1"]["max_ms"] > 0
        assert result["bounds"]["f1"] > 0

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment("e99")

    def test_e11(self):
        result = run_experiment("e11", rounds=40, quiet=True)
        assert result["srr packet"] > result["srr deficit"]

    def test_e12(self):
        result = run_experiment(
            "e12", schedulers=("srr", "g3"), validate=False, quiet=True
        )
        assert result["g3"]["total_ms"] < result["srr"]["total_ms"]

    def test_e13(self):
        result = run_experiment(
            "e13", schedulers=("srr",), intensities=(0.0, 4.0),
            duration=1.0, n_flows=4, check_invariants=True, quiet=True,
        )
        assert result["violations_total"] == 0
        assert result["checks_total"] > 0
        assert result["srr"][4.0]["faults_fired"] > 0
        # Intensity 0 runs a fault-free baseline.
        assert result["srr"][0.0]["faults_fired"] == 0
        assert 0 < result["srr"][0.0]["jain"] <= 1.0

    def test_registry_complete(self):
        assert sorted(SPECS) == sorted(
            f"e{i}" for i in (*range(1, 15), 16)
        )

    def test_e16(self):
        result = run_experiment(
            "e16", flow_counts=(2,), seeds_per_case=1, quiet=True,
        )
        assert result["all_certified"] is True
        assert 0 < result["worst_ratio"] <= 1.0
        for disc in ("srr", "drr", "wrr", "iwrr"):
            assert 0 < result[f"worst_ratio_{disc}"] <= 1.0


class TestCLI:
    def test_single_experiment(self, capsys):
        assert main(["e1"]) == 0
        assert "Weight Spread Sequence" in capsys.readouterr().out

    def test_bad_name_exits(self):
        with pytest.raises(SystemExit):
            main(["e99"])

    def test_help_lists_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "e10" in out and "O(1)" in out
