"""The perf subsystem itself: document shape, regression gate, CLI.

The benchmark *numbers* are machine-dependent and are never asserted
here; what is tested is the machinery around them — stats math, the
pytest-benchmark document layout, :func:`repro.perf.compare`'s
regression semantics, and the ``python -m repro.perf`` plumbing — on
tiny synthetic benchmarks that run in milliseconds.
"""

import copy
import json

import pytest

from repro.perf import (
    Benchmark,
    all_benchmarks,
    build_document,
    compare,
    fastpath_speedup,
    run_benchmark,
)
from repro.perf.benchmarks import _hold_round
from repro.perf.cli import main
from repro.perf.report import SCHEMA


def _tiny_bench(group="event_loop", name="tiny[calendar]"):
    return Benchmark(
        group, name, {"engine": "calendar"},
        lambda: _hold_round(50, 100),
        rounds=2, quick_rounds=1,
    )


def _doc(*results):
    return build_document(list(results))


class TestRunBenchmark:
    def test_rounds_and_work_items(self):
        result = run_benchmark(_tiny_bench())
        assert len(result.times) == 2
        assert result.work_items == 150  # population + churn
        assert all(t > 0 for t in result.times)
        assert result.throughput > 0

    def test_quick_shrinks_rounds_not_sizes(self):
        result = run_benchmark(_tiny_bench(), quick=True)
        assert len(result.times) == 1
        assert result.work_items == 150


class TestDocument:
    def test_pytest_benchmark_layout(self):
        doc = _doc(run_benchmark(_tiny_bench(), quick=True))
        assert doc["schema"] == SCHEMA
        assert set(doc) == {
            "schema", "datetime", "machine_info", "commit_info",
            "benchmarks",
        }
        (bench,) = doc["benchmarks"]
        assert bench["name"] == "tiny[calendar]"
        assert bench["fullname"] == "repro.perf::tiny[calendar]"
        assert bench["params"] == {"engine": "calendar"}
        assert set(bench["stats"]) == {
            "min", "max", "mean", "stddev", "median", "rounds", "ops",
        }
        assert bench["stats"]["rounds"] == 1
        assert bench["stats"]["ops"] == pytest.approx(
            1.0 / bench["stats"]["mean"]
        )
        assert bench["extra_info"]["work_items"] == 150
        json.dumps(doc)  # must be JSON-serialisable as-is

    def test_stats_math(self):
        bench = _tiny_bench()
        result = run_benchmark(bench)
        result.times = [0.1, 0.3]  # deterministic stats
        (entry,) = _doc(result)["benchmarks"]
        stats = entry["stats"]
        assert stats["min"] == pytest.approx(0.1)
        assert stats["max"] == pytest.approx(0.3)
        assert stats["mean"] == pytest.approx(0.2)
        assert stats["median"] == pytest.approx(0.2)
        assert stats["stddev"] == pytest.approx(0.1414213562, rel=1e-6)

    def test_fastpath_speedup_compares_mean_round_times(self):
        # Engine side = the calendar run; lean side = the engine-less
        # core:"fast" entry. Ratio is of mean times, not throughput.
        obj = Benchmark(
            "end_to_end", "e2e[calendar]", {"engine": "calendar"},
            lambda: _hold_round(50, 100), rounds=1, quick_rounds=1,
        )
        fast = Benchmark(
            "end_to_end", "e2e[fastpath]", {"core": "fast"},
            lambda: _hold_round(50, 100), rounds=1, quick_rounds=1,
        )
        r_obj = run_benchmark(obj, quick=True)
        r_fast = run_benchmark(fast, quick=True)
        r_obj.times, r_fast.times = [0.4], [0.1]
        doc = _doc(r_obj, r_fast)
        assert fastpath_speedup(doc) == {"end_to_end": pytest.approx(4.0)}

    def test_fastpath_speedup_needs_both_cores(self):
        only_fast = Benchmark(
            "end_to_end", "e2e[fastpath]", {"core": "fast"},
            lambda: _hold_round(50, 100), rounds=1, quick_rounds=1,
        )
        assert fastpath_speedup(
            _doc(run_benchmark(only_fast, quick=True))
        ) == {}


class TestCompare:
    def _docs(self):
        result = run_benchmark(_tiny_bench(), quick=True)
        result.times = [1.0]
        base = _doc(result)
        return base, copy.deepcopy(base)

    def test_identical_runs_pass(self):
        base, now = self._docs()
        assert compare(now, base) == []

    def test_within_tolerance_passes(self):
        base, now = self._docs()
        now["benchmarks"][0]["stats"]["mean"] = 1.2
        assert compare(now, base, tolerance=1.25) == []

    def test_regression_beyond_tolerance_fails(self):
        base, now = self._docs()
        now["benchmarks"][0]["stats"]["mean"] = 1.3
        failures = compare(now, base, tolerance=1.25)
        assert len(failures) == 1
        assert "tiny[calendar]" in failures[0]
        assert "1.30x" in failures[0]

    def test_speedup_never_fails(self):
        base, now = self._docs()
        now["benchmarks"][0]["stats"]["mean"] = 0.01
        assert compare(now, base) == []

    def test_missing_benchmark_fails(self):
        base, now = self._docs()
        now["benchmarks"] = []
        failures = compare(now, base)
        assert failures == ["tiny[calendar]: missing from current run"]

    def test_extra_current_benchmarks_ignored(self):
        # New benchmarks without a baseline entry must not fail the
        # gate — that is how a baseline gets extended.
        base, now = self._docs()
        base["benchmarks"] = []
        assert compare(now, base) == []

    def test_tolerance_must_exceed_one(self):
        base, now = self._docs()
        with pytest.raises(ValueError):
            compare(now, base, tolerance=1.0)


class TestSuiteDefinition:
    def test_all_benchmarks_cover_the_three_groups(self):
        benches = all_benchmarks()
        groups = {b.group for b in benches}
        assert groups == {"event_loop", "scheduler_dequeue", "end_to_end"}
        names = [b.name for b in benches]
        assert len(names) == len(set(names))  # names are unique keys
        # One calendar-queue row per engine-level group, under the
        # baseline's row names (the lean-loop entry has no event queue,
        # hence no ``engine`` param — it is keyed by ``core`` instead).
        engine_rows = [b.name for b in benches if "engine" in b.params]
        assert engine_rows == [
            "event_loop[calendar-n10000]",
            "e2e_srr_bottleneck[calendar-n256]",
        ]
        # The lean end-to-end replay rides along, and every dequeue
        # discipline is benched at every sweep size.
        assert "e2e_srr_bottleneck[fastpath-n256]" in names
        for sched in ("srr", "drr", "iwrr", "wfq"):
            for n in (16, 512, 4096):
                assert f"dequeue[{sched}-n{n}]" in names
        assert not [n for n in names if ":" in n]


class TestCli:
    def test_group_run_writes_comparable_baseline(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        # A real (tiny-rounds) run of the event_loop group only.
        assert main(["--quick", "--group", "event_loop",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == SCHEMA
        assert {b["group"] for b in doc["benchmarks"]} == {"event_loop"}
        err = capsys.readouterr().err
        assert "event_loop[calendar-n10000]" in err
        # Same machine, same code, generous tolerance: must pass its
        # own baseline.
        assert main(["--quick", "--group", "event_loop",
                     "--baseline", str(out), "--tolerance", "4.0"]) == 0

    def test_baseline_regression_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["--quick", "--group", "event_loop",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        for bench in doc["benchmarks"]:
            bench["stats"]["mean"] /= 1e6  # impossible-to-beat baseline
        out.write_text(json.dumps(doc))
        assert main(["--quick", "--group", "event_loop",
                     "--baseline", str(out)]) == 1
        assert "regression" in capsys.readouterr().err.lower()

    def test_json_flag_prints_document(self, capsys):
        assert main(["--quick", "--group", "event_loop", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == SCHEMA
