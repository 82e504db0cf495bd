"""Tests of the perfbench benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q

Workloads run at a tiny simulated horizon, so these check the benchmark's
plumbing and checks, not its timings.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

import layers
import measure
import run
import workloads

BENCH = run._load_benchmark()
TINY = 0.2


def _names(group: str):
    return [m["name"] for m in BENCH[group]]


def _argv(name: str, trace: str = "0"):
    """The standard invocation of one measured run."""
    return ["--workload", name, "--seed", "1",
            "--seconds", str(BENCH["run_seconds"]), "--trace", trace]


@pytest.fixture
def tiny(monkeypatch):
    """Make ``run.py`` measure one repeat at the tiny horizon, whatever
    ``--seconds`` says."""
    real = measure.run_workload

    def short(name, seed, _seconds, trace, **kwargs):
        return real(name, seed, 0.0, trace, horizon=TINY, min_repeats=1,
                    **kwargs)

    monkeypatch.setattr(measure, "run_workload", short)


def _last_json(text: str):
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert BENCH["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_prints_the_listed_metrics(name, trace, tiny, capsys,
                                         monkeypatch, tmp_path):
    monkeypatch.setattr(run, "RESULTS_DIR", str(tmp_path))
    code = run.main(_argv(name, trace))
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace == "1" else 1)
    group = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == _names(group)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert "PROBLEM" not in out
        spans = (tmp_path / f"spans-{name}-s1.jsonl").read_text().splitlines()
        assert len(spans) == min(result["metrics"]["trace.spans"]["value"],
                                 layers.KEEP_SPANS)
        assert set(json.loads(spans[0])) == {"id", "name", "start", "end",
                                             "parent", "trace"}


def test_planted_wrong_golden_fails_one_op(tiny, capsys, monkeypatch):
    name = "bottleneck-n512"
    signature = workloads.WORKLOADS[name].spec(1).signature()
    planted = {name: {"1": {
        "spec": signature, "horizon": TINY, "digest": "0" * 64,
        "delivered": 0, "drops": 0, "flow_counts": "",
    }}}
    monkeypatch.setattr(measure, "load_goldens", lambda: planted)
    code = run.main(_argv(name))
    result = _last_json(capsys.readouterr().out)
    assert code == 1
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["correct"] is False


def test_seed_changes_only_the_seeded_specs():
    seeded = {"dumbbell-paper", "fattree-drr-k6"}
    for name, wl in workloads.WORKLOADS.items():
        changed = wl.spec(1).signature() != wl.spec(2).signature()
        assert changed == (name in seeded), name


def test_goldens_cover_seeds_1_and_2():
    goldens = measure.load_goldens()
    for name, wl in workloads.WORKLOADS.items():
        for seed in (1, 2):
            entry = measure.find_golden(goldens, name,
                                        wl.spec(seed).signature(), wl.horizon)
            assert entry is not None, (name, seed)
    lean = goldens["lean-n512"]["1"]
    engine = goldens["bottleneck-n512"]["1"]
    assert lean["flow_counts"] == engine["flow_counts"]
    assert lean["delivered"] == engine["delivered"]


def test_windows_equal_one_run_call():
    spec = workloads.dumbbell_spec(1)
    whole = workloads.build(spec)
    whole.run(until=0.5)
    windowed = workloads.build(spec)
    for k in range(100):
        windowed.run(until=0.5 * (k + 1) / 100)
    assert (workloads.engine_outputs(whole)
            == workloads.engine_outputs(windowed))


def test_calibrate_reports_median_and_iqr(capsys, monkeypatch):
    values = iter(range(1, 100))

    def child(workload, seed, seconds, trace):
        v = float(next(values))
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {m: {"value": v, "unit": "u"}
                            for m in _names("end_to_end")}}

    monkeypatch.setattr(run, "_child", child)
    assert run.main(["--calibrate", "3"]) == 0
    out = capsys.readouterr().out
    summary = _last_json(out)["metrics"]
    # Rounds rotate the first workload; the bottleneck ran 1st, 4th, 3rd.
    assert summary["bottleneck-n512.pkts_per_s.median"]["value"] == 8.0
    assert summary["lean-n512.setup_s.iqr_pct"]["unit"] == "%"


def test_bare_copy_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *_argv("lean-n512")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_lean_peak_rss_excludes_the_equivalence_check():
    """``peak_rss_mb`` is read before the equivalence check builds its
    engine networks: 64 MB held by the check must not show in it."""
    script = textwrap.dedent(f"""
        import json
        import measure

        def heavy(wl, seed, horizon):
            blob = b"x" * (64 << 20)
            return [] if blob else ["unreachable"]

        measure.equivalence_check = heavy
        result = measure.run_workload("lean-n512", 1, 0.0, False,
                                      horizon={TINY}, min_repeats=1)
        print(json.dumps([result.correct, result.metrics["peak_rss_mb"],
                          measure.peak_rss_mb()]))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([run.SRC, run.HERE]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    correct, reported, after = _last_json(proc.stdout)
    assert correct
    assert reported + 48 < after
