"""Failure reporting of the sweep engine and atomic artifact IO."""

import json
import time
from pathlib import Path

import pytest

from repro.core.errors import ArtifactError
from repro.harness import (
    SweepPointError,
    atomic_write_json,
    atomic_write_text,
    load_json_checked,
    sweep,
    task_hash,
)
from repro.harness.sweep import child_seed


# Module-level so the process pool can pickle it.
def boom(x):
    if x == 13:
        raise ValueError(f"bad point {x}")
    return x * 2


# Module-level so the process pool can pickle it.
def fail_first_or_mark(index, marker_dir):
    if index == 0:
        raise ValueError("point 0 fails at once")
    (Path(marker_dir) / f"started-{index}").touch()
    time.sleep(0.3)
    return index


class TestFailureReporting:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fast_path_wraps_with_context(self, jobs):
        tasks = [(7,), (13,), (21,)]
        with pytest.raises(SweepPointError) as info:
            sweep(boom, tasks, jobs=jobs, seed=5)
        err = info.value
        assert err.index == 1
        assert err.config_hash == task_hash(boom, (13,))
        # The seed RunContext.child_seed(1) hands the failed point.
        assert err.child_seed == child_seed(5, 1)
        assert "bad point 13" in str(err)
        assert "(13,)" in str(err)
        assert isinstance(err.__cause__, ValueError)

    def test_pool_failure_skips_points_not_yet_started(self, tmp_path):
        tasks = [(i, str(tmp_path)) for i in range(9)]
        with pytest.raises(SweepPointError) as info:
            sweep(fail_first_or_mark, tasks, jobs=2)
        assert info.value.index == 0
        # Points still queued when point 0 failed are cancelled, not run:
        # fewer than the 8 other points ever started.
        assert len(list(tmp_path.iterdir())) < 8


class TestAtomicIO:
    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_atomic_write_failure_cleans_up(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            atomic_write_json(path, {"a": object()})
        assert list(tmp_path.iterdir()) == []

    def test_load_rejects_truncated_json(self, tmp_path):
        path = tmp_path / "trunc.json"
        atomic_write_text(path, '{"schema": "x", "results": {"a"')
        with pytest.raises(ArtifactError):
            load_json_checked(path)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "other.json"
        atomic_write_json(path, {"schema": "somebody/else/v9"})
        with pytest.raises(ArtifactError):
            load_json_checked(path, schema="repro.harness/run-result/v1")

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_json_checked(tmp_path / "never-written.json")

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        atomic_write_text(path, "[1, 2, 3]\n")
        with pytest.raises(ArtifactError):
            load_json_checked(path)
