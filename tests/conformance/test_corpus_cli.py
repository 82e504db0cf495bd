"""Repro artifacts, the committed corpus, and the CLI entry point."""

import json

import pytest

from repro.conformance.cli import check_seed, main
from repro.conformance.corpus import (
    corpus_seeds,
    load_repro_artifact,
    write_repro_artifact,
)
from repro.conformance.oracles import Violation, check_scenario
from repro.conformance.runner import VARIANTS, variant_by_name
from repro.conformance.scenario import generate_scenario
from repro.core import ArtifactError
from repro.schedulers.drr import DRRScheduler
from repro.schedulers.registry import register_scheduler

from .test_oracles import _TruncatingDRR


class TestReproArtifacts:
    def _violation(self):
        return Violation("conservation", "livelock", "drr", "spin", {})

    def test_write_and_load_round_trip(self, tmp_path):
        scenario = generate_scenario(3, quick=True)
        path = write_repro_artifact(
            "srr:deficit", scenario, [self._violation()],
            results_dir=tmp_path,
        )
        assert path.exists()
        repro = load_repro_artifact(path)
        assert repro["variant"] == "srr:deficit"
        assert repro["scenario"] == scenario
        assert repro["violations"][0]["check"] == "livelock"

    def test_collisions_get_fresh_names(self, tmp_path):
        scenario = generate_scenario(3, quick=True)
        paths = {
            write_repro_artifact("drr", scenario, [self._violation()],
                                 results_dir=tmp_path)
            for _ in range(3)
        }
        assert len(paths) == 3

    def test_load_rejects_truncated_file(self, tmp_path):
        bad = tmp_path / "repro-x-0.json"
        bad.write_text('{"schema": "repro.conformance/repro/v1", "var')
        with pytest.raises(ArtifactError):
            load_repro_artifact(bad)


class TestCorpus:
    def test_committed_corpus_is_nonempty_and_sorted(self):
        seeds = corpus_seeds()
        assert seeds == sorted(set(seeds))
        assert len(seeds) >= 20

    def test_corpus_replays_clean(self):
        # The PR-blocking property: every corpus seed passes every oracle
        # on every variant. Checked over a subset here (full replay runs
        # in CI via `python -m repro.conformance --corpus`).
        for seed in corpus_seeds()[:6]:
            scenario = generate_scenario(seed, quick=True)
            for variant in VARIANTS():
                assert check_scenario(variant, scenario) == [], (
                    seed, variant.name,
                )


class TestCheckSeed:
    def test_digest_is_deterministic(self):
        a = check_seed(5, quick=True)
        b = check_seed(5, quick=True)
        assert a == b
        assert a["violations"] == []

    def test_variant_subset(self):
        record = check_seed(5, quick=True, variant_names=["fifo"])
        assert record["violations"] == []


class TestCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        rc = main(["--seeds", "3", "--quick",
                   "--results-dir", str(tmp_path), "--json"])
        summary = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert summary["violations"] == 0
        assert summary["failing_seeds"] == []

    def test_jobs_do_not_change_the_digest(self, tmp_path, capsys):
        digests = []
        for jobs in ("1", "2"):
            main(["--seeds", "6", "--quick", "--jobs", jobs,
                  "--results-dir", str(tmp_path), "--json"])
            digests.append(json.loads(capsys.readouterr().out)["digest"])
        assert digests[0] == digests[1]

    def test_failing_run_writes_shrunk_artifact(self, tmp_path, capsys):
        register_scheduler("drr", _TruncatingDRR)
        try:
            rc = main(["--seeds", "40", "--quick", "--variants", "drr",
                       "--results-dir", str(tmp_path), "--json"])
        finally:
            register_scheduler("drr", DRRScheduler)
        summary = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert summary["violations"] > 0
        assert summary["artifacts"]
        repro = load_repro_artifact(summary["artifacts"][0])
        assert repro["variant"] == "drr"
        assert len(repro["scenario"].flows) <= 3

    def test_replay_of_written_artifact(self, tmp_path, capsys):
        register_scheduler("drr", _TruncatingDRR)
        try:
            main(["--seeds", "40", "--quick", "--variants", "drr",
                  "--results-dir", str(tmp_path), "--json"])
            summary = json.loads(capsys.readouterr().out)
            artifact = summary["artifacts"][0]
            rc = main(["--replay", artifact, "--json"])
            replay = json.loads(capsys.readouterr().out)
            assert rc == 1
            assert replay["violations"]
        finally:
            register_scheduler("drr", DRRScheduler)
        # With the fix back in place the same artifact replays clean.
        rc = main(["--replay", artifact, "--json"])
        replay = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert replay["violations"] == []

    def test_corpus_mode_smoke(self, tmp_path, monkeypatch, capsys):
        import repro.conformance.cli as cli_mod

        monkeypatch.setattr(cli_mod, "corpus_seeds", lambda: [0, 1])
        rc = main(["--corpus", "--quick",
                   "--results-dir", str(tmp_path), "--json"])
        summary = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert summary["seeds"] == 2

    def test_unknown_variant_fails_fast(self, tmp_path):
        from repro.core import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["--seeds", "1", "--variants", "nope",
                  "--results-dir", str(tmp_path)])


class TestBoundsRepro:
    """A failure only the opt-in bounds family sees is shrunk, written
    and replayed by that family."""

    def test_bounds_failure_is_shrunk_and_replayable(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.analysis.netcalc as netcalc
        import repro.conformance.cli as cli_mod

        real_curve = netcalc.srr_service_curve

        def too_tight(*args, **kwargs):
            curve = real_curve(*args, **kwargs)
            return netcalc.RateLatency(curve.rate_bps, curve.latency_s * 0.1)

        monkeypatch.setattr(netcalc, "srr_service_curve", too_tight)
        monkeypatch.setattr(cli_mod, "corpus_seeds", lambda: [2])
        rc = main(["--corpus", "--quick", "--bounds", "--variants", "srr",
                   "--results-dir", str(tmp_path), "--json"])
        summary = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert summary["artifacts"]
        artifact = summary["artifacts"][0]
        rc = main(["--replay", artifact, "--json"])
        replay = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert "bounds" in {v["family"] for v in replay["violations"]}
        # With the real curve back the same artifact replays clean.
        monkeypatch.setattr(netcalc, "srr_service_curve", real_curve)
        rc = main(["--replay", artifact, "--json"])
        replay = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert replay["violations"] == []
