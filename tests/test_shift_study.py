"""Tests for the interference distribution-shift study."""

import pytest

from repro.campaigns import CampaignRunner, SweepOptions
from repro.cloud.vm import DEFAULT_VM
from repro.errors import ReproError
from repro.experiments.shift_study import _shifted_vm, run_shift_study


class TestShiftedVM:
    def test_mean_level_raised(self):
        shifted = _shifted_vm(DEFAULT_VM, 0.5)
        assert shifted.interference.mean_level == pytest.approx(
            DEFAULT_VM.interference.mean_level + 0.5
        )

    def test_other_fields_kept(self):
        shifted = _shifted_vm(DEFAULT_VM, 0.5)
        assert shifted.vcpus == DEFAULT_VM.vcpus
        assert shifted.family == DEFAULT_VM.family
        assert shifted.interference.fast_std == DEFAULT_VM.interference.fast_std

    def test_name_tagged(self):
        assert "+0.50" in _shifted_vm(DEFAULT_VM, 0.5).name


class TestShiftStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_shift_study(
            "redis",
            strategies=("DarwinGame", "BLISS"),
            shifts=(0.0, 0.5),
            scale="test",
            eval_runs=50,
        )

    def test_grid_complete(self, study):
        assert study.strategies() == ["DarwinGame", "BLISS"]
        for s in study.strategies():
            for shift in (0.0, 0.5):
                study.row(s, shift)

    def test_baseline_zero_degradation(self, study):
        for s in study.strategies():
            assert study.row(s, 0.0).degradation_percent == 0.0

    def test_shift_increases_time(self, study):
        for s in study.strategies():
            assert study.row(s, 0.5).mean_time >= study.row(s, 0.0).mean_time

    def test_darwin_degrades_less(self, study):
        dg = study.row("DarwinGame", 0.5).degradation_percent
        bliss = study.row("BLISS", 0.5).degradation_percent
        assert dg < bliss

    def test_jobs_do_not_change_the_rows(self):
        rows = [
            run_shift_study(
                "redis", strategies=("DarwinGame", "BLISS"), shifts=(0.0, 0.5),
                scale="test", eval_runs=50,
                runner=CampaignRunner(SweepOptions(jobs=jobs)),
            ).rows
            for jobs in (1, 2)
        ]
        assert rows[0] == rows[1]

    def test_campaigns_run_at_the_study_eval_runs(self, monkeypatch):
        """Before, each campaign evaluated its pick over the spec default of
        100 runs, which the study then discarded."""
        import repro.experiments.shift_study as shift_study

        received = []
        run = shift_study.CampaignRunner.run

        def spy(self, specs, **kwargs):
            specs = list(specs)
            received.extend(specs)
            return run(self, specs, **kwargs)

        monkeypatch.setattr(shift_study.CampaignRunner, "run", spy)
        run_shift_study(
            "redis", strategies=("DarwinGame", "BLISS"), shifts=(0.0, 0.5),
            scale="test", eval_runs=5,
        )
        assert len(received) == 2
        assert all(spec.eval_runs == 5 for spec in received)

    def test_rejects_missing_baseline(self):
        with pytest.raises(ReproError):
            run_shift_study("redis", shifts=(0.5, 1.0), scale="test")

    def test_unknown_cell_keyerror(self, study):
        with pytest.raises(KeyError):
            study.row("DarwinGame", 9.9)
