"""End-to-end workflow tests across subsystems.

Each test walks a realistic user journey through several packages at once,
catching integration seams no single-module test touches.
"""

import numpy as np
import pytest

from repro import (
    CloudEnvironment,
    DarwinGame,
    DarwinGameConfig,
    ReplayedInterference,
    make_application,
)
from repro.cloud.fleet import schedule_lpt
from repro.cloud.traces import record_trace, step_trace
from repro.campaigns import CampaignRecord, CampaignSpec, open_store
from repro.cloud.vm import DEFAULT_VM
from repro.core.trace import format_tournament_report


class TestTuneArchiveReport:
    """Tune -> evaluate -> store -> reload -> report."""

    def test_full_cycle(self, tmp_path):
        app = make_application("redis", scale="test")
        env = CloudEnvironment(seed=0)
        result = DarwinGame(DarwinGameConfig(seed=0)).tune(app, env)
        evaluation = env.measure_choice(app, result.best_index, runs=20)

        store = open_store(tmp_path / "c.jsonl")
        store.append(CampaignRecord(
            spec=CampaignSpec(app=app.name, scale="test", eval_runs=20),
            status="done",
            best_index=result.best_index,
            core_hours=result.core_hours,
            tuning_seconds=result.tuning_seconds,
            evaluation=evaluation,
            result=result,
        ))
        (loaded,) = open_store(store.path).records()

        report = format_tournament_report(loaded.result)
        assert str(result.best_index) in report
        assert loaded.evaluation.mean_time == evaluation.mean_time
        assert loaded.spec.app == "redis"


class TestTuneOnReplayedNoise:
    """Record a noise realisation, replay it, tune on the replay."""

    def test_identical_replays_identical_outcomes(self):
        app = make_application("redis", scale="test")
        process_env = CloudEnvironment(seed=3)
        trace = record_trace(
            process_env.interference, duration=12 * 3600.0, dt=60.0, seed=5
        )

        picks = []
        for _ in range(2):
            env = CloudEnvironment(seed=3)
            env.interference = ReplayedInterference(trace, DEFAULT_VM.interference)
            result = DarwinGame(DarwinGameConfig(seed=1)).tune(app, env)
            picks.append(result.best_index)
        assert picks[0] == picks[1]

    def test_tune_through_a_step_shift(self):
        """The tournament survives a mid-campaign regime change."""
        app = make_application("redis", scale="test")
        trace = step_trace(
            level_before=0.1, level_after=1.2,
            step_at=6 * 3600.0, duration=48 * 3600.0,
        )
        env = CloudEnvironment(seed=2)
        env.interference = ReplayedInterference(trace, DEFAULT_VM.interference)
        result = DarwinGame(DarwinGameConfig(seed=2)).tune(app, env)
        assert 0 <= result.best_index < app.space.size
        # The winner should still be a reasonably robust configuration.
        sens = float(app.sensitivity(np.array([result.best_index]))[0])
        assert sens < 0.5


class TestCampaignToFleetPlan:
    """Use a tournament's own region durations to plan a fleet."""

    def test_fleet_plan_from_tournament(self):
        app = make_application("redis", scale="test")
        env = CloudEnvironment(seed=1)
        result = DarwinGame(DarwinGameConfig(seed=1)).tune(app, env)
        durations = result.details["regional"]["region_durations"]
        assert durations

        serial = schedule_lpt(durations, 1)
        parallel = schedule_lpt(durations, 8)
        assert parallel.makespan <= serial.makespan
        assert serial.total_work == pytest.approx(parallel.total_work)
        # The simulated campaign assumed an unbounded fleet; its clock
        # advance equals the longest single region, the makespan floor.
        assert max(durations) <= parallel.makespan + 1e-9
