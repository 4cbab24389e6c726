"""Unit tests for the scenario-pack subsystem (``repro.scenarios``)."""

import json

import numpy as np
import pytest

from repro.campaigns import (
    CampaignGrid,
    CampaignRunner,
    CampaignSpec,
    CampaignStore,
    SweepOptions,
    summarise,
    summarise_by,
)
from repro.cloud.environment import CloudEnvironment
from repro.cloud.fleet import HostClass, default_host_mix
from repro.cloud.vm import VMSpec
from repro.errors import CloudError, ReproError
from repro.scenarios import (
    SCENARIO_NAMES,
    BurstStorms,
    ExtraDiurnal,
    HostMix,
    LevelRamp,
    PreemptionWindows,
    Scenario,
    get_scenario,
    modifier_from_dict,
    register_scenario,
    resolve_scenario,
    scenario_names,
)

VM = VMSpec.preset("m5.8xlarge")
WEEK = np.linspace(0.0, 7 * 86400.0, 1500)


def _env(seed=3, scenario=None, start_time=0.0):
    return CloudEnvironment(VM, seed=seed, start_time=start_time,
                            scenario=scenario)


class TestRegistry:
    def test_six_built_in_packs(self):
        assert SCENARIO_NAMES == (
            "steady", "diurnal", "bursty", "preemptible", "drift",
            "mixed-fleet",
        )
        for name in SCENARIO_NAMES:
            pack = get_scenario(name)
            assert pack.name == name
            assert pack.description

    def test_only_steady_is_steady(self):
        assert get_scenario("steady").is_steady
        for name in SCENARIO_NAMES[1:]:
            assert not get_scenario(name).is_steady

    def test_unknown_scenario_raises(self):
        with pytest.raises(ReproError, match="unknown scenario"):
            get_scenario("tsunami")

    def test_resolve_accepts_name_instance_and_none(self):
        assert resolve_scenario(None) is None
        assert resolve_scenario("bursty") is get_scenario("bursty")
        custom = Scenario("my-own", modifiers=(LevelRamp(),))
        assert resolve_scenario(custom) is custom

    def test_register_custom_pack_and_protect_built_ins(self):
        custom = Scenario("custom-ramp", modifiers=(LevelRamp(0.3, 0.5),))
        try:
            register_scenario(custom)
            assert get_scenario("custom-ramp") is custom
            assert "custom-ramp" in scenario_names()
            with pytest.raises(ReproError, match="already registered"):
                register_scenario(Scenario("custom-ramp"))
            replacement = Scenario("custom-ramp", modifiers=(LevelRamp(0.1),))
            register_scenario(replacement, replace=True)
            assert get_scenario("custom-ramp") is replacement
            with pytest.raises(ReproError, match="built-in"):
                register_scenario(Scenario("steady"), replace=True)
        finally:
            from repro.scenarios import registry

            registry._REGISTRY.pop("custom-ramp", None)


class TestScenarioValue:
    def test_round_trip_every_pack(self):
        for name in SCENARIO_NAMES:
            pack = get_scenario(name)
            clone = Scenario.from_dict(json.loads(json.dumps(pack.to_dict())))
            assert clone == pack
            assert clone.content_hash() == pack.content_hash()

    def test_content_hash_tracks_physics_not_prose(self):
        a = Scenario("a", "one description", (LevelRamp(0.2, 0.6),))
        b = Scenario("b", "another", (LevelRamp(0.2, 0.6),))
        c = Scenario("c", "same prose", (LevelRamp(0.3, 0.6),))
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_empty_name_rejected(self):
        with pytest.raises(CloudError):
            Scenario("")

    def test_unknown_modifier_kind_rejected(self):
        with pytest.raises(CloudError, match="unknown scenario modifier"):
            modifier_from_dict({"kind": "wormhole"})

    def test_modifier_validation(self):
        with pytest.raises(CloudError):
            BurstStorms(storm_probability=1.5)
        with pytest.raises(CloudError):
            PreemptionWindows(window_seconds=100.0, outage_seconds=200.0)
        with pytest.raises(CloudError):
            HostMix(multipliers=(1.0,), weights=(1.0, 2.0))
        with pytest.raises(CloudError):
            ExtraDiurnal(period_seconds=0.0)


class TestDynamics:
    def test_steady_env_bit_identical_to_no_scenario(self):
        bare, steady = _env(), _env(scenario="steady")
        assert np.array_equal(
            bare.interference.epoch_mean(WEEK),
            steady.interference.epoch_mean(WEEK),
        )
        app = _redis()
        a = _env().run_solo_batch(app, [0, 5, 9])
        b = _env(scenario="steady").run_solo_batch(app, [0, 5, 9])
        assert np.array_equal(a, b)

    def test_each_dynamic_pack_changes_the_level_field(self):
        baseline = _env().interference.epoch_mean(WEEK)
        for name in SCENARIO_NAMES[1:]:
            dynamic = _env(scenario=name).interference.epoch_mean(WEEK)
            assert not np.array_equal(dynamic, baseline), name

    def test_same_seed_reproduces_same_dynamics(self):
        for name in SCENARIO_NAMES:
            a = _env(seed=11, scenario=name).interference.epoch_mean(WEEK)
            b = _env(seed=11, scenario=name).interference.epoch_mean(WEEK)
            assert np.array_equal(a, b), name

    def test_different_seeds_place_storms_differently(self):
        a = _env(seed=1, scenario="bursty").interference.epoch_mean(WEEK)
        b = _env(seed=2, scenario="bursty").interference.epoch_mean(WEEK)
        assert not np.array_equal(a, b)

    def test_query_order_never_changes_windowed_draws(self):
        for name in ("bursty", "preemptible", "mixed-fleet"):
            forward = _env(seed=5, scenario=name).interference.epoch_mean(WEEK)
            backward = _env(seed=5, scenario=name).interference.epoch_mean(
                WEEK[::-1]
            )
            assert np.array_equal(backward[::-1], forward), name

    def test_preemption_outages_stall_the_level(self):
        pack = get_scenario("preemptible")
        stall = pack.modifiers[0].stall_level
        fine = np.linspace(0.0, 14 * 86400.0, 20000)
        levels = _env(seed=0, scenario="preemptible").interference.epoch_mean(
            fine
        )
        assert levels.max() >= stall  # some outage was hit...
        assert np.mean(levels >= stall) < 0.2  # ...but outages are rare

    def test_mixed_fleet_is_piecewise_constant_multiplier(self):
        rotation = get_scenario("mixed-fleet").modifiers[0].rotation_seconds
        mids = (np.arange(40) + 0.5) * rotation
        base = _env(seed=9).interference.epoch_mean(mids)
        mixed = _env(seed=9, scenario="mixed-fleet").interference.epoch_mean(
            mids
        )
        # The level floor clips tiny products; compare where it cannot bite.
        unclipped = mixed > 0.011
        assert unclipped.sum() > 10
        multipliers = np.round(mixed[unclipped] / base[unclipped], 6)
        allowed = np.round(
            np.array(get_scenario("mixed-fleet").modifiers[0].multipliers), 6
        )
        assert set(multipliers) <= set(allowed)
        assert len(set(multipliers)) > 1  # the fleet is actually mixed

    def test_drift_ramps_and_saturates(self):
        ramp = get_scenario("drift").modifiers[0]
        ts = np.array([0.0, 86400.0, 30 * 86400.0])
        base = _env(seed=4).interference.epoch_mean(ts)
        drifted = _env(seed=4, scenario="drift").interference.epoch_mean(ts)
        delta = drifted - base
        assert delta[0] == pytest.approx(0.0)
        assert delta[1] == pytest.approx(ramp.rate_per_day)
        assert delta[2] == pytest.approx(ramp.saturation)

    def test_stationary_streams_untouched_by_scenario(self):
        # The tuner-facing sampling draws (run noise, bursts) must consume
        # the same stream positions with and without a dynamic scenario —
        # the scenario realises from a *fourth* spawned child.
        app = _redis()
        bare = _env(seed=8).run_solo_batch(app, [1, 2, 3])
        with_pack = _env(seed=8, scenario="drift").run_solo_batch(app, [1, 2, 3])
        ratio = with_pack / bare
        assert np.all(ratio >= 1.0)  # drift only adds level at t=0.. slightly
        # and the chosen times differ only through the level field, not
        # through different random draws: re-running is bit-stable.
        again = _env(seed=8, scenario="drift").run_solo_batch(app, [1, 2, 3])
        assert np.array_equal(with_pack, again)

    def test_games_run_under_scenarios(self):
        app = _redis()
        outcome = _env(seed=2, scenario="bursty").run_colocated_batch(
            app, [[0, 3, 7]], advance_clock=True
        )[0]
        assert outcome.elapsed > 0.0
        again = _env(seed=2, scenario="bursty").run_colocated_batch(
            app, [[0, 3, 7]], advance_clock=True
        )[0]
        assert outcome.elapsed == again.elapsed
        assert outcome.work == again.work
        # and an always-on scenario changes the game vs. the steady cloud
        # (bursty may roll no storm inside one short game's first window)
        steady = _env(seed=2).run_colocated_batch(
            app, [[0, 3, 7]], advance_clock=True
        )[0]
        diurnal = _env(seed=2, scenario="diurnal").run_colocated_batch(
            app, [[0, 3, 7]], advance_clock=True
        )[0]
        assert steady.elapsed != diurnal.elapsed


class TestFleetMix:
    def test_default_host_mix_shape(self):
        mix = default_host_mix()
        assert len(mix) >= 3
        names = [c.name for c in mix]
        assert "general" in names and "oversubscribed" in names
        general = next(c for c in mix if c.name == "general")
        assert general.level_multiplier == pytest.approx(1.0)
        assert all(c.weight > 0 for c in mix)

    def test_host_class_validation(self):
        with pytest.raises(CloudError):
            HostClass("bad", -1.0, 0.5)
        with pytest.raises(CloudError):
            HostClass("bad", 1.0, 0.0)


class TestCampaignIntegration:
    def test_scenario_participates_in_campaign_id(self):
        steady = CampaignSpec(app="redis", scale="test")
        explicit = CampaignSpec(app="redis", scale="test", scenario="steady")
        bursty = CampaignSpec(app="redis", scale="test", scenario="bursty")
        # steady is the pre-scenario spec: same ID with or without the field.
        assert steady.campaign_id == explicit.campaign_id
        assert bursty.campaign_id != steady.campaign_id
        assert ".bursty." in bursty.campaign_id

    def test_grid_enumerates_scenario_axis(self):
        grid = CampaignGrid(
            apps=("redis",), seeds=(0, 1), scale="test",
            scenarios=("steady", "bursty"),
        )
        specs = list(grid.specs())
        assert grid.size == len(specs) == 4
        assert [s.scenario for s in specs] == [
            "steady", "steady", "bursty", "bursty",
        ]
        assert len({s.campaign_id for s in specs}) == 4

    def test_grid_header_round_trips_scenarios(self):
        grid = CampaignGrid(apps=("redis",), scenarios=("steady", "drift"))
        assert CampaignGrid.from_dict(
            json.loads(json.dumps(grid.to_dict()))
        ) == grid

    def test_pre_scenario_payloads_still_load(self):
        spec = CampaignSpec(app="redis", scale="test")
        data = spec.to_dict()
        del data["scenario"]  # a store written before the scenario axis
        loaded = CampaignSpec.from_dict(data)
        assert loaded == spec
        assert loaded.campaign_id == spec.campaign_id

    def test_sweep_parallel_matches_serial_across_scenarios(self):
        grid = CampaignGrid(
            apps=("redis",), seeds=(0,), scale="test", eval_runs=10,
            scenarios=("steady", "bursty", "preemptible"),
        )
        specs = list(grid.specs())
        serial = CampaignRunner(SweepOptions(jobs=1)).run(specs)
        parallel = CampaignRunner(SweepOptions(jobs=2)).run(specs)
        serial.raise_on_failure()
        parallel.raise_on_failure()
        assert json.dumps([r.to_payload() for r in serial.records]) \
            == json.dumps([r.to_payload() for r in parallel.records])
        # Dynamic conditions genuinely change campaign outcomes.
        by_scenario = {
            r.spec.scenario: r.evaluation.mean_time for r in serial.records
        }
        assert by_scenario["preemptible"] != by_scenario["steady"]

    def test_store_round_trips_scenario_records(self, tmp_path):
        grid = CampaignGrid(
            apps=("redis",), seeds=(0,), scale="test", eval_runs=10,
            scenarios=("steady", "mixed-fleet"),
        )
        store = CampaignStore(tmp_path / "s.jsonl")
        report = CampaignRunner(SweepOptions(jobs=1), store=store).run(
            grid.specs(), grid=grid
        )
        reloaded_grid, records = store.load()
        assert reloaded_grid == grid
        assert {r.spec.scenario for r in records} == {"steady", "mixed-fleet"}
        assert sorted(r.campaign_id for r in records) \
            == sorted(r.campaign_id for r in report.records)

    def test_resume_skips_done_scenario_campaigns(self, tmp_path):
        grid = CampaignGrid(
            apps=("redis",), seeds=(0,), scale="test", eval_runs=10,
            scenarios=("steady", "bursty"),
        )
        specs = list(grid.specs())
        store = CampaignStore(tmp_path / "s.jsonl")
        runner = CampaignRunner(SweepOptions(jobs=1), store=store)
        runner.run(specs[:1], grid=grid)
        resumed = runner.run(specs, grid=grid)
        assert resumed.skipped == 1 and resumed.executed == 1
        fresh = CampaignRunner(SweepOptions(jobs=1)).run(specs)
        assert summarise(resumed.records).to_json() \
            == summarise(fresh.records).to_json()


class TestScenarioReport:
    def _records(self):
        grid = CampaignGrid(
            apps=("redis",), strategies=("DarwinGame", "BLISS"), seeds=(0,),
            scale="test", eval_runs=10, scenarios=("steady", "bursty"),
        )
        runner = CampaignRunner(SweepOptions(jobs=1))
        return runner.run(grid.specs()).records

    def test_by_scenario_rows_and_gap(self):
        summary = summarise_by(self._records(), "scenario")
        assert summary.values == ["bursty", "steady"]
        assert summary.total == summary.done == 4
        for scenario in ("steady", "bursty"):
            darwin = summary.row(scenario, "DarwinGame")
            bliss = summary.row(scenario, "BLISS")
            assert darwin.gap_percent == pytest.approx(0.0)
            expected = 100.0 * (bliss.mean_time - darwin.mean_time) \
                / darwin.mean_time
            assert bliss.gap_percent == pytest.approx(expected)

    def test_payload_is_deterministic_under_record_order(self):
        records = self._records()
        forward = summarise_by(records, "scenario").to_json()
        backward = summarise_by(records[::-1], "scenario").to_json()
        assert forward == backward

    def test_missing_darwin_yields_nan_gap(self):
        records = [r for r in self._records() if r.spec.strategy == "BLISS"]
        summary = summarise_by(records, "scenario")
        assert np.isnan(summary.row("steady", "BLISS").gap_percent)


class TestScenarioRobustnessExperiment:
    def test_driver_runs_and_aggregates(self):
        from repro.experiments import run_scenario_robustness

        result = run_scenario_robustness(
            apps=("redis",), strategies=("DarwinGame", "BLISS"),
            scenarios=("steady", "bursty"), seeds=(0,), scale="test",
            eval_runs=10, jobs=1,
        )
        assert result.total == 4
        assert {r.value for r in result.rows} == {"steady", "bursty"}
        assert result.row("bursty", "DarwinGame").campaigns == 1
        assert "scenario" in result.table()

    def test_driver_rejects_unknown_scenario_before_running(self):
        from repro.errors import ReproError
        from repro.experiments import run_scenario_robustness

        with pytest.raises(ReproError, match="unknown scenario"):
            run_scenario_robustness(scenarios=("tsunami",), scale="test")


def _redis():
    from repro.apps import make_application

    return make_application("redis", scale="test")
