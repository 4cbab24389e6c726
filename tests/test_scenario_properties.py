"""Property tests (hypothesis) for the scenario-pack contracts.

Three properties every registered pack must uphold, per the scenario
subsystem's design:

* **seed-determinism** — the same environment seed realises the same
  dynamic conditions, whatever the query pattern;
* **store round-trip** — a campaign spec naming any pack survives the
  JSONL store byte-for-byte (the resume contract);
* **steady neutrality** — the ``steady`` pack is bit-identical to running
  with no scenario at all, across every sampling path.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import make_application
from repro.campaigns import CampaignRecord, CampaignSpec, CampaignStore
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import VMSpec
from repro.scenarios import SCENARIO_NAMES, get_scenario
from repro.types import ChoiceEvaluation

VM = VMSpec.preset("m5.8xlarge")

_scenarios = st.sampled_from(SCENARIO_NAMES)
_seeds = st.integers(min_value=0, max_value=2**16)


def _app():
    # Memoised per process by the application cache: cheap per example.
    return make_application("redis", scale="test")


class TestSeedDeterminism:
    @given(name=_scenarios, seed=_seeds)
    @settings(max_examples=40, deadline=None)
    def test_level_field_is_a_function_of_the_seed(self, name, seed):
        ts = np.linspace(0.0, 10 * 86400.0, 300)
        a = CloudEnvironment(VM, seed=seed, scenario=name)
        b = CloudEnvironment(VM, seed=seed, scenario=name)
        assert np.array_equal(
            a.interference.epoch_mean(ts), b.interference.epoch_mean(ts)
        )

    @given(name=_scenarios, seed=_seeds)
    @settings(max_examples=20, deadline=None)
    def test_solo_runs_are_a_function_of_the_seed(self, name, seed):
        app = _app()
        a = CloudEnvironment(VM, seed=seed, scenario=name)
        b = CloudEnvironment(VM, seed=seed, scenario=name)
        assert np.array_equal(
            a.run_solo_batch(app, [0, 3, 11]), b.run_solo_batch(app, [0, 3, 11])
        )

    @given(name=_scenarios, seed=_seeds, split=st.integers(1, 299))
    @settings(max_examples=20, deadline=None)
    def test_query_partitioning_never_changes_levels(self, name, seed, split):
        ts = np.linspace(0.0, 10 * 86400.0, 300)
        whole = CloudEnvironment(VM, seed=seed, scenario=name)
        parts = CloudEnvironment(VM, seed=seed, scenario=name)
        assert np.array_equal(
            whole.interference.epoch_mean(ts),
            np.concatenate([
                parts.interference.epoch_mean(ts[:split]),
                parts.interference.epoch_mean(ts[split:]),
            ]),
        )


class TestStoreRoundTrip:
    @given(
        name=_scenarios,
        seed=_seeds,
        eval_runs=st.integers(min_value=2, max_value=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_spec_survives_the_campaign_store(self, name, seed, eval_runs):
        spec = CampaignSpec(
            app="redis", scale="test", seed=seed, eval_runs=eval_runs,
            scenario=name,
        )
        record = CampaignRecord(
            spec=spec,
            status="done",
            best_index=7,
            core_hours=12.5,
            tuning_seconds=3600.0,
            evaluation=ChoiceEvaluation(
                index=7, mean_time=250.0, cov_percent=4.2, min_time=240.0,
                max_time=280.0, true_time=230.0, sensitivity=0.4,
                runs=eval_runs,
            ),
        )
        with tempfile.TemporaryDirectory() as tmp:
            store = CampaignStore(Path(tmp) / "s.jsonl")
            store.append(record)
            loaded = store.records()
        assert len(loaded) == 1
        assert loaded[0].spec == spec
        assert loaded[0].campaign_id == spec.campaign_id
        assert loaded[0].to_payload() == record.to_payload()

    @given(name=_scenarios)
    @settings(max_examples=10, deadline=None)
    def test_registered_packs_serialise_canonically(self, name):
        pack = get_scenario(name)
        wire = json.loads(json.dumps(pack.to_dict()))
        from repro.scenarios import Scenario

        assert Scenario.from_dict(wire) == pack


class TestSteadyNeutrality:
    @given(seed=_seeds, start=st.floats(0.0, 30 * 86400.0))
    @settings(max_examples=15, deadline=None)
    def test_steady_env_reproduces_no_scenario_env(self, seed, start):
        app = _app()
        bare = CloudEnvironment(VM, seed=seed, start_time=start)
        steady = CloudEnvironment(VM, seed=seed, start_time=start,
                                  scenario="steady")
        assert np.array_equal(
            bare.run_solo_batch(app, [1, 4, 9]),
            steady.run_solo_batch(app, [1, 4, 9]),
        )
        a = bare.run_colocated_batch(app, [[0, 2, 5]], advance_clock=True)[0]
        b = steady.run_colocated_batch(app, [[0, 2, 5]], advance_clock=True)[0]
        assert a.elapsed == b.elapsed and a.work == b.work

    @given(seed=_seeds)
    @settings(max_examples=10, deadline=None)
    def test_steady_evaluation_is_bit_identical(self, seed):
        app = _app()
        bare = CloudEnvironment(VM, seed=seed).measure_choice(app, 3, runs=20)
        steady = CloudEnvironment(VM, seed=seed, scenario="steady") \
            .measure_choice(app, 3, runs=20)
        assert bare == steady
