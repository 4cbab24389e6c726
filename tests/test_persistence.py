"""Round-trip tests for the JSON campaign archive."""

import json

import pytest

from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.tournament import DarwinGame
from repro.errors import ReproError
from repro.experiments.persistence import load_campaign, save_campaign


@pytest.fixture(scope="module")
def campaign():
    app = make_application("redis", scale="test")
    env = CloudEnvironment(seed=0)
    result = DarwinGame(DarwinGameConfig(seed=0)).tune(app, env)
    evaluation = env.measure_choice(app, result.best_index, runs=20)
    return result, evaluation


def _rewrite(path, **changes):
    payload = json.loads(path.read_text())
    payload.update(changes)
    path.write_text(json.dumps(payload))


class TestTuningResultRoundTrip:
    def test_details_survive(self, campaign, tmp_path):
        result, _ = campaign
        loaded, _, _ = load_campaign(
            save_campaign(result, None, tmp_path / "r.json")
        )
        assert loaded.evaluations == result.evaluations
        assert loaded.details["regional"]["games"] == result.details["regional"]["games"]

    def test_wrong_kind_rejected(self, campaign, tmp_path):
        result, evaluation = campaign
        path = save_campaign(result, evaluation, tmp_path / "eval.json")
        _rewrite(path, kind="choice_evaluation")
        with pytest.raises(ReproError, match="expected 'campaign'"):
            load_campaign(path)


class TestCampaignRoundTrip:
    def test_round_trip(self, campaign, tmp_path):
        result, evaluation = campaign
        path = save_campaign(
            result, evaluation, tmp_path / "campaign.json",
            app_name="redis", vm_name="m5.8xlarge", notes="nightly",
        )
        loaded_result, loaded_eval, meta = load_campaign(path)
        assert loaded_result.best_index == result.best_index
        assert loaded_eval == evaluation
        assert meta == {"app": "redis", "vm": "m5.8xlarge", "notes": "nightly"}

    def test_without_evaluation(self, campaign, tmp_path):
        result, _ = campaign
        path = save_campaign(result, None, tmp_path / "c.json")
        _, loaded_eval, _ = load_campaign(path)
        assert loaded_eval is None

    def test_version_check(self, campaign, tmp_path):
        result, _ = campaign
        path = save_campaign(result, None, tmp_path / "v.json")
        _rewrite(path, version=99)
        with pytest.raises(ReproError, match="format version 99"):
            load_campaign(path)
