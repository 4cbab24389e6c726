"""Golden seed-determinism: the refactored engine vs pre-refactor snapshots.

The scheduler/executor refactor moved every pairing and bracket rule out of
``repro.core`` into the shared ``repro.formats`` schedulers.  These tests
pin the default-format engine to snapshots taken from the *pre-refactor*
phase drivers: the same ``TuningResult`` (down to float bits, including the
per-phase details) and the same core-hour ledger, for redis and lammps at
test scale.  The bench-scale redis baseline (3,491 games, 111,522
evaluations) is pinned the same way, from a snapshot taken before the score
book dropped its per-player history objects.

``tournament_variants_test.json`` pins, the same way, what the default
workload leaves out: every other tournament recipe, every ablation, a
2-vCPU VM, and the feedback and hybrid tuners that drive the engine.
Regenerate only deliberately, via ``scripts/make_golden_tournament.py``.
"""

import json
from pathlib import Path

import pytest

from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import VMSpec
from repro.core.config import DarwinGameConfig
from repro.core.dynamic import DynamicFeedbackDarwinGame
from repro.core.tournament import DarwinGame
from repro.tuners.active_harmony import ActiveHarmonyLike
from repro.tuners.integration import HybridTuner

GOLDEN_DIR = Path(__file__).parent / "golden"


def _roundtrip(value):
    """Normalise through JSON, exactly as the snapshot was written.

    JSON floats round-trip bit-for-bit (repr is the shortest exact form),
    so this only converts tuples to lists / int-keys to strings — any
    numeric difference is a real determinism break.
    """
    return json.loads(json.dumps(value))


def _assert_matches(golden, result, env):
    want = golden["result"]
    assert result.tuner_name == want["tuner_name"]
    assert result.best_index == want["best_index"]
    assert _roundtrip(list(result.best_values)) == want["best_values"]
    assert result.evaluations == want["evaluations"]
    # Bit-identical floats: no approx, no tolerance.
    assert result.core_hours == want["core_hours"]
    assert result.tuning_seconds == want["tuning_seconds"]
    assert _roundtrip(result.details) == want["details"]

    ledger = golden["ledger"]
    assert _roundtrip(env.ledger.core_hours_by_label()) \
        == ledger["core_hours_by_label"]
    assert env.ledger.core_hours == ledger["core_hours"]
    assert env.ledger.wall_hours == ledger["wall_hours"]
    assert env.now == golden["env_now"]


@pytest.mark.parametrize(
    "snapshot",
    [
        pytest.param("tournament_redis_test.json", id="redis"),
        pytest.param("tournament_lammps_test.json", id="lammps"),
        pytest.param("tournament_redis_bench.json", id="redis-bench"),
    ],
)
def test_default_format_matches_pre_refactor_snapshot(snapshot):
    golden = json.loads((GOLDEN_DIR / snapshot).read_text())

    app = make_application(golden["app"], scale=golden["scale"])
    env = CloudEnvironment(VMSpec.preset(golden["vm"]), seed=golden["env_seed"])
    result = DarwinGame(
        DarwinGameConfig(seed=golden["config_seed"])
    ).tune(app, env)
    _assert_matches(golden, result, env)


VARIANTS = json.loads(
    (GOLDEN_DIR / "tournament_variants_test.json").read_text()
)


def _variant_tuner(variant, config_seed):
    config = DarwinGameConfig(seed=config_seed)
    if "format" in variant:
        config = config.with_format(variant["format"])
    if "ablation" in variant:
        config = config.with_ablation(variant["ablation"])
    tuner = variant.get("tuner")
    if tuner == "feedback":
        return DynamicFeedbackDarwinGame(config)
    if tuner == "hybrid":
        return HybridTuner(ActiveHarmonyLike(seed=1), config, seed=1)
    return DarwinGame(config)


@pytest.mark.parametrize("key", sorted(VARIANTS))
def test_variant_matches_snapshot(key):
    golden = VARIANTS[key]
    app = make_application(golden["app"], scale=golden["scale"])
    env = CloudEnvironment(VMSpec.preset(golden["vm"]), seed=golden["env_seed"])
    result = _variant_tuner(golden["variant"], golden["config_seed"]).tune(
        app, env
    )
    _assert_matches(golden, result, env)
