#!/usr/bin/env python
"""Regenerate the golden DarwinGame determinism snapshots.

``tests/test_golden_tournament.py`` asserts that the engine reproduces these
snapshots bit for bit — the refactoring safety net for the tournament stack.
The default-format fixtures in ``tests/golden/`` were generated by the
pre-refactor (PR 1-4) phase drivers; ``tournament_variants_test.json`` pins
the paths those three leave out (every other recipe, every ablation, a
2-vCPU VM, and the feedback and hybrid tuners built on the engine).
Regenerating them is only legitimate when a change *deliberately* moves
results (say, a physics change), in which case the diff makes that decision
explicit in review.

Run from the repository root::

    PYTHONPATH=src python scripts/make_golden_tournament.py
"""

import json
from pathlib import Path
from typing import Optional

from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import VMSpec
from repro.core.config import ABLATION_NAMES, DarwinGameConfig
from repro.core.dynamic import DynamicFeedbackDarwinGame
from repro.core.tournament import DarwinGame
from repro.formats.recipes import DEFAULT_FORMAT, tournament_format_names
from repro.tuners.active_harmony import ActiveHarmonyLike
from repro.tuners.integration import HybridTuner

OUT_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

#: The snapshot workloads: app x scale x (config seed, env seed).  The
#: bench-scale redis run is the ROADMAP's performance baseline (3,491 games,
#: 111,522 evaluations), so its bookkeeping is pinned at full size.
WORKLOADS = (
    ("redis", "test", 1, 7),
    ("lammps", "test", 1, 7),
    ("redis", "bench", 1, 7),
)

#: Variant snapshots, each played for every app below at test scale with
#: config seed 1 and env seed 7: one key off the default workload.
VARIANT_APPS = ("redis", "lammps")
VARIANTS = (
    [{"format": name} for name in tournament_format_names()
     if name != DEFAULT_FORMAT]
    + [{"ablation": name} for name in ABLATION_NAMES + ("contiguous regions",)]
    + [{"vm": "m5.large"}, {"tuner": "feedback"}, {"tuner": "hybrid"}]
)


def make_tuner(variant: dict, config_seed: int):
    """The tuner a variant names (``DarwinGame`` unless ``tuner`` is set)."""
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


def snapshot(
    app_name: str, scale: str, config_seed: int, env_seed: int,
    variant: Optional[dict] = None,
) -> dict:
    variant = variant or {}
    vm = variant.get("vm", "m5.8xlarge")
    app = make_application(app_name, scale=scale)
    env = CloudEnvironment(VMSpec.preset(vm), seed=env_seed)
    result = make_tuner(variant, config_seed).tune(app, env)
    # JSON floats round-trip exactly (repr is the shortest exact form), so a
    # plain dump is a bit-exact record of result and ledger alike.
    return {
        "app": app_name,
        "scale": scale,
        "config_seed": config_seed,
        "env_seed": env_seed,
        "vm": vm,
        **({"variant": variant} if variant else {}),
        "result": {
            "tuner_name": result.tuner_name,
            "best_index": result.best_index,
            "best_values": list(result.best_values),
            "evaluations": result.evaluations,
            "core_hours": result.core_hours,
            "tuning_seconds": result.tuning_seconds,
            "details": result.details,
        },
        "ledger": {
            "core_hours_by_label": env.ledger.core_hours_by_label(),
            "core_hours": env.ledger.core_hours,
            "wall_hours": env.ledger.wall_hours,
        },
        "env_now": env.now,
    }


def variant_id(app_name: str, variant: dict) -> str:
    """``redis:format=knockout``-style key of one variant snapshot."""
    ((key, value),) = variant.items()
    return f"{app_name}:{key}={value}"


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for app_name, scale, config_seed, env_seed in WORKLOADS:
        path = OUT_DIR / f"tournament_{app_name}_{scale}.json"
        payload = snapshot(app_name, scale, config_seed, env_seed)
        _write(path, payload)
        print(f"wrote {path} (best_index={payload['result']['best_index']})")

    variants = {
        variant_id(app_name, variant): snapshot(app_name, "test", 1, 7, variant)
        for app_name in VARIANT_APPS
        for variant in VARIANTS
    }
    path = OUT_DIR / "tournament_variants_test.json"
    _write(path, variants)
    print(f"wrote {path} ({len(variants)} variants)")


if __name__ == "__main__":
    main()
