#!/usr/bin/env python
"""Regenerate the golden DarwinGame determinism snapshots.

``tests/test_golden_tournament.py`` asserts that the default-format engine
reproduces these snapshots bit for bit — the refactoring safety net for the
tournament stack.  The fixtures in ``tests/golden/`` were generated by the
pre-refactor (PR 1-4) phase drivers; regenerating them is only legitimate
when a PR *deliberately* changes default-format results (say, a physics
change), in which case the diff makes that decision explicit in review.

Run from the repository root::

    PYTHONPATH=src python scripts/make_golden_tournament.py
"""

import json
from pathlib import Path

from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import VMSpec
from repro.core.config import DarwinGameConfig
from repro.core.tournament import DarwinGame

OUT_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

#: The snapshot workloads: app x scale x (config seed, env seed).  The
#: bench-scale redis run is the ROADMAP's performance baseline (3,491 games,
#: 111,522 evaluations), so its bookkeeping is pinned at full size.
WORKLOADS = (
    ("redis", "test", 1, 7),
    ("lammps", "test", 1, 7),
    ("redis", "bench", 1, 7),
)


def snapshot(app_name: str, scale: str, config_seed: int, env_seed: int) -> dict:
    app = make_application(app_name, scale=scale)
    env = CloudEnvironment(VMSpec.preset("m5.8xlarge"), seed=env_seed)
    result = DarwinGame(DarwinGameConfig(seed=config_seed)).tune(app, env)
    # JSON floats round-trip exactly (repr is the shortest exact form), so a
    # plain dump is a bit-exact record of result and ledger alike.
    return {
        "app": app_name,
        "scale": scale,
        "config_seed": config_seed,
        "env_seed": env_seed,
        "vm": "m5.8xlarge",
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


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for app_name, scale, config_seed, env_seed in WORKLOADS:
        path = OUT_DIR / f"tournament_{app_name}_{scale}.json"
        payload = snapshot(app_name, scale, config_seed, env_seed)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} (best_index={payload['result']['best_index']})")


if __name__ == "__main__":
    main()
