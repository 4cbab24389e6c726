"""Perf-regression benchmark: end-to-end ``DarwinGame.tune()`` timing.

Times the acceptance workload of the batched-round-engine PR — the stock
redis application (bench scale, ~210k points) tuned on an ``m5.8xlarge``
with environment seed 7 and tournament seed 1 — and asserts it stays well
under the pre-batching baseline (~9.0 s on the reference machine, ~6.0 s on
the machine that recorded the ROADMAP "Performance" entry; the batched
engine runs it in well under 2 s on either).

Run via ``scripts/bench.sh`` to append the measurement to the repo's
``BENCH.jsonl`` perf-trajectory file, or directly::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_tournament.py -s

Set ``BENCH_JSON=<path>`` to append the JSON entry to that file.
"""

import json
import os
import platform
import time

import pytest

from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import VMSpec
from repro.core.config import DarwinGameConfig
from repro.core.tournament import DarwinGame

# Pre-batching seed wall time on the reference machine (see ISSUE 1 /
# ROADMAP "Performance"); the regression gate is a third of it, which the
# batched engine clears ~2x over even on slower hardware.
_BASELINE_SECONDS = 9.0
_GATE_SECONDS = _BASELINE_SECONDS / 3.0


def _record(payload: dict) -> None:
    # Every trajectory entry is machine-readable about its conditions: the
    # visible core count (ROADMAP's 1-core caveat).
    from repro.campaigns import default_jobs

    payload.setdefault("cores", default_jobs())
    line = json.dumps(payload, sort_keys=True)
    print(f"\n[perf] {line}")
    out = os.environ.get("BENCH_JSON")
    if out:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


@pytest.mark.benchmark
def test_tune_wall_time_regression():
    """The acceptance workload must stay >= 3x faster than the seed."""
    app = make_application("redis")  # bench scale
    env = CloudEnvironment(VMSpec.preset("m5.8xlarge"), seed=7)
    tuner = DarwinGame(DarwinGameConfig(seed=1))

    t0 = time.perf_counter()
    result = tuner.tune(app, env)
    wall = time.perf_counter() - t0

    _record(
        {
            "benchmark": "tune_redis_m5.8xlarge_seed7_1",
            "date": time.strftime("%Y-%m-%d"),
            "jobs": 1,  # one tune() is a single campaign; sweeps record theirs
            "wall_seconds": round(wall, 3),
            "speedup_vs_seed_baseline": round(_BASELINE_SECONDS / wall, 2),
            "winner_index": int(result.best_index),
            "evaluations": int(result.evaluations),
            "core_hours": round(float(result.core_hours), 2),
            "tuning_seconds": round(float(result.tuning_seconds), 1),
            "python": platform.python_version(),
            "machine": platform.machine(),
        }
    )
    assert wall < _GATE_SECONDS, (
        f"tune() took {wall:.2f}s — over the {_GATE_SECONDS:.2f}s perf gate "
        f"(seed baseline {_BASELINE_SECONDS:.1f}s / 3)"
    )


@pytest.mark.benchmark
def test_tune_is_seed_deterministic_at_bench_scale():
    """Same seeds => same winner, so perf numbers are comparable across runs."""
    app = make_application("redis")
    winners = []
    for _ in range(2):
        env = CloudEnvironment(VMSpec.preset("m5.8xlarge"), seed=7)
        winners.append(DarwinGame(DarwinGameConfig(seed=1)).tune(app, env).best_index)
    assert winners[0] == winners[1]
