"""The named scenario packs every sweep axis refers to.

Each pack is a ready-made :class:`~repro.scenarios.scenario.Scenario`
covering one archetypal dynamic-cloud condition the paper's stationary
evaluation cannot express.  Packs are referenced by name everywhere — CLI
flags, campaign specs, BENCH.jsonl rows — so their *content* must stay
stable once published; change a pack's physics only together with its name
(or register a new pack) or stored campaign IDs will silently describe
different conditions.

User code can register additional packs with :func:`register_scenario`;
custom packs resolve exactly like the built-ins.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple, Union

from repro.cloud.fleet import default_host_mix
from repro.errors import ReproError
from repro.scenarios.modifiers import (
    BurstStorms,
    ExtraDiurnal,
    HostMix,
    LevelRamp,
    PreemptionWindows,
)
from repro.scenarios.scenario import Scenario

ScenarioLike = Union[str, Scenario, None]


def _mixed_fleet_modifier() -> HostMix:
    mix = default_host_mix()
    return HostMix(
        multipliers=tuple(round(c.level_multiplier, 6) for c in mix),
        weights=tuple(c.weight for c in mix),
        rotation_seconds=21600.0,
    )


_PACKS: Tuple[Scenario, ...] = (
    Scenario(
        name="steady",
        description="stationary interference — the paper's baseline, "
                    "bit-identical to running without a scenario",
    ),
    Scenario(
        name="diurnal",
        description="strong day/night tenant load cycle on top of the "
                    "built-in one",
        modifiers=(
            ExtraDiurnal(amplitude=0.35, period_seconds=86400.0,
                         phase=-math.pi / 2.0),
        ),
    ),
    Scenario(
        name="bursty",
        description="noisy-neighbour storms: half-hour windows of "
                    "multiplied contention",
        modifiers=(
            BurstStorms(window_seconds=1800.0, storm_probability=0.25,
                        gain=1.6, extra_level=0.5),
        ),
    ),
    Scenario(
        name="preemptible",
        description="spot-style outage windows that stall any in-flight "
                    "evaluation overlapping them",
        modifiers=(
            PreemptionWindows(window_seconds=7200.0, preempt_probability=0.2,
                              outage_seconds=900.0, stall_level=25.0),
        ),
    ),
    Scenario(
        name="drift",
        description="baseline interference ramps up day over day "
                    "(gradual tenant build-up), saturating",
        modifiers=(LevelRamp(rate_per_day=0.18, saturation=0.6),),
    ),
    Scenario(
        name="mixed-fleet",
        description="heterogeneous hosts: six-hourly rescheduling over the "
                    "fleet's contention classes",
        modifiers=(_mixed_fleet_modifier(),),
    ),
)

_REGISTRY: Dict[str, Scenario] = {pack.name: pack for pack in _PACKS}

#: Names of the built-in packs, in registry order.
SCENARIO_NAMES: Tuple[str, ...] = tuple(pack.name for pack in _PACKS)

def scenario_names() -> Tuple[str, ...]:
    """Every currently registered scenario name (built-ins + custom)."""
    return tuple(_REGISTRY)


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario pack by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown scenario {name!r}; registered: {list(_REGISTRY)}"
        ) from None


def register_scenario(scenario: Scenario, *, replace: bool = False) -> Scenario:
    """Register a custom pack so specs and CLI flags can name it.

    Built-in packs cannot be replaced (their published names pin their
    physics); custom packs can, with ``replace=True``.

    The registry is **process-local** and campaign specs persist only the
    scenario *name*: a sweep over a custom pack must re-register it in
    every process that resolves the spec — ``spawn``-method workers and
    later ``repro resume`` invocations included (put the registration at
    import time of your driver module).  An unregistered name fails
    loudly: the campaign lands as a ``"failed"`` record whose error says
    which scenario was unknown, never as silently-steady results.
    """
    existing = _REGISTRY.get(scenario.name)
    if existing is not None:
        if scenario.name in SCENARIO_NAMES:
            raise ReproError(
                f"cannot replace built-in scenario {scenario.name!r}"
            )
        if not replace:
            raise ReproError(
                f"scenario {scenario.name!r} is already registered; "
                f"pass replace=True to overwrite it"
            )
    _REGISTRY[scenario.name] = scenario
    return scenario


def resolve_scenario(scenario: ScenarioLike) -> Optional[Scenario]:
    """Normalise a scenario argument: name, Scenario instance, or None."""
    if scenario is None:
        return None
    if isinstance(scenario, Scenario):
        return scenario
    return get_scenario(scenario)
