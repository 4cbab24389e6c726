"""Scenario packs: dynamic cloud conditions as a declarative sweep axis.

The paper evaluates every tuner under one *stationary* interference model
per VM.  This subsystem makes "what the cloud was doing" a named, hashable
input instead: a :class:`Scenario` composes time-varying
:mod:`~repro.scenarios.modifiers` over the stationary
:class:`~repro.cloud.interference.InterferenceProcess` — diurnal load
swings, noisy-neighbour storms, spot-preemption outages, drifting
baselines, heterogeneous fleets — each seed-deterministic and applied
vectorised through the batched round engine.

Quickstart::

    from repro import CloudEnvironment, DarwinGame, DarwinGameConfig
    from repro import VMSpec, make_application

    app = make_application("redis", scale="test")
    env = CloudEnvironment(VMSpec.preset("m5.8xlarge"), seed=7,
                           scenario="bursty")
    result = DarwinGame(DarwinGameConfig(seed=1)).tune(app, env)

or sweep the whole axis from the shell: ``python -m repro sweep --apps
redis --seeds 0,1 --scenarios steady,bursty,preemptible --store s.jsonl``
then compare tuners per pack with ``python -m repro report s.jsonl
--by-scenario``.
"""

from repro.scenarios.modifiers import (
    MODIFIER_KINDS,
    BurstStorms,
    ExtraDiurnal,
    HostMix,
    LevelRamp,
    Modifier,
    PreemptionWindows,
    modifier_from_dict,
)
from repro.scenarios.registry import (
    SCENARIO_NAMES,
    ScenarioLike,
    get_scenario,
    register_scenario,
    resolve_scenario,
    scenario_names,
)
from repro.scenarios.scenario import Scenario, ScenarioDynamics

__all__ = [
    "BurstStorms",
    "ExtraDiurnal",
    "HostMix",
    "LevelRamp",
    "MODIFIER_KINDS",
    "Modifier",
    "PreemptionWindows",
    "SCENARIO_NAMES",
    "Scenario",
    "ScenarioDynamics",
    "ScenarioLike",
    "get_scenario",
    "modifier_from_dict",
    "register_scenario",
    "resolve_scenario",
    "scenario_names",
]
