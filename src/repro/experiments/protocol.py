"""Shared evaluation protocol for every experiment.

One *strategy run* is: build a fresh cloud environment (its own interference
realisation), let the strategy tune the application, then evaluate the chosen
configuration with the paper's protocol — 100 executions spread over time,
reporting mean execution time and coefficient of variation (Sec. 4).

Strategies are referred to by the names used in the paper's figures:
``"Optimal"`` (oracle, dedicated environment), ``"DarwinGame"``,
``"Exhaustive"``, ``"BLISS"``, ``"OpenTuner"``, ``"ActiveHarmony"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.model import ApplicationModel
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import DEFAULT_VM, VMSpec
from repro.core.config import DarwinGameConfig
from repro.core.tournament import DarwinGame
from repro.errors import ReproError
from repro.tuners.active_harmony import ActiveHarmonyLike
from repro.tuners.bliss import BlissLike
from repro.tuners.exhaustive import ExhaustiveSearch
from repro.tuners.opentuner_like import OpenTunerLike
from repro.tuners.annealing import SimulatedAnnealingTuner
from repro.tuners.genetic import GeneticTuner
from repro.tuners.quantile_regression import QuantileRegressionTuner
from repro.tuners.thompson import ThompsonSamplingTuner
from repro.types import ChoiceEvaluation, TuningResult

#: Strategies, in the order the paper's figures list them.
STRATEGY_NAMES = (
    "Optimal",
    "DarwinGame",
    "Exhaustive",
    "BLISS",
    "OpenTuner",
    "ActiveHarmony",
)


@dataclass(frozen=True)
class StrategyRun:
    """One tuning campaign plus the post-hoc quality of its chosen config.

    ``tuning_result`` carries the tuner's full :class:`TuningResult` (chosen
    values, evaluation count, per-strategy diagnostics) when the strategy
    actually tuned; the ``"Optimal"`` oracle has none.  The campaign store
    archives it alongside the evaluation.
    """

    strategy: str
    app_name: str
    vm_name: str
    evaluation: ChoiceEvaluation
    core_hours: float
    tuning_seconds: float
    best_index: int
    tuning_result: Optional[TuningResult] = None

    @property
    def mean_time(self) -> float:
        return self.evaluation.mean_time

    @property
    def cov_percent(self) -> float:
        return self.evaluation.cov_percent


#: How each tuning strategy is built from its seed (``"Optimal"``, the
#: oracle, tunes nothing).  Every name after the Fig. 10 set is an extra
#: tuner that ``tune``/``compare`` and sweep grids may name.
_FACTORIES: Dict[str, Callable[[int], object]] = {
    "DarwinGame": lambda seed: DarwinGame(DarwinGameConfig(seed=seed)),
    "Exhaustive": lambda seed: ExhaustiveSearch(seed=seed),
    "BLISS": lambda seed: BlissLike(seed=seed),
    "OpenTuner": lambda seed: OpenTunerLike(seed=seed),
    "ActiveHarmony": lambda seed: ActiveHarmonyLike(seed=seed),
    "QuantileRegression": lambda seed: QuantileRegressionTuner(seed=seed),
    "ThompsonSampling": lambda seed: ThompsonSamplingTuner(seed=seed),
    "GeneticAlgorithm": lambda seed: GeneticTuner(seed=seed),
    "SimulatedAnnealing": lambda seed: SimulatedAnnealingTuner(seed=seed),
}

#: The extra tuners, beyond the figures' :data:`STRATEGY_NAMES`.
EXTRA_STRATEGY_NAMES = tuple(n for n in _FACTORIES if n not in STRATEGY_NAMES)


def _make_strategy(name: str, seed: int):
    """Instantiate a tuner-like object (``.tune(app, env)``) by figure name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ReproError(
            f"unknown strategy {name!r}; available: {list(_FACTORIES)} + 'Optimal'"
        ) from None
    return factory(seed)


def run_strategy(
    app: ApplicationModel,
    strategy: str,
    *,
    vm: VMSpec = DEFAULT_VM,
    seed: int = 0,
    start_time: float = 0.0,
    eval_runs: int = 100,
    darwin_config: Optional[DarwinGameConfig] = None,
    tuner_seed: Optional[int] = None,
    scenario=None,
    tournament_format: Optional[str] = None,
) -> StrategyRun:
    """Tune once with ``strategy`` and evaluate the chosen configuration.

    ``"Optimal"`` is the infeasible oracle: the configuration with the lowest
    dedicated-environment time, charged zero tuning cost, *evaluated in the
    dedicated environment* (its bar in Fig. 10 is the interference-free
    time, which is what every cloud strategy is measured against).

    ``tuner_seed`` decouples the tuner's internal randomness from the
    environment's noise realisation (``seed``); by default both derive from
    ``seed``.  The stability experiment fixes the tuner seed and varies only
    the environment — "the same tool, run at different times in the cloud".

    ``scenario`` (a registered pack name or a :class:`repro.scenarios.
    Scenario`) overlays dynamic cloud conditions on the environment; both
    tuning *and* the post-hoc evaluation run under them.  The oracle is
    unaffected — its dedicated environment has no interference to modify.

    ``tournament_format`` (a registered :mod:`repro.formats.recipes` name)
    selects the tournament shape the DarwinGame engine runs.  The name is
    validated for every strategy (typos fail fast), but only ``DarwinGame``
    has a tournament shape — other strategies run identically under every
    format.
    """
    if tournament_format is not None:
        from repro.formats.recipes import tournament_format as resolve_format

        resolve_format(tournament_format)
    env = CloudEnvironment(vm, seed=seed, start_time=start_time,
                           scenario=scenario)
    if tuner_seed is None:
        tuner_seed = seed
    if strategy == "Optimal":
        point = app.optimal
        evaluation = ChoiceEvaluation(
            index=point.index,
            mean_time=point.true_time,
            cov_percent=0.0,
            min_time=point.true_time,
            max_time=point.true_time,
            true_time=point.true_time,
            sensitivity=point.sensitivity,
            runs=0,
        )
        return StrategyRun(
            strategy=strategy,
            app_name=app.name,
            vm_name=vm.name,
            evaluation=evaluation,
            core_hours=0.0,
            tuning_seconds=0.0,
            best_index=point.index,
        )

    if strategy == "DarwinGame":
        config = (
            darwin_config if darwin_config is not None
            else DarwinGameConfig(seed=tuner_seed)
        )
        if tournament_format is not None:
            config = config.with_format(tournament_format)
        tuner = DarwinGame(config)
    else:
        tuner = _make_strategy(strategy, tuner_seed)
    result: TuningResult = tuner.tune(app, env)
    evaluation = env.measure_choice(app, result.best_index, runs=eval_runs)
    return StrategyRun(
        strategy=strategy,
        app_name=app.name,
        vm_name=vm.name,
        evaluation=evaluation,
        core_hours=result.core_hours,
        tuning_seconds=result.tuning_seconds,
        best_index=result.best_index,
        tuning_result=result,
    )


def repeat_seed_plan(
    seed: int, repeats: int, *, vary_tuner_seed: bool = True
) -> List[Tuple[int, float, int]]:
    """The ``(env_seed, start_time, tuner_seed)`` plan behind repeated tuning.

    Single source of truth shared by :func:`repeat_strategy` and the
    campaign layer's :func:`repro.campaigns.spec.repeat_specs`: each repeat
    gets its own interference realisation and a campaign start three days
    after the previous one.  ``repeats`` must be at least 1.
    """
    if repeats < 1:
        raise ReproError(f"repeats must be >= 1, got {repeats}")
    rng = np.random.default_rng(seed)
    plan: List[Tuple[int, float, int]] = []
    for k in range(repeats):
        env_seed = int(rng.integers(0, 2**31))
        plan.append(
            (
                env_seed,
                float(k) * 86400.0 * 3.0,
                env_seed if vary_tuner_seed else int(seed),
            )
        )
    return plan


def repeat_strategy(
    app: ApplicationModel,
    strategy: str,
    *,
    repeats: int,
    vm: VMSpec = DEFAULT_VM,
    seed: int = 0,
    eval_runs: int = 100,
    vary_tuner_seed: bool = True,
) -> List[StrategyRun]:
    """Repeat a strategy with different seeds (the paper repeats tuning 100x).

    Each repeat gets its own interference realisation and a different
    campaign start time — reproducing "tuning performed multiple times in
    the cloud during different time intervals".  With ``vary_tuner_seed``
    (the default) the tuner's internal randomness is also re-seeded per
    repeat; the stability experiment passes ``False`` to isolate the effect
    of the environment's noise on the tuner's outcome.
    """
    return [
        run_strategy(
            app,
            strategy,
            vm=vm,
            seed=env_seed,
            start_time=start_time,
            eval_runs=eval_runs,
            tuner_seed=tuner_seed,
        )
        for env_seed, start_time, tuner_seed in repeat_seed_plan(
            seed, repeats, vary_tuner_seed=vary_tuner_seed
        )
    ]
