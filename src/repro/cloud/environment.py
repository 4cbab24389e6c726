"""The shared-cloud execution environment every tuner runs against.

:class:`CloudEnvironment` owns the simulated clock, one VM type with its
interference realisation, and the core-hour ledger.  All tuners — DarwinGame
and the baselines alike — can only interact with applications through this
facade, which enforces the paper's central constraint: *nobody can observe or
control the background interference; all you get are noisy execution times.*

The physics (how interference maps to observed durations) lives in
:mod:`repro.cloud.colocation`; this module sequences runs in simulated time
and does the bookkeeping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.analysis.stats import coefficient_of_variation
from repro.cloud.accounting import CoreHourLedger
from repro.cloud.colocation import (
    measurement_noise_std,
    simulate_colocated_batch,
    solo_observed_time,
)
from repro.cloud.interference import InterferenceProcess
from repro.cloud.vm import DEFAULT_VM, VMSpec
from repro.errors import CloudError
from repro.rng import SeedLike, SpawnReplay, ensure_rng, spawn
from repro.types import ChoiceEvaluation, RoundOutcomes, SoloOutcome

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.apps.model import ApplicationModel
    from repro.scenarios import ScenarioLike


class CloudEnvironment:
    """One rented slice of a shared cloud: a VM type, a clock, a ledger.

    Args:
        vm: the instance type every run executes on.
        seed: master seed; the interference realisation, run noise and
            evaluation noise derive independent child generators from it.
        start_time: initial simulated time in seconds (campaigns launched at
            different times — the paper's T1/T2/T3 — see different phases of
            the same interference realisation).
        scenario: optional dynamic cloud conditions — a registered pack
            name (``repro.scenarios.SCENARIO_NAMES``) or a
            :class:`~repro.scenarios.Scenario`.  The scenario's entropy is
            a *fourth* child of the master seed, spawned only when the
            scenario has modifiers, so the three stationary streams are
            untouched and ``scenario="steady"`` (or ``None``) reproduces
            pre-scenario results bit for bit.
    """

    def __init__(
        self,
        vm: VMSpec = DEFAULT_VM,
        seed: SeedLike = 0,
        start_time: float = 0.0,
        scenario: "ScenarioLike" = None,
    ) -> None:
        from repro.scenarios import resolve_scenario

        if start_time < 0:
            raise CloudError(f"start_time must be >= 0, got {start_time}")
        self.vm = vm
        rng = ensure_rng(seed)
        interference_rng, self._run_rng, self._eval_rng = spawn(rng, 3)
        # Every game's generator is a child of the run stream, seeded by a
        # replay of ``SeedSequence.spawn``; the run stream's own child count
        # cannot be advanced from outside, so the environment keeps it.
        run_seeds = self._run_rng.bit_generator.seed_seq
        self._game_seeds = SpawnReplay(run_seeds)
        self._games_spawned = run_seeds.n_children_spawned
        self.scenario = resolve_scenario(scenario)
        dynamics = None
        if self.scenario is not None and not self.scenario.is_steady:
            dynamics = self.scenario.realise(
                int(spawn(rng, 1)[0].integers(0, 2**63))
            )
        self.interference = InterferenceProcess(
            vm.interference, interference_rng, dynamics=dynamics
        )
        self.ledger = CoreHourLedger()
        self._now = float(start_time)

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Advance the simulated clock (e.g. by a round's longest game)."""
        if seconds < 0:
            raise CloudError(f"cannot advance clock by {seconds}")
        self._now += seconds
        self.ledger.advance_wall(seconds)

    # -- solo runs (how interference-unaware tuners sample) ---------------

    def run_solo(
        self,
        app: "ApplicationModel",
        index: int,
        *,
        label: str = "solo",
        advance_clock: bool = True,
    ) -> SoloOutcome:
        """Execute one configuration alone on the VM; returns the noisy time."""
        t_true = float(app.true_time(np.array([index]))[0])
        sens = float(app.sensitivity(np.array([index]))[0])
        level = float(
            self.interference.sample_run_means(self._now, t_true, self._run_rng)[0]
        )
        noise = self._run_rng.normal(0.0, measurement_noise_std())
        observed = solo_observed_time(
            true_time=t_true, sensitivity=sens, level=level, measurement_noise=noise
        )
        self.ledger.book(vcpus=self.vm.vcpus, seconds=observed, label=label)
        if advance_clock:
            self.advance(observed)
        return SoloOutcome(
            observed_time=observed, start_time=self._now, mean_interference=level
        )

    def run_solo_batch(
        self,
        app: "ApplicationModel",
        indices: Sequence[int],
        *,
        label: str = "solo-batch",
        advance_clock: bool = True,
    ) -> np.ndarray:
        """Execute configurations back-to-back (the exhaustive-search loop).

        Vectorised: run ``k`` starts after runs ``0..k-1`` finished, with each
        run's mean interference drawn from the process at its own start time.
        Returns the observed times in order.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return np.empty(0)
        t_true = app.true_time(idx)
        sens = app.sensitivity(idx)
        # Start offsets estimated from true times; the estimate only positions
        # runs on the slow-drift curve, so the approximation is benign.
        approx = t_true * (1.0 + sens * self.interference.profile.mean_level)
        starts = self._now + np.concatenate([[0.0], np.cumsum(approx[:-1])])
        levels = self.interference.sample_run_means(starts, t_true, self._run_rng)
        noise = self._run_rng.normal(0.0, measurement_noise_std(), size=idx.shape)
        observed = t_true * (1.0 + sens * levels) * (1.0 + noise)
        total = float(observed.sum())
        self.ledger.book(vcpus=self.vm.vcpus, seconds=total, label=label)
        if advance_clock:
            self.advance(total)
        return observed

    # -- co-located games (DarwinGame's sampling primitive) ----------------

    def run_colocated_batch(
        self,
        app: "ApplicationModel",
        indices: Sequence[int],
        sizes: Sequence[int],
        *,
        work_deviation: Optional[float] = None,
        min_work_for_termination: float = 0.25,
        label: str = "game",
        advance_clock: bool = False,
    ) -> RoundOutcomes:
        """Run one *round* of co-located games, one parallel VM per game.

        The round comes flat: ``indices`` holds every game's players, game
        after game, and ``sizes`` how many players each game seats.  All
        games start at the current simulated time and are simulated as
        one batched tensor computation (see
        :func:`repro.cloud.colocation.simulate_colocated_batch`).  Each game
        draws from its own child generator of the run stream, keyed by how
        many games the environment has played before it, so a round is
        seed-deterministic and splitting it into smaller batches does not
        change outcomes.  The outcomes come back as the kernel's arrays
        (:class:`~repro.types.RoundOutcomes`); a game's
        :class:`~repro.types.GameOutcome` is built when it is indexed.

        Every game books the whole VM for its own duration: the ledger
        books the round's elapsed array in game order, so its running sum
        is the one per-game booking gives.  With ``advance_clock`` True the
        clock advances by the *longest* game of the round — the paper's
        semantics of a round on parallel VMs.
        """
        if not len(sizes):
            return RoundOutcomes.empty(self._now)
        for size in sizes:
            if size > self.vm.vcpus:
                raise CloudError(
                    f"cannot co-locate {size} players on {self.vm.name} "
                    f"({self.vm.vcpus} vCPUs)"
                )
        # One vectorised surface evaluation for the whole round.
        t_true = app.true_time(indices)
        sens = app.sensitivity(indices)
        rngs = self._game_seeds.generators(self._games_spawned, len(sizes))
        self._games_spawned += len(sizes)
        outcomes = simulate_colocated_batch(
            true_times=t_true,
            sensitivities=sens,
            sizes=sizes,
            vm=self.vm,
            interference=self.interference,
            start_time=self._now,
            rngs=rngs,
            work_deviation=work_deviation,
            min_work_for_termination=min_work_for_termination,
        )
        self.ledger.book(
            vcpus=self.vm.vcpus, seconds=outcomes.elapsed, label=label
        )
        if advance_clock:
            self.advance(float(outcomes.elapsed.max()))
        return outcomes

    # -- post-hoc evaluation (the paper's quality metrics) -----------------

    def measure_choice(
        self,
        app: "ApplicationModel",
        index: int,
        *,
        runs: int = 100,
        spacing: float = 21600.0,
    ) -> ChoiceEvaluation:
        """Evaluate a chosen configuration the way the paper does (Sec. 4).

        The configuration is executed ``runs`` times at different periods of
        time in the cloud; we report the mean execution time and the
        coefficient of variation.  Evaluation runs are *not* billed to the
        tuning ledger and do not advance the campaign clock.
        """
        if runs < 2:
            raise CloudError(f"need at least 2 evaluation runs, got {runs}")
        t_true = float(app.true_time(np.array([index]))[0])
        sens = float(app.sensitivity(np.array([index]))[0])
        starts = self._now + np.arange(runs) * float(spacing)
        levels = self.interference.sample_run_means(starts, t_true, self._eval_rng)
        noise = self._eval_rng.normal(0.0, measurement_noise_std(), size=runs)
        times = t_true * (1.0 + sens * levels) * (1.0 + noise)
        return ChoiceEvaluation(
            index=int(index),
            mean_time=float(times.mean()),
            cov_percent=coefficient_of_variation(times),
            min_time=float(times.min()),
            max_time=float(times.max()),
            true_time=t_true,
            sensitivity=sens,
            runs=runs,
        )
