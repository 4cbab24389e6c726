"""Integrating DarwinGame with existing tuners (Sec. 3.6, Figs. 9/13/14).

The full search space is divided into subspaces.  The *existing* tuner's
optimisation logic decides which subspaces are worth attention (it observes
each subspace through sampled execution times, exactly as it would observe
single configurations); inside every selected subspace DarwinGame plays a
complete tournament — regional phase, global phase, playoffs and final —
restricted to that subspace's index range.  The subspace winners then meet
in a short head-to-head playoff, and the overall winner is returned.

This keeps the existing tuner's pipeline untouched (it still samples solo
runs and trusts its own logic) while DarwinGame supplies noise-robust
intra-subspace decisions; the paper reports >15% better execution times and
lower tuning cost from this combination.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from repro.apps.model import ApplicationModel
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.executor import MatchExecutor
from repro.core.records import RecordBook
from repro.core.tournament import DarwinGame
from repro.errors import TunerError
from repro.rng import SeedLike, child, ensure_rng
from repro.space.subspaces import split_subspaces, subspace_of
from repro.tuners.base import Tuner
from repro.types import TuningResult


class HybridTuner:
    """An existing tuner steering DarwinGame tournaments across subspaces.

    Args:
        base: the existing tuner (e.g. :class:`ActiveHarmonyLike`,
            :class:`BlissLike`) whose logic selects promising subspaces.
        dg_config: configuration for the per-subspace tournaments.
        n_subspaces: how many contiguous subspaces the space is divided into.
        explore_fraction: fraction of the base tuner's default budget spent
            on the subspace-selection pass (the integration's cost saving
            comes from this being well below 1).
        subspace_visits: how many of the most promising subspaces receive a
            full DarwinGame tournament.
        seed: seed for the hybrid's own randomness.
    """

    def __init__(
        self,
        base: Tuner,
        dg_config: Optional[DarwinGameConfig] = None,
        *,
        n_subspaces: int = 32,
        explore_fraction: float = 0.15,
        subspace_visits: int = 4,
        seed: SeedLike = 0,
    ) -> None:
        if not 0.0 < explore_fraction <= 1.0:
            raise TunerError(
                f"explore_fraction must be in (0, 1], got {explore_fraction}"
            )
        if subspace_visits < 1:
            raise TunerError(f"subspace_visits must be >= 1, got {subspace_visits}")
        self.base = base
        self.dg_config = dg_config or DarwinGameConfig()
        self.n_subspaces = n_subspaces
        self.explore_fraction = explore_fraction
        self.subspace_visits = subspace_visits
        self.seed = seed
        self.name = f"{base.name}+DarwinGame"

    # -- steps -------------------------------------------------------------

    def _select_subspaces(
        self,
        app: ApplicationModel,
        env: CloudEnvironment,
        budget: int,
    ) -> List:
        """Run the base tuner briefly; rank subspaces by its best samples."""
        subspaces = split_subspaces(app.space, self.n_subspaces)
        explore_budget = max(len(subspaces), int(self.explore_fraction * budget))
        result = self.base.tune(app, env, budget=min(explore_budget, budget))
        indices = result.details.get("observed_indices")
        times = result.details.get("observed_times")
        if not indices:
            raise TunerError(
                f"base tuner {self.base.name} does not expose its observations; "
                "integration requires observed_indices/observed_times in details"
            )
        best_per_subspace: dict = {}
        for idx, t in zip(indices, times):
            sub = subspace_of(subspaces, int(idx))
            prev = best_per_subspace.get(sub.subspace_id)
            if prev is None or t < prev[0]:
                best_per_subspace[sub.subspace_id] = (float(t), sub)
        ranked = sorted(best_per_subspace.values(), key=lambda pair: pair[0])
        return [sub for _, sub in ranked[: self.subspace_visits]]

    # -- public API ----------------------------------------------------------

    def tune(
        self,
        app: ApplicationModel,
        env: CloudEnvironment,
        budget: Optional[int] = None,
    ) -> TuningResult:
        """Run the integrated campaign and return the chosen configuration."""
        if budget is None:
            budget = self.base.default_budget(app)
        rng = ensure_rng(self.seed)
        hours_before = env.ledger.snapshot()
        time_before = env.now

        chosen = self._select_subspaces(app, env, budget)
        winners: List[int] = []
        evaluations = 0
        for subspace in chosen:
            config = dataclasses.replace(
                self.dg_config, seed=int(child(rng).integers(0, 2**31))
            )
            tournament = DarwinGame(config)
            result = tournament.tune(
                app, env, index_range=(subspace.start, subspace.stop)
            )
            winners.append(result.best_index)
            evaluations += result.evaluations

        best = self._head_to_head(app, env, winners, rng)
        return TuningResult(
            tuner_name=self.name,
            best_index=int(best),
            best_values=app.space.values_of(int(best)),
            evaluations=evaluations,
            core_hours=env.ledger.snapshot() - hours_before,
            tuning_seconds=env.now - time_before,
            details={
                "subspaces_visited": [s.subspace_id for s in chosen],
                "subspace_winners": list(winners),
            },
        )

    def _head_to_head(
        self,
        app: ApplicationModel,
        env: CloudEnvironment,
        winners: List[int],
        rng: np.random.Generator,
    ) -> int:
        """Short playoff among the subspace winners (2-player, no early stop)."""
        unique = list(dict.fromkeys(winners))
        if len(unique) == 1:
            return unique[0]
        executor = MatchExecutor(env, app, self.dg_config, RecordBook())
        if len(unique) > 4:
            # Seed a 4-player playoff with one qualifying multi-player game.
            report = executor.play([unique], label="playoffs", advance_clock=True)[0]
            order = np.argsort(-np.asarray(report.execution_scores), kind="stable")
            unique = [unique[int(p)] for p in order[:4]]
        result = executor.play_playoffs(unique)
        return executor.play_final(result.finalists).winner_index
