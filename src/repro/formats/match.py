"""Match oracles: how a game between abstract players is decided.

A format scheduler (Swiss, double elimination, ...) only needs a callable
that, given a group of player ids, returns their finishing order.  The
oracle abstracts *why* one player beats another; the provided
:class:`NoisyStrengthOracle` reproduces the setting of the tournament-design
literature the paper cites (players have latent strengths, games observe
them through noise), which is also exactly DarwinGame's situation: a game's
execution scores are the players' latent speeds seen through interference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Protocol, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class RecordedMatch:
    """One decided game: the players and their finishing order.

    ``ranking`` holds positions into ``players`` from best to worst, so
    ``players[ranking[0]]`` is the winner.
    """

    players: Tuple[int, ...]
    ranking: Tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.ranking) != list(range(len(self.players))):
            raise ReproError(
                f"ranking {self.ranking} is not a permutation of the "
                f"{len(self.players)} player positions"
            )

    @property
    def winner(self) -> int:
        """Player id of the game's winner."""
        return self.players[self.ranking[0]]

    @property
    def loser(self) -> int:
        """Player id of the game's last finisher."""
        return self.players[self.ranking[-1]]


class MatchOracle(Protocol):
    """Decides the outcome of one game among player ids."""

    def play(self, players: Sequence[int]) -> RecordedMatch:
        """Play one game and return the finishing order."""
        ...  # pragma: no cover - protocol


class NoisyStrengthOracle:
    """Players with latent strengths, observed through zero-mean noise.

    A game among players ``p_1..p_k`` observes ``strength[p] + eps`` with
    ``eps ~ N(0, noise_std)`` drawn independently per player per game, and
    ranks players by the observed value (higher is better).  With
    ``noise_std = 0`` the oracle is deterministic.

    The ``games_played`` counter and ``history`` list allow studies to
    charge formats for the games they schedule.
    """

    def __init__(
        self,
        strengths: Sequence[float],
        noise_std: float,
        seed: SeedLike = 0,
    ) -> None:
        if noise_std < 0:
            raise ReproError(f"noise_std must be >= 0, got {noise_std}")
        if len(strengths) == 0:
            raise ReproError("need at least one player strength")
        self.strengths = np.asarray(strengths, dtype=float)
        self.noise_std = float(noise_std)
        self._rng = ensure_rng(seed)
        self.games_played = 0
        self.history: List[RecordedMatch] = []

    @property
    def num_players(self) -> int:
        return len(self.strengths)

    @property
    def best_player(self) -> int:
        """The ground-truth strongest player id."""
        return int(np.argmax(self.strengths))

    def play(self, players: Sequence[int]) -> RecordedMatch:
        """Observe noisy strengths and rank the group (best first)."""
        ids = [int(p) for p in players]
        if len(ids) < 2:
            raise ReproError(f"a match needs at least two players, got {ids}")
        if len(set(ids)) != len(ids):
            raise ReproError(f"duplicate players in match: {ids}")
        observed = self.strengths[ids] + self._rng.normal(
            0.0, self.noise_std, size=len(ids)
        )
        ranking = tuple(int(i) for i in np.argsort(-observed, kind="stable"))
        match = RecordedMatch(players=tuple(ids), ranking=ranking)
        self.games_played += 1
        self.history.append(match)
        return match
