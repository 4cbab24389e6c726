"""Match oracles: how a game between abstract players is decided.

A format scheduler (Swiss, double elimination, ...) only needs a callable
that, given a lineup of player ids, returns its winner.  The oracle
abstracts *why* one player beats another; the provided
:class:`NoisyStrengthOracle` reproduces the setting of the tournament-design
literature the paper cites (players have latent strengths, games observe
them through noise), which is also exactly DarwinGame's situation: a game's
execution scores are the players' latent speeds seen through interference.
"""

from __future__ import annotations

from typing import List, Protocol, Sequence, Tuple

import numpy as np

from repro.errors import ReproError
from repro.rng import SeedLike, ensure_rng


class MatchOracle(Protocol):
    """Decides the outcome of one game among player ids."""

    def play(self, players: Sequence[int]) -> int:
        """Play one game and return its winner's id."""
        ...  # pragma: no cover - protocol


class NoisyStrengthOracle:
    """Players with latent strengths, observed through zero-mean noise.

    A game among players ``p_1..p_k`` observes ``strength[p] + eps`` with
    ``eps ~ N(0, noise_std)`` drawn independently per player per game, and
    the highest observed value wins (the first seat among equals).  With
    ``noise_std = 0`` the oracle is deterministic.

    The ``games_played`` counter and the ``history`` of ``(lineup,
    winner)`` pairs allow studies to charge formats for the games they
    schedule.
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
        self.history: List[Tuple[Tuple[int, ...], int]] = []

    @property
    def num_players(self) -> int:
        return len(self.strengths)

    @property
    def best_player(self) -> int:
        """The ground-truth strongest player id."""
        return int(np.argmax(self.strengths))

    def play(self, players: Sequence[int]) -> int:
        """Observe noisy strengths; the highest observation wins."""
        ids = [int(p) for p in players]
        if len(ids) < 2:
            raise ReproError(f"a match needs at least two players, got {ids}")
        if len(set(ids)) != len(ids):
            raise ReproError(f"duplicate players in match: {ids}")
        observed = self.strengths[ids] + self._rng.normal(
            0.0, self.noise_std, size=len(ids)
        )
        winner = ids[int(np.argmax(observed))]
        self.games_played += 1
        self.history.append((tuple(ids), winner))
        return winner
