"""Swiss playing styles: keep the strongest players meeting each other.

Two schedulers share this module:

* :class:`SwissSystem` — the textbook Swiss system of the tournament-design
  literature: rounds of score-group *pairings*, nobody eliminated, and the
  standings after ``r ~ log2(n)`` rounds identify the strongest players with
  far fewer games than a round-robin.

* :class:`StreakSwiss` — DarwinGame's regional variant (Sec. 3.3, Fig. 6):
  every region pool's tournament of *multi-player* games, the pools
  playing in lockstep.  A pool's first round picks players at random;
  every later round fills half its seats with players that have never
  played and half with previously scored players selected
  probabilistically — a higher execution score means a higher chance of
  being re-selected, so the most promising configurations keep contending
  with each other (the Swiss property).  A pool terminates when one player
  has won consecutively "more than one time" (the champion), when its new
  players are exhausted, or when the round cap is hit.

Each is one class, built from its players (``SwissSystem``) or from a
phase's region pools (``StreakSwiss``) and its settings: a pure scheduler
over abstract player ids that hands out a round's lineups
(``pairings()``) and takes back one winner per lineup (``advance()``).  The
same objects are driven by the match-oracle executor (format studies,
through :func:`~repro.formats.scheduler.run_schedule`) and by the
cloud-game executor (the real tuner).  ``StreakSwiss`` chooses a round's
lineups in whole-round array passes; per pool it makes only the pool's own
generator calls, in the order the pool played alone would make them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ReproError
from repro.formats.scheduler import (
    PlayerPool,
    RunLog,
    split_round,
    validated_players,
)
from repro.rng import choice_rows


@dataclass(frozen=True)
class SwissResult:
    """Standings after all Swiss rounds (best first)."""

    standings: Tuple[int, ...]
    scores: Dict[int, float]
    games: int
    rounds: int

    @property
    def winner(self) -> int:
        return self.standings[0]


class SwissSystem:
    """One Swiss-system tournament: score-group pairing for fixed rounds.

    Args:
        players: the entrants' ids.
        rounds: number of Swiss rounds; ``None`` uses ``ceil(log2(n))``,
            the conventional minimum for a unique leader.
    """

    def __init__(
        self, players: Sequence[int], rounds: Optional[int] = None
    ) -> None:
        if rounds is not None and rounds < 1:
            raise ReproError(f"rounds must be >= 1, got {rounds}")
        self.ids = validated_players(players, minimum=2, what="a Swiss tournament")
        if rounds is None:
            rounds = max(1, (len(self.ids) - 1).bit_length())
        self.n_rounds = rounds
        self.scores: Dict[int, float] = {p: 0.0 for p in self.ids}
        self.met: Set[Tuple[int, int]] = set()
        self.log = RunLog()
        self._round_no = 0
        self._pairs: List[Tuple[int, int]] = []
        self._pending_bye: Optional[int] = None

    @property
    def done(self) -> bool:
        return self._round_no >= self.n_rounds

    def pairings(self) -> Optional[List[List[int]]]:
        if self.done:
            return None
        self._pairs, self._pending_bye = self._pair(
            self.ids, self.scores, self.met
        )
        return [list(pair) for pair in self._pairs]

    def advance(self, winners: Sequence[int]) -> None:
        won, _ = split_round(self._pairs, winners)
        if self._pending_bye is not None:
            self.scores[self._pending_bye] += 1.0  # a bye scores like a win
            self._pending_bye = None
        for winner, (a, b) in zip(won, self._pairs):
            self.scores[winner] += 1.0
            self.met.add((min(a, b), max(a, b)))
        self._round_no += 1
        self.log.book(won)

    def result(self) -> SwissResult:
        standings = sorted(self.ids, key=lambda p: (-self.scores[p], p))
        return SwissResult(
            standings=tuple(standings),
            scores=self.scores,
            games=self.log.games,
            rounds=self.n_rounds,
        )

    @staticmethod
    def _pair(
        ids: List[int],
        scores: Dict[int, float],
        met: Set[Tuple[int, int]],
    ) -> Tuple[List[Tuple[int, int]], Optional[int]]:
        """Pair by score groups with rematch avoidance; returns (pairs, bye).

        Sort by score, walk down the list pairing each unpaired player with
        the highest unpaired opponent they have not met; if everyone
        remaining has been met, allow the rematch rather than leave players
        idle.
        """
        order = sorted(ids, key=lambda p: (-scores[p], p))
        unpaired = list(order)
        pairs: List[Tuple[int, int]] = []
        while len(unpaired) >= 2:
            a = unpaired.pop(0)
            pick = None
            for k, b in enumerate(unpaired):
                if (min(a, b), max(a, b)) not in met:
                    pick = k
                    break
            if pick is None:
                pick = 0  # every remaining opponent already met: allow rematch
            pairs.append((a, unpaired.pop(pick)))
        bye = unpaired[0] if unpaired else None
        return pairs, bye


# Exponent sharpening score-proportional selection: strong players meet often.
SELECTION_SHARPNESS = 4.0
# Newcomer draws a pool makes per round before it seats whoever it found.
_NEWCOMER_ATTEMPTS = 20


class StreakSwiss:
    """DarwinGame's regional phase: every region pool's Swiss tournament.

    Each pool plays one multi-player lineup per round and the pools play in
    lockstep: :meth:`pairings` chooses one round's lineups for every open
    pool in whole-round passes, and :meth:`advance` folds the round's
    winners back in.  Pool for pool the lineups and the draws are
    those of the pool played alone, because a pool draws only from its own
    generator and in the same order: the permutation a pool of at most four
    games' worth of players is dealt from (drawn here), then per round its
    newcomer attempts, then its veteran passes.  Only those generator calls
    are made pool by pool; one pool is a round of one pool.

    Args:
        pools: the region pools; pool ``k`` holds the ids ``start + i *
            stride`` for ``i < size``
            (:class:`~repro.space.regions.Region` s).
        rngs: one generator per pool.
        players_per_game: seats per multi-player game (clamped to each pool).
        win_streak: consecutive wins after which a pool's champion is
            declared.
        max_rounds: hard round cap; ``None`` derives one from each pool's
            size.
        swiss_style: with ``False``, a single random game decides each pool
            (the paper's "w/o Swiss" ablation).
        scores: maps an array of players to their current mean execution
            scores; read once per round, for every pool that selects
            veterans.
        on_assign: called with an array of players seen for the first time
            and an array of each one's pool: once with the single-player
            pools' players, then once per round that brings newcomers.
    """

    def __init__(
        self,
        pools: Sequence[PlayerPool],
        rngs: Sequence[np.random.Generator],
        *,
        players_per_game: int,
        win_streak: int,
        max_rounds: Optional[int] = None,
        swiss_style: bool = True,
        scores: Callable[[np.ndarray], np.ndarray],
        on_assign: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
    ) -> None:
        if players_per_game < 2:
            raise ReproError(
                f"players_per_game must be >= 2, got {players_per_game}"
            )
        if win_streak < 2:
            raise ReproError(f"win_streak must be >= 2, got {win_streak}")
        pools = list(pools)
        self.rngs = list(rngs)
        if len(self.rngs) != len(pools):
            raise ReproError(
                f"need one generator per pool, got {len(self.rngs)} "
                f"for {len(pools)}"
            )
        self.scores = scores
        self.on_assign = on_assign
        self._swiss = swiss_style
        self._win_streak = win_streak
        n = len(pools)
        self._sizes = [int(pool.size) for pool in pools]
        self._size = np.array(self._sizes, dtype=np.int64)
        self._start = np.array([pool.start for pool in pools], dtype=np.int64)
        self._stride = np.array([pool.stride for pool in pools], dtype=np.int64)
        self._width = np.maximum(2, np.minimum(players_per_game, self._size))
        self.champions = np.full(n, -1, dtype=np.int64)
        self.streaks = np.zeros(n, dtype=np.int64)
        self.games = np.zeros(n, dtype=np.int64)
        # A single-player pool's player advances unplayed.
        self.lone = self._size == 1
        self.playing = np.zeros(0, dtype=np.int64)
        self._closed = self.lone.copy()
        # Everyone who has played, each pool's row in first-appearance
        # order, and where each pool's champion sits in its row.
        self._played = np.zeros((n, 0), dtype=np.int64)
        self._count = np.zeros(n, dtype=np.int64)
        self._champion_at = np.zeros(n, dtype=np.int64)
        self._round: Optional[tuple] = None

        if self._swiss:
            if max_rounds is None:
                newcomers = np.maximum(1, self._width // 2)
                max_rounds = np.minimum(64, -(-self._size // newcomers) + 2)
            self.max_rounds = np.broadcast_to(
                np.asarray(max_rounds, dtype=np.int64), n
            ).copy()
            # Small pools are dealt from a permutation; large ones draw
            # their newcomers lazily instead of materialising every player.
            self._dealt = ~self.lone & (self._size <= 4 * self._width)
        else:
            self.max_rounds = np.ones(n, dtype=np.int64)
            self._dealt = np.zeros(n, dtype=bool)
        dealt = np.flatnonzero(self._dealt)
        offsets = [
            self.rngs[k].choice(self._sizes[k], size=self._sizes[k], replace=False)
            for k in dealt.tolist()
        ]
        self._deck = self._ids(dealt, offsets, self._size[dealt])
        self._deck_at = np.zeros(n, dtype=np.int64)
        self._deck_at[dealt] = np.cumsum(self._size[dealt]) - self._size[dealt]
        self._dealt_count = np.zeros(n, dtype=np.int64)
        # The lazily drawing pools' players, pool after pool: player
        # ``offset`` of pool ``k`` is key ``_key_at[k] + offset``, and
        # ``_drawn`` marks every key drawn so far.
        lazy = np.where(self._swiss & ~self.lone & ~self._dealt, self._size, 0)
        self._key_at = np.cumsum(lazy) - lazy
        self._drawn = np.zeros(int(lazy.sum()), dtype=bool)
        if on_assign is not None and self.lone.any():
            lone = np.flatnonzero(self.lone)
            on_assign(self._start[lone], lone)

    def _ids(
        self, pools: np.ndarray, offsets: List[np.ndarray], counts: np.ndarray
    ) -> np.ndarray:
        """Player ids of per-pool offset arrays, pool after pool."""
        flat = np.concatenate([np.zeros(0, dtype=np.int64), *offsets])
        return (
            np.repeat(self._start[pools], counts)
            + flat * np.repeat(self._stride[pools], counts)
        )

    @property
    def done(self) -> bool:
        """Whether every pool has terminated (a pool at its round cap
        terminates when the next round is asked for)."""
        return bool(self._closed.all())

    def played(self) -> Tuple[np.ndarray, np.ndarray]:
        """Everyone who has played a game, pool after pool, each pool in
        first-appearance order; and each pool's count."""
        inside = np.arange(self._played.shape[1]) < self._count[:, None]
        return self._played[inside], self._count.copy()

    # -- drawing newcomers -------------------------------------------------

    def _draw_newcomers(
        self, pools: np.ndarray, want: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Newcomers of ``pools``, ``want`` each: ids in draw order, pool
        after pool, and each one's position in ``pools``."""
        rows = np.arange(pools.size)
        if not self._swiss:
            offsets = [
                self.rngs[k].choice(self._sizes[k], size=m, replace=False)
                for k, m in zip(pools.tolist(), want.tolist())
            ]
            return self._ids(pools, offsets, want), np.repeat(rows, want)
        dealt = self._dealt[pools]
        drawn = []
        if dealt.any():
            drawn.append(self._deal(pools, want, rows[dealt]))
        if not dealt.all():
            drawn.append(self._draw_lazy(pools, want, rows[~dealt]))
        if len(drawn) == 1:
            return drawn[0]
        ids, rows = map(np.concatenate, zip(*drawn))
        order = np.argsort(rows, kind="stable")
        return ids[order], rows[order]

    def _deal(
        self, pools: np.ndarray, want: np.ndarray, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Newcomers of the dealing rows ``rows`` of ``pools``: the next
        cards of each one's permutation."""
        dealing = pools[rows]
        dealt = self._dealt_count[dealing]
        counts = np.minimum(want[rows], self._size[dealing] - dealt)
        cards = _ranks(counts) + np.repeat(self._deck_at[dealing] + dealt, counts)
        self._dealt_count[dealing] += counts
        return self._deck[cards], np.repeat(rows, counts)

    def _draw_lazy(
        self, pools: np.ndarray, want: np.ndarray, left: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Newcomers of the lazily drawing rows ``left`` of ``pools``.

        Each attempt, every row still short draws ``max(2 * want, 8)``
        offsets from its own generator; over the whole round at once, each
        draw is kept at its first occurrence, the players its pool drew
        before are dropped (one gather from the drawn mask), and the first
        ones the row still needs are taken.  Rows still short try again,
        up to ``_NEWCOMER_ATTEMPTS``.
        """
        key_at, sizes, rngs = self._key_at, self._sizes, self.rngs
        batch = np.maximum(2 * want, 8)
        need = want.copy()
        found_keys, found_rows = [], []
        for _ in range(_NEWCOMER_ATTEMPTS):
            if not left.size:
                break
            draws = np.concatenate([
                rngs[k].integers(0, sizes[k], size=m, dtype=np.int64)
                for k, m in zip(pools[left].tolist(), batch[left].tolist())
            ])
            rows = np.repeat(left, batch[left])
            keys = key_at[pools[rows]] + draws
            _, first = np.unique(keys, return_index=True)
            first.sort()
            keys, rows = keys[first], rows[first]
            fresh = ~self._drawn[keys]
            keys, rows = keys[fresh], rows[fresh]
            take = _ranks(np.bincount(rows, minlength=pools.size)) < need[rows]
            keys, rows = keys[take], rows[take]
            self._drawn[keys] = True
            found_keys.append(keys)
            found_rows.append(rows)
            need -= np.bincount(rows, minlength=pools.size)
            left = left[need[left] > 0]
        # Pool after pool, each pool's attempts in order.
        rows = np.concatenate([np.zeros(0, dtype=np.int64), *found_rows])
        order = np.argsort(rows, kind="stable")
        keys = np.concatenate([np.zeros(0, dtype=np.int64), *found_keys])[order]
        rows = rows[order]
        pool = pools[rows]
        return self._start[pool] + (keys - key_at[pool]) * self._stride[pool], rows

    # -- selecting veterans ------------------------------------------------

    def _pick_veterans(
        self, pools: np.ndarray, take: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``take`` score-proportional picks per pool, champion excluded.

        One score read covers every pool's played players.  Each pool's
        weights are its row of one ``(pools, members)`` table, normalised
        by their sum as ``weights.sum()`` sums them, and
        :func:`~repro.rng.choice_rows` replays ``Generator.choice(count,
        take, replace=False, p=weights / total)`` for every row at once.
        Returns each pick's position in ``pools`` and its column in the
        played table, pool after pool, each pool in pick order.
        """
        n = pools.size
        if not n:
            return pools, pools
        counts = self._count[pools]
        width = int(counts.max())
        inside = np.arange(width) < counts[:, None]
        members = self._played[pools, :width][inside]
        scores = self.scores(members)
        weights = np.power(np.maximum(scores, 1e-6), SELECTION_SHARPNESS)
        # Every row sits behind a 0.0 in one flat buffer, so one reduceat
        # over (row start, row end) pairs sums each row as ``weights.sum()``
        # sums it alone: a 0.0 start plus the row's pairwise sum.
        buffer = np.zeros(n * (width + 1) + 1)
        table = buffer[:-1].reshape(n, width + 1)[:, 1:]
        table[inside] = weights
        table[np.arange(n), self._champion_at[pools]] = 0.0
        bounds = np.repeat(np.arange(0, n * (width + 1), width + 1), 2)
        bounds[1::2] += 1 + counts
        totals = np.add.reduceat(buffer, bounds)[::2]
        rngs = self.rngs
        return choice_rows(
            [rngs[k] for k in pools.tolist()], table / totals[:, None], take
        )

    # -- the round protocol ------------------------------------------------

    def pairings(self) -> Optional[List[List[int]]]:
        """The round's lineups, one per open pool in pool order (``playing``
        names the pools); ``None`` once every pool has terminated.

        A lineup seats the pool's champion, then its veteran picks, then
        its newcomers in draw order.  The first round seats newcomers only;
        every later one half newcomers and the rest veterans.
        """
        pools = np.flatnonzero(~self._closed)
        capped = self.games[pools] >= self.max_rounds[pools]
        self._closed[pools[capped]] = True
        pools = pools[~capped]
        if not pools.size:
            self.playing = pools
            return None
        # A pool past its first round seats its champion, who has played.
        veteran = self.games[pools] > 0
        width = self._width[pools]
        new_ids, new_rows = self._draw_newcomers(
            pools, np.where(veteran, width // 2, width)
        )
        n_new = np.bincount(new_rows, minlength=pools.size)
        new_pools = pools[new_rows]
        take = np.where(
            veteran, np.minimum(width - n_new - 1, self._count[pools] - 1), 0
        )
        pickers = np.flatnonzero(take > 0)
        pick_rows, pick_cols = self._pick_veterans(pools[pickers], take[pickers])
        pick_rows = pickers[pick_rows]
        n_vet = veteran + take
        sizes = n_vet + n_new

        # Seat every lineup in one flat array: champion, picks, newcomers.
        starts = np.cumsum(sizes) - sizes
        seat_ids = np.empty(int(sizes.sum()), dtype=np.int64)
        seat_cols = np.empty_like(seat_ids)
        at = starts[veteran]
        seat_ids[at] = self.champions[pools[veteran]]
        seat_cols[at] = self._champion_at[pools[veteran]]
        at = starts[pick_rows] + 1 + _ranks(take)
        seat_ids[at] = self._played[pools[pick_rows], pick_cols]
        seat_cols[at] = pick_cols
        new_rank = _ranks(n_new)
        at = starts[new_rows] + n_vet[new_rows] + new_rank
        new_cols = self._count[new_pools] + new_rank
        seat_ids[at] = new_ids
        seat_cols[at] = new_cols

        short = sizes < 2
        if short.any():  # a pool that cannot seat a game terminates
            self._closed[pools[short]] = True
            seated = np.repeat(~short, sizes)
            seat_ids, seat_cols = seat_ids[seated], seat_cols[seated]
            kept = ~short[new_rows]
            new_ids, new_pools, new_cols = (
                new_ids[kept], new_pools[kept], new_cols[kept]
            )
            pools, sizes = pools[~short], sizes[~short]
            if not pools.size:
                self.playing = pools
                return None
        if self.on_assign is not None and new_ids.size:
            self.on_assign(new_ids, new_pools)
        self.playing = pools
        self._round = (seat_ids, seat_cols, sizes, new_pools, new_ids, new_cols)
        flat = seat_ids.tolist()
        ends = np.cumsum(sizes).tolist()
        return [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]

    def advance(self, winners: Sequence[int]) -> None:
        """Fold the round's winners (one per lineup, in lineup order, as a
        sequence or an array) into every playing pool's champion, streak
        and played list."""
        if self._round is None:
            raise ReproError("no round is waiting for its winners")
        seat_ids, seat_cols, sizes, new_pools, new_ids, new_cols = self._round
        pools = self.playing
        won = np.asarray(winners, dtype=np.int64).ravel()
        if won.size != pools.size:
            raise ReproError(
                f"need one winner per lineup, got {won.size} for {pools.size}"
            )
        seat = np.flatnonzero(seat_ids == np.repeat(won, sizes))
        if seat.size != pools.size:
            raise ReproError("every winner must play in its own lineup")
        self._round = None
        self.playing = np.zeros(0, dtype=np.int64)

        width = self._played.shape[1]
        if new_cols.size and new_cols.max() >= width:  # the longest list
            grown = np.zeros((self._count.size, new_cols.max() + 1), np.int64)
            grown[:, :width] = self._played
            self._played = grown
        self._played[new_pools, new_cols] = new_ids
        self._count += np.bincount(new_pools, minlength=self._count.size)
        self._champion_at[pools] = seat_cols[seat]
        self.games[pools] += 1
        if not self._swiss:
            self.champions[pools] = won
            self._closed[pools] = True
            return
        streak = np.where(
            won == self.champions[pools], self.streaks[pools] + 1, 1
        )
        self.champions[pools] = won
        self.streaks[pools] = streak
        dealt_out = self._dealt[pools] & (
            self._dealt_count[pools] >= self._size[pools]
        )
        self._closed[pools] |= (streak >= self._win_streak) | dealt_out


def _ranks(counts: np.ndarray) -> np.ndarray:
    """Each entry's position within its row, for entries laid out row
    after row, ``counts[r]`` of them in row ``r``."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)

