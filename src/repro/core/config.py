"""DarwinGame configuration, including every ablation switch of Fig. 16.

The defaults mirror the paper: work-done deviation ``d = 10%``, early
termination armed after 25% of the work, multi-player games in the early
phases sized to the VM's vCPU count, a Swiss regional phase, a double
elimination global phase judged on execution *and* consistency scores,
barrage playoffs, and a two-player final.

Every "w/o X" variant of Fig. 16 is obtained by flipping one flag here, so
the ablations exercise the same code path as the full system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import TournamentError
from repro.formats.recipes import TournamentRecipe
from repro.formats.recipes import tournament_format as resolve_tournament_format
from repro.rng import SeedLike


@dataclass(frozen=True)
class DarwinGameConfig:
    """All knobs of the tournament.

    Attributes:
        n_regions: number of regions for the regional phase (the paper's
            ``n_r``; 10,000 at full scale).  ``None`` auto-sizes to roughly
            one region per 256 configurations, capped at 10,000.
        players_per_game: the paper's ``P`` — players co-located per game in
            the regional and global phases.  ``None`` uses the VM vCPU count
            (capped at 32, the paper's main setting).
        work_deviation: the early-termination / winner-band deviation ``d``.
        min_work_for_termination: fraction of work the leader must complete
            before a game may terminate early.
        regional_win_streak: consecutive wins after which a region declares
            its champion ("consistently winning for more than one time").
        max_regional_rounds: hard cap on rounds per region (``None`` derives
            one from the region size).
        main_bracket_target: global phase runs until the main bracket holds
            this many players (paper: three).
        no_regional_entrant_cap: when the regional phase is ablated away,
            at most this many randomly sampled configurations enter the
            global phase directly.
        interleaved_regions: assign every ``n_r``-th index to the same
            region (True, default) instead of contiguous index blocks.
            Contiguous blocks fix the leading parameter digits, making a
            region's members near-clones — kept as an extra ablation.
        early_termination / regional_phase / swiss_style /
        one_winner_per_region / global_phase / double_elimination /
        barrage_playoffs / use_execution_score / use_consistency_score /
        two_player_games_only: the Fig. 16 ablation switches.
        tournament_format: named phase-format recipe from the
            :mod:`repro.formats.recipes` registry.  ``"darwin"`` (default)
            is the paper's Alg. 1; alternates swap the playoff scheduler
            and/or drop the loser bracket, making the tournament's *shape*
            a sweepable axis.  Non-default recipes are applied on top of
            the flags above (see :meth:`apply_recipe`).
        seed: master seed of the tournament's own randomness (player
            selection, pairings); independent of the environment's noise.
    """

    n_regions: Optional[int] = None
    players_per_game: Optional[int] = None
    work_deviation: float = 0.10
    min_work_for_termination: float = 0.25
    regional_win_streak: int = 3
    max_regional_rounds: Optional[int] = None
    main_bracket_target: int = 3
    no_regional_entrant_cap: int = 4096
    interleaved_regions: bool = True
    early_termination: bool = True
    regional_phase: bool = True
    swiss_style: bool = True
    one_winner_per_region: bool = False
    global_phase: bool = True
    double_elimination: bool = True
    barrage_playoffs: bool = True
    use_execution_score: bool = True
    use_consistency_score: bool = True
    two_player_games_only: bool = False
    tournament_format: str = "darwin"
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        resolve_tournament_format(self.tournament_format)  # fail fast on typos
        if not 0.0 < self.work_deviation < 1.0:
            raise TournamentError(
                f"work_deviation must be in (0, 1), got {self.work_deviation}"
            )
        if not 0.0 <= self.min_work_for_termination < 1.0:
            raise TournamentError(
                "min_work_for_termination must be in [0, 1), got "
                f"{self.min_work_for_termination}"
            )
        if self.regional_win_streak < 2:
            raise TournamentError(
                "regional_win_streak must be >= 2 (the champion must win "
                f"'more than one time'), got {self.regional_win_streak}"
            )
        if self.main_bracket_target < 1:
            raise TournamentError(
                f"main_bracket_target must be >= 1, got {self.main_bracket_target}"
            )
        if self.n_regions is not None and self.n_regions < 1:
            raise TournamentError(f"n_regions must be >= 1, got {self.n_regions}")
        if self.players_per_game is not None and self.players_per_game < 2:
            raise TournamentError(
                f"players_per_game must be >= 2, got {self.players_per_game}"
            )
        if not self.use_execution_score and not self.use_consistency_score:
            raise TournamentError(
                "at least one of execution score and consistency score must be used"
            )

    def game_width(self, vcpus: int, *, nominal: bool = False) -> int:
        """Seats per regional/global game on a VM with ``vcpus`` vCPUs.

        ``players_per_game``, by default the vCPU count capped at 32, and
        never more than the VM has.  The "all 2-player games" ablation seats
        two, unless ``nominal`` asks for the VM's nominal width: region
        sizing uses it, so that ablation isolates the effect of game width
        on tuning cost with the region structure held fixed (the paper keeps
        ``n_r`` at 10,000 throughout).
        """
        if self.two_player_games_only and not nominal:
            return 2
        return max(2, min(self.players_per_game or min(32, vcpus), vcpus))

    def recipe(self) -> TournamentRecipe:
        """The registered phase-format recipe this config runs under."""
        return resolve_tournament_format(self.tournament_format)

    def with_format(self, name: str) -> "DarwinGameConfig":
        """Return a copy running under the named tournament format."""
        return replace(self, tournament_format=name)

    def apply_recipe(self) -> "DarwinGameConfig":
        """Fold the recipe's phase choices into the ablation flags.

        The ``darwin`` recipe changes nothing — flags (and therefore every
        Fig. 16 ablation, and bit-for-bit results) are exactly the
        pre-recipe behaviour.  Alternate recipes only ever *restrict*
        (e.g. dropping the loser bracket); the playoff scheduler choice is
        read from :meth:`recipe` by the playoff phase directly.
        """
        recipe = self.recipe()
        changes = {}
        if not recipe.swiss_regional and self.swiss_style:
            changes["swiss_style"] = False
        if not recipe.double_elimination_global and self.double_elimination:
            changes["double_elimination"] = False
        return replace(self, **changes) if changes else self

    def with_ablation(self, name: str) -> "DarwinGameConfig":
        """Return a copy with one named Fig. 16 ablation applied."""
        ablations = {
            "full": {},
            "w/o regional": {"regional_phase": False},
            "one-win regional": {"one_winner_per_region": True},
            "w/o Swiss": {"swiss_style": False},
            "w/o global": {"global_phase": False},
            "w/o double eli.": {"double_elimination": False},
            "w/o barrage": {"barrage_playoffs": False},
            "w/o consistency score": {"use_consistency_score": False},
            "w/o exe. score": {"use_execution_score": False},
            "all 2-player games": {"two_player_games_only": True},
            "w/o early termination": {"early_termination": False},
            # Extra ablation (not part of Fig. 16): contiguous index-block
            # regions, whose members share their leading parameter digits.
            "contiguous regions": {"interleaved_regions": False},
        }
        try:
            changes = ablations[name]
        except KeyError:
            raise TournamentError(
                f"unknown ablation {name!r}; available: {sorted(ablations)}"
            ) from None
        return replace(self, **changes)


ABLATION_NAMES = (
    "w/o regional",
    "one-win regional",
    "w/o Swiss",
    "w/o global",
    "w/o double eli.",
    "w/o barrage",
    "w/o consistency score",
    "w/o exe. score",
    "all 2-player games",
    "w/o early termination",
)


def auto_regions(space_size: int, players_per_game: int = 32) -> int:
    """Default region count: ~8 games' worth of players per region, capped at 10k.

    Sizing regions to the game width keeps per-region coverage comparable
    across VM sizes: a 2-vCPU VM plays 2-player games, so its regions hold
    ~16 configurations instead of the ~256 a 32-vCPU VM gets.
    """
    if space_size < 16:
        return space_size
    target = max(16, 8 * players_per_game)
    return max(16, min(10_000, space_size // target))
