"""Named tournament formats: recipes composing phase schedulers.

The paper's DarwinGame is one point in a design space the tournament
literature spans: Swiss screening, a double-elimination global bracket,
barrage playoffs.  A :class:`TournamentRecipe` names a point in that space
— which playing styles the regional/global phases use and which scheduler
decides the playoffs — and the registry makes ``format`` a first-class,
sweepable axis: the same :class:`~repro.core.tournament.DarwinGame` engine
runs every recipe, so formats can be compared per scenario pack with
nothing but ``--formats`` on a sweep.

The ``darwin`` recipe is the paper's Alg. 1 and the default everywhere;
campaign IDs only include the format when it deviates, so existing stores
keep resuming under their original IDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ReproError

#: Playoff scheduler names a recipe may select (resolved by
#: :meth:`repro.core.executor.MatchExecutor.play_playoffs`).
PLAYOFF_FORMATS = (
    "barrage",
    "single_elimination",
    "double_elimination",
    "round_robin",
)


@dataclass(frozen=True)
class TournamentRecipe:
    """One named composition of phase formats.

    Attributes:
        name: registry key (the sweepable ``format`` value).
        swiss_regional: regional pools play Swiss-style streak rounds
            (``False``: one random game per region decides it).
        double_elimination_global: the global phase keeps a loser pool and
            grants a wild card (``False``: losses eliminate outright).
        playoffs: which scheduler produces the two finalists
            (:data:`PLAYOFF_FORMATS`).
        description: one-line summary for ``--help`` and reports.
    """

    name: str
    description: str
    swiss_regional: bool = True
    double_elimination_global: bool = True
    playoffs: str = "barrage"

    def __post_init__(self) -> None:
        if self.playoffs not in PLAYOFF_FORMATS:
            raise ReproError(
                f"unknown playoff format {self.playoffs!r}; "
                f"available: {list(PLAYOFF_FORMATS)}"
            )


_REGISTRY: Dict[str, TournamentRecipe] = {}


def register_tournament_format(recipe: TournamentRecipe) -> TournamentRecipe:
    """Add a recipe to the registry (name collisions are an error)."""
    if recipe.name in _REGISTRY:
        raise ReproError(f"tournament format {recipe.name!r} already registered")
    _REGISTRY[recipe.name] = recipe
    return recipe


def tournament_format(name: str) -> TournamentRecipe:
    """Look up a registered recipe by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown tournament format {name!r}; "
            f"registered: {tournament_format_names()}"
        ) from None


def tournament_format_names() -> Tuple[str, ...]:
    """Registered recipe names, registration order (``darwin`` first)."""
    return tuple(_REGISTRY)


DEFAULT_FORMAT = "darwin"

register_tournament_format(TournamentRecipe(
    name="darwin",
    description="the paper's Alg. 1: Swiss -> double elimination -> barrage",
))
register_tournament_format(TournamentRecipe(
    name="knockout",
    description="single-elimination playoffs: cheap but fragile at the top",
    playoffs="single_elimination",
))
register_tournament_format(TournamentRecipe(
    name="double_elim_playoffs",
    description="double-elimination playoffs: every finalist earned twice",
    playoffs="double_elimination",
))
register_tournament_format(TournamentRecipe(
    name="round_robin_playoffs",
    description="round-robin playoffs: the accuracy ceiling, at O(n^2) games",
    playoffs="round_robin",
))
register_tournament_format(TournamentRecipe(
    name="single_elim",
    description="no loser bracket, knockout playoffs: the cheapest tournament",
    double_elimination_global=False,
    playoffs="single_elimination",
))

#: The registered names, importable as a constant for CLI choices.
TOURNAMENT_FORMAT_NAMES = tournament_format_names()
