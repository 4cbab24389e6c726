"""Human-readable tournament reports.

:func:`format_tournament_report` turns a :class:`~repro.types.TuningResult`
produced by :class:`~repro.core.tournament.DarwinGame` into a plain-text
summary of the four phases — how many regions and games were played, who
reached the main bracket, who got the wild card, and what each phase cost.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.formats.recipes import (
    DEFAULT_FORMAT,
    tournament_format,
    tournament_format_names,
)
from repro.types import TuningResult


def _phase_styles(name: str) -> Tuple[str, str, str]:
    """Regional, global and playoff styles of the named recipe.

    A recipe this process has not registered is named as-is.
    """
    if name not in tournament_format_names():
        return name, name, name
    recipe = tournament_format(name)
    return (
        "Swiss" if recipe.swiss_regional else "one game per region",
        "double elimination" if recipe.double_elimination_global
        else "single elimination",
        recipe.playoffs.replace("_", " "),
    )


def format_tournament_report(result: TuningResult) -> str:
    """Render a phase-by-phase report of one DarwinGame run."""
    regional_style, global_style, playoff_style = _phase_styles(
        result.details.get("format", DEFAULT_FORMAT)
    )
    lines: List[str] = [f"DarwinGame tournament report — winner {result.best_index}"]
    lines.append(
        f"  total: {result.evaluations} evaluations, "
        f"{result.core_hours:,.0f} core-hours, "
        f"{result.tuning_seconds / 3600.0:,.1f} simulated hours"
    )

    regional = result.details.get("regional")
    if regional:
        lines.append(
            f"  phase I  (regional, {regional_style}): "
            f"{regional['regions']} regions, "
            f"{regional['games']} games -> {regional['winners']} winners"
        )

    global_phase = result.details.get("global")
    if global_phase:
        main = global_phase.get("main_bracket")
        wildcard = global_phase.get("wildcard", -1)
        lines.append(
            f"  phase II (global, {global_style}): "
            f"{global_phase.get('entrants', 0)} entrants, "
            f"{global_phase.get('rounds', 0)} rounds, "
            f"{global_phase.get('games', 0)} games"
        )
        if main is not None:
            lines.append(f"           main bracket: {main}")
        if wildcard is not None and wildcard >= 0:
            lines.append(
                f"           wild card (from loser bracket of "
                f"{global_phase.get('loser_bracket_size', 0)}): {wildcard}"
            )

    playoffs = result.details.get("playoffs")
    if playoffs:
        lines.append(
            f"  phase III (playoffs, {playoff_style}): "
            f"{playoffs.get('games', 0)} games"
        )
        if "finalists" in playoffs:
            lines.append(f"           finalists: {playoffs['finalists']}")
        if "runner_up" in playoffs:
            lines.append(
                f"  phase IV (final): {result.best_index} beat "
                f"{playoffs['runner_up']}"
            )

    per_phase = result.details.get("phase_core_hours")
    if per_phase:
        cost = ", ".join(f"{k}={v:,.0f}" for k, v in sorted(per_phase.items()))
        lines.append(f"  core-hours by phase: {cost}")

    feedback = result.details.get("feedback")
    if feedback:
        lines.append(
            f"  feedback loop: {feedback['games']} games, "
            f"{feedback['replacements']} adjustments adopted "
            f"(dynamic dims {feedback['dynamic_dims']})"
        )
    return "\n".join(lines)
