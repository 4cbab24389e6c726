"""Per-game records built eagerly: the reference for the array-backed rounds.

:class:`repro.types.RoundOutcomes` and :class:`repro.core.executor.RoundReports`
build a game's record only when it is read.  These functions build every
record of a round at once, the plain way: outcomes as the kernel used to
return them (one ``.tolist()`` per array, sliced per game), and reports
re-derived per game from the lineup and the outcome alone — scores by
division by the game's best work, the winner as the first top score, the
ranking as a stable sort — independent of the vectorised booking under
test.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, Sequence

from repro.core.executor import GameReport
from repro.types import GameOutcome


def eager_outcomes(outcomes) -> List[GameOutcome]:
    """Every game's outcome of a round's arrays, built up front."""
    sizes = outcomes.sizes.tolist()
    work, finished = outcomes.work.tolist(), outcomes.finished.tolist()
    return [
        GameOutcome(
            elapsed=elapsed,
            work=tuple(work[end - k:end]),
            finished=tuple(finished[end - k:end]),
            early_terminated=early,
            start_time=outcomes.start_time,
            mean_interference=level,
        )
        for elapsed, k, end, early, level in zip(
            outcomes.elapsed.tolist(), sizes, accumulate(sizes),
            outcomes.early.tolist(), outcomes.mean_interference.tolist(),
        )
    ]


def report_of(lineup: Sequence[int], outcome: GameOutcome) -> GameReport:
    """One game's report from its lineup and outcome, game by game."""
    best = max(outcome.work)
    scores = tuple(work / best for work in outcome.work)
    return GameReport(
        indices=tuple(int(i) for i in lineup),
        execution_scores=scores,
        winner_position=scores.index(max(scores)),
        outcome=outcome,
        ranking=tuple(sorted(range(len(scores)), key=lambda p: -scores[p])),
    )


def assert_plain_types(report: GameReport) -> None:
    """Fields hold Python numbers, as the eagerly built records did."""
    outcome = report.outcome
    assert type(outcome.elapsed) is float
    assert type(outcome.mean_interference) is float
    assert type(outcome.early_terminated) is bool
    assert all(type(w) is float for w in outcome.work)
    assert all(type(f) is bool for f in outcome.finished)
    assert all(type(i) is int for i in report.indices)
    assert all(type(s) is float for s in report.execution_scores)
    assert all(type(p) is int for p in report.ranking)
    assert type(report.winner_position) is int
