"""Array-backed rounds: the kernel's outcomes and the executor's reports.

:class:`~repro.types.RoundOutcomes` and
:class:`~repro.core.executor.RoundReports` keep a round as arrays and
build a :class:`~repro.types.GameOutcome` or
:class:`~repro.core.executor.GameReport` only when one is read.  Every
record they build must be the one the eager, game-by-game construction of
``oracle.reports`` gives, in every phase of every tournament tuner; and
the regional phase, which reads only the arrays, must build none.
"""

import numpy as np
import pytest

from oracle.reports import assert_plain_types, eager_outcomes, report_of
from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.cloud.vm import PRESETS
from repro.core.config import DarwinGameConfig
from repro.core.dynamic import DynamicFeedbackDarwinGame
from repro.core.executor import GameReport, MatchExecutor
from repro.core.records import RecordBook
from repro.core.tournament import DarwinGame
from repro.tuners.active_harmony import ActiveHarmonyLike
from repro.tuners.integration import HybridTuner
from repro.types import GameOutcome, RoundOutcomes

VM = PRESETS["m5.8xlarge"]


@pytest.fixture(scope="module")
def app():
    return make_application("redis", scale="test")


def _captured_rounds(monkeypatch):
    """Every round ``MatchExecutor.play`` plays from now on: its label,
    lineups and reports."""
    rounds = []
    play = MatchExecutor.play

    def capturing(self, lineups, **kwargs):
        reports = play(self, lineups, **kwargs)
        rounds.append((kwargs["label"], [list(l) for l in lineups], reports))
        return reports

    monkeypatch.setattr(MatchExecutor, "play", capturing)
    return rounds


def _assert_round_matches_eager(lineups, reports):
    outcomes = eager_outcomes(reports.outcomes)
    expected = [report_of(l, o) for l, o in zip(lineups, outcomes)]
    assert len(reports) == len(reports.outcomes) == len(expected)
    assert list(reports.outcomes) == outcomes
    assert list(reports) == expected
    assert reports == expected and reports.outcomes == outcomes
    for report in reports:
        assert_plain_types(report)
    # Indexed from either end, in any order, a record is the same one.
    for i in reversed(range(len(expected))):
        assert reports[i] == expected[i] == reports[i - len(expected)]
        assert reports.outcomes[i] == outcomes[i]
    assert reports.winner_indices.tolist() == [r.winner_index for r in expected]
    assert reports.elapsed.tolist() == [r.elapsed for r in expected]


_TUNERS = {
    "darwingame": lambda: DarwinGame(DarwinGameConfig(seed=1)),
    "feedback": lambda: DynamicFeedbackDarwinGame(DarwinGameConfig(seed=1)),
    "hybrid": lambda: HybridTuner(
        ActiveHarmonyLike(seed=1), DarwinGameConfig(seed=1), seed=1
    ),
}
_LABELS = {
    "darwingame": {"regional", "global", "playoffs", "final"},
    "feedback": {"regional", "global", "playoffs", "final", "feedback"},
    "hybrid": {"regional", "playoffs", "final"},
}


class TestRecordsMatchEagerConstruction:
    @pytest.mark.parametrize("tuner", sorted(_TUNERS))
    def test_every_round_of_a_tune(self, app, monkeypatch, tuner):
        rounds = _captured_rounds(monkeypatch)
        _TUNERS[tuner]().tune(app, CloudEnvironment(VM, seed=7))
        assert _LABELS[tuner] <= {label for label, _, _ in rounds}
        for _, lineups, reports in rounds:
            _assert_round_matches_eager(lineups, reports)

    def test_empty_round(self, app):
        executor = MatchExecutor(
            CloudEnvironment(VM, seed=0), app, DarwinGameConfig(), RecordBook()
        )
        reports = executor.play([], label="empty")
        assert len(reports) == 0 and list(reports) == [] and reports == []
        assert executor.round_elapsed(reports) == 0.0
        with pytest.raises(IndexError):
            reports[0]

    def test_sequence_protocol(self, app):
        env = CloudEnvironment(VM, seed=3)
        lineups = [[1, 2, 3], [4, 5], [6]]
        outcomes = env.run_colocated_batch(app, lineups, work_deviation=0.1)
        assert isinstance(outcomes, RoundOutcomes)
        eager = eager_outcomes(outcomes)
        assert outcomes[-1] == eager[2] and outcomes[np.int64(1)] == eager[1]
        assert eager[0] in outcomes and outcomes.index(eager[1]) == 1
        assert list(reversed(outcomes)) == eager[::-1]
        assert outcomes != eager[:2] and outcomes != "abc"
        for bad in (3, -4):
            with pytest.raises(IndexError):
                outcomes[bad]
        with pytest.raises(TypeError):
            outcomes[0:2]
        with pytest.raises(TypeError):
            hash(outcomes)


class TestRegionalPhaseBuildsNoRecords:
    def test_tune_builds_records_outside_the_regional_phase_only(
        self, app, monkeypatch
    ):
        """Constructions are counted on the classes themselves, wherever
        they come from; the later phases read reports, so they build some."""
        built = {"regional": 0, "other": 0}
        phase = ["other"]
        for cls in (GameOutcome, GameReport):
            init = cls.__init__

            def counting(self, *args, _init=init, **kwargs):
                built[phase[0]] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        play_regions = MatchExecutor.play_regions

        def regional(self, *args, **kwargs):
            phase[0] = "regional"
            try:
                return play_regions(self, *args, **kwargs)
            finally:
                phase[0] = "other"

        monkeypatch.setattr(MatchExecutor, "play_regions", regional)
        env = CloudEnvironment(VM, seed=7)
        result = DarwinGame(DarwinGameConfig(seed=1)).tune(app, env)
        assert result.details["regional"]["games"] > 0
        assert built["regional"] == 0
        assert built["other"] > 0
