"""Dedicated tests for the human-readable tournament report."""

import pytest

from repro.apps import make_application
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.tournament import DarwinGame
from repro.core.trace import format_tournament_report
from repro.types import TuningResult


@pytest.fixture(scope="module")
def result():
    app = make_application("redis", scale="test")
    env = CloudEnvironment(seed=8)
    return DarwinGame(DarwinGameConfig(seed=8)).tune(app, env)


class TestTournamentReport:
    def test_header_names_winner(self, result):
        text = format_tournament_report(result)
        assert text.splitlines()[0].endswith(str(result.best_index))

    def test_totals_line(self, result):
        text = format_tournament_report(result)
        assert f"{result.evaluations} evaluations" in text
        assert "core-hours" in text

    def test_phase_counts_match_details(self, result):
        text = format_tournament_report(result)
        regional = result.details["regional"]
        assert f"{regional['regions']} regions" in text
        assert f"{regional['games']} games" in text

    def test_final_line_names_runner_up(self, result):
        text = format_tournament_report(result)
        runner_up = result.details["playoffs"].get("runner_up")
        if runner_up is not None:
            assert f"beat {runner_up}" in text

    def test_minimal_result_renders(self):
        """A result with no phase details (degenerate run) still renders."""
        bare = TuningResult(
            tuner_name="DarwinGame",
            best_index=5,
            best_values=("x",),
            evaluations=0,
            core_hours=0.0,
            tuning_seconds=0.0,
            details={},
        )
        text = format_tournament_report(bare)
        assert "winner 5" in text
        assert "phase I" not in text

    def test_ablated_run_omits_missing_phases(self):
        app = make_application("redis", scale="test")
        env = CloudEnvironment(seed=9)
        cfg = DarwinGameConfig(regional_phase=False, seed=9)
        ablated = DarwinGame(cfg).tune(app, env)
        text = format_tournament_report(ablated)
        # "w/o regional" reports 0 regions but still renders phase II.
        assert "phase II" in text


def _synthetic(details):
    return TuningResult(
        tuner_name="DarwinGame", best_index=1, best_values=("x",),
        evaluations=5000, core_hours=316.0, tuning_seconds=7200.0,
        details=details,
    )


_PHASES = {
    "regional": {"regions": 16, "games": 120, "rounds": 120, "winners": 40},
    "global": {"entrants": 40, "rounds": 2, "games": 9,
               "main_bracket": [1, 2, 3], "wildcard": 4,
               "loser_bracket_size": 30},
    "playoffs": {"players": [1, 2, 3, 4], "games": 3, "finalists": [1, 2],
                 "runner_up": 2},
    "phase_core_hours": {"regional": 300.0, "global": 10.0, "playoffs": 5.0,
                         "final": 1.0},
}


class TestFormatLabels:
    def test_default_report_text_unchanged(self):
        assert format_tournament_report(_synthetic(_PHASES)) == "\n".join([
            "DarwinGame tournament report \u2014 winner 1",
            "  total: 5000 evaluations, 316 core-hours, 2.0 simulated hours",
            "  phase I  (regional, Swiss): 16 regions, 120 games -> 40 winners",
            "  phase II (global, double elimination): 40 entrants, 2 rounds, "
            "9 games",
            "           main bracket: [1, 2, 3]",
            "           wild card (from loser bracket of 30): 4",
            "  phase III (playoffs, barrage): 3 games",
            "           finalists: [1, 2]",
            "  phase IV (final): 1 beat 2",
            "  core-hours by phase: final=1, global=10, playoffs=5, "
            "regional=300",
        ])

    @pytest.mark.parametrize(
        "fmt, global_style, playoff_style",
        [
            ("knockout", "double elimination", "single elimination"),
            ("round_robin_playoffs", "double elimination", "round robin"),
            ("single_elim", "single elimination", "single elimination"),
        ],
    )
    def test_report_names_the_formats_that_ran(
        self, fmt, global_style, playoff_style
    ):
        app = make_application("redis", scale="test")
        config = DarwinGameConfig(seed=8).with_format(fmt)
        result = DarwinGame(config).tune(app, CloudEnvironment(seed=8))
        text = format_tournament_report(result)
        assert result.details["format"] == fmt
        assert "(regional, Swiss)" in text
        assert f"phase II (global, {global_style}):" in text
        assert f"phase III (playoffs, {playoff_style}):" in text

    def test_unregistered_format_printed_as_is(self):
        text = format_tournament_report(
            _synthetic(dict(_PHASES, format="from_elsewhere"))
        )
        assert "phase II (global, from_elsewhere):" in text
        assert "phase III (playoffs, from_elsewhere):" in text


class TestLogging:
    def test_tournament_emits_phase_logs(self, caplog):
        import logging

        app = make_application("redis", scale="test")
        env = CloudEnvironment(seed=10)
        with caplog.at_level(logging.INFO, logger="repro.core.tournament"):
            DarwinGame(DarwinGameConfig(seed=10)).tune(app, env)
        messages = " ".join(r.message for r in caplog.records)
        assert "regional phase" in messages
        assert "global phase" in messages
        assert "tournament winner" in messages
