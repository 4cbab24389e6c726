"""The tournament-format axis: recipes, engine plumbing, campaigns, CLI."""

import json

import pytest

from repro.apps import make_application
from repro.campaigns import (
    CampaignGrid,
    CampaignRunner,
    CampaignSpec,
    SweepOptions,
    summarise_by,
)
from repro.cli import main
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.tournament import DarwinGame
from repro.errors import ReproError, TournamentError
from repro.formats import (
    TournamentRecipe,
    tournament_format,
    tournament_format_names,
)


@pytest.fixture(scope="module")
def app():
    return make_application("redis", scale="test")


class TestRecipeRegistry:
    def test_darwin_is_registered_first(self):
        assert tournament_format_names()[0] == "darwin"
        recipe = tournament_format("darwin")
        assert recipe.playoffs == "barrage"
        assert recipe.double_elimination_global

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError):
            tournament_format("best-of-seven")

    def test_invalid_playoff_choice_rejected(self):
        with pytest.raises(ReproError):
            TournamentRecipe(name="x", description="", playoffs="coin-toss")

    def test_config_validates_format(self):
        with pytest.raises(ReproError):
            DarwinGameConfig(tournament_format="nope")

    def test_apply_recipe_darwin_is_identity(self):
        cfg = DarwinGameConfig(seed=3)
        assert cfg.apply_recipe() is cfg

    def test_apply_recipe_single_elim_drops_loser_bracket(self):
        cfg = DarwinGameConfig(seed=3).with_format("single_elim")
        resolved = cfg.apply_recipe()
        assert resolved.double_elimination is False
        assert resolved.recipe().playoffs == "single_elimination"


class TestEngineUnderAlternateFormats:
    @pytest.mark.parametrize("name", tournament_format_names())
    def test_every_format_completes_and_is_deterministic(self, app, name):
        def tune():
            env = CloudEnvironment(seed=11)
            cfg = DarwinGameConfig(seed=2, tournament_format=name)
            return DarwinGame(cfg).tune(app, env)

        a, b = tune(), tune()
        assert 0 <= a.best_index < app.space.size
        assert a.best_index == b.best_index
        assert a.core_hours == b.core_hours
        if name != "darwin":
            assert a.details["format"] == name
        else:
            assert "format" not in a.details

    def test_round_robin_playoffs_cost_more_games(self, app):
        def playoff_games(name):
            env = CloudEnvironment(seed=11)
            cfg = DarwinGameConfig(seed=2, tournament_format=name)
            return DarwinGame(cfg).tune(app, env).details["playoffs"]["games"]

        assert playoff_games("round_robin_playoffs") > playoff_games("knockout")

    def test_knockout_matches_wo_barrage_ablation(self, app):
        """The 'knockout' style the ablation used is now a barrage scheduler
        with the repechage off — identical games, identical outcome."""
        env_a = CloudEnvironment(seed=11)
        ablated = DarwinGame(
            DarwinGameConfig(seed=2).with_ablation("w/o barrage")
        ).tune(app, env_a)
        env_b = CloudEnvironment(seed=11)
        base = DarwinGame(DarwinGameConfig(seed=2)).tune(app, env_b)
        assert ablated.details["playoffs"]["games"] \
            < base.details["playoffs"]["games"]


class TestCampaignFormatAxis:
    def test_default_format_keeps_pre_axis_campaign_ids(self):
        spec = CampaignSpec(app="redis", seed=3, scale="test")
        payload = spec.to_dict()
        del payload["format"]  # a spec written before the axis existed
        old = CampaignSpec.from_dict(payload)
        assert old.format == "darwin"
        assert old.campaign_id == spec.campaign_id
        assert ".darwin" not in spec.campaign_id

    def test_non_default_format_changes_id_and_prefix(self):
        base = CampaignSpec(app="redis", seed=3, scale="test")
        alt = CampaignSpec(app="redis", seed=3, scale="test", format="knockout")
        assert alt.campaign_id != base.campaign_id
        assert ".knockout." in alt.campaign_id

    def test_grid_enumerates_format_axis(self):
        grid = CampaignGrid(
            apps=("redis",), seeds=(0, 1), scale="test",
            formats=("darwin", "knockout"),
        )
        specs = list(grid.specs())
        assert grid.size == len(specs) == 4
        assert {s.format for s in specs} == {"darwin", "knockout"}
        assert len({s.campaign_id for s in specs}) == 4

    def test_grid_header_roundtrip_with_formats(self):
        grid = CampaignGrid(apps=("redis",), formats=("darwin", "single_elim"))
        assert CampaignGrid.from_dict(grid.to_dict()) == grid

    def test_pre_axis_grid_header_still_loads(self):
        grid = CampaignGrid(apps=("redis",))
        payload = grid.to_dict()
        del payload["formats"]
        assert CampaignGrid.from_dict(payload).formats == ("darwin",)

    def test_runner_executes_formats_and_reports_by_format(self):
        grid = CampaignGrid(
            apps=("redis",), seeds=(0,), scale="test", eval_runs=10,
            formats=("darwin", "knockout"),
        )
        report = CampaignRunner(SweepOptions(jobs=1)).run(grid.specs())
        assert all(r.ok for r in report.records)
        summary = summarise_by(report.records, "format")
        assert summary.values == ["darwin", "knockout"]
        darwin = summary.row("darwin", "DarwinGame")
        knockout = summary.row("knockout", "DarwinGame")
        assert darwin.gap_percent == pytest.approx(0.0)
        assert knockout.campaigns == 1
        rendered = summary.table()
        assert "knockout" in rendered and "vs darwin %" in rendered
        # Deterministic payload for byte-compare style checks.
        assert json.loads(summary.to_json())["formats"] == ["darwin", "knockout"]

    def test_format_only_affects_darwin_strategy(self):
        """A non-tournament strategy runs identically under every format."""
        base = CampaignSpec(app="redis", strategy="BLISS", seed=1,
                           scale="test", eval_runs=10)
        alt = CampaignSpec(app="redis", strategy="BLISS", seed=1,
                          scale="test", eval_runs=10, format="knockout")
        report = CampaignRunner(SweepOptions(jobs=1)).run([base, alt])
        a, b = report.records
        assert a.ok and b.ok
        assert a.best_index == b.best_index
        assert a.evaluation.mean_time == b.evaluation.mean_time

    def test_grid_enumerates_baselines_once_across_formats(self):
        """Baselines have no tournament shape: a format sweep must not
        re-run them once per format under distinct campaign IDs."""
        grid = CampaignGrid(
            apps=("redis",), strategies=("DarwinGame", "BLISS"),
            seeds=(0,), scale="test",
            formats=("darwin", "knockout", "round_robin_playoffs"),
        )
        specs = list(grid.specs())
        assert grid.size == len(specs) == 3 + 1  # 3 shapes + BLISS once
        bliss = [s for s in specs if s.strategy == "BLISS"]
        assert len(bliss) == 1
        assert bliss[0].format == "darwin"
        # The lone BLISS cell keeps its pre-axis (formatless) campaign ID.
        formatless = CampaignSpec(app="redis", strategy="BLISS", seed=0,
                                  scale="test")
        assert bliss[0].campaign_id == formatless.campaign_id


class TestFormatCLI:
    def test_tune_with_format(self, capsys):
        rc = main(["tune", "--app", "redis", "--scale", "test",
                   "--format", "knockout"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "knockout" in out

    def test_tune_rejects_unknown_format(self, capsys):
        rc = main(["tune", "--app", "redis", "--scale", "test",
                   "--format", "nope"])
        assert rc == 2
        assert "unknown tournament format" in capsys.readouterr().out

    def test_sweep_and_report_by_format(self, tmp_path, capsys):
        store = tmp_path / "fmt.jsonl"
        rc = main([
            "sweep", "--apps", "redis", "--seeds", "0", "--scale", "test",
            "--eval-runs", "10", "--formats", "darwin,knockout",
            "--store", str(store), "--quiet",
        ])
        assert rc == 0
        rc = main(["report", str(store), "--by-format"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "by format" in out
        assert "knockout" in out

    def test_sweep_rejects_unknown_format(self, capsys):
        rc = main([
            "sweep", "--apps", "redis", "--formats", "nope",
            "--store", "unused.jsonl",
        ])
        assert rc == 2
        assert "unknown tournament format" in capsys.readouterr().out
