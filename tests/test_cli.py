"""Tests for the command-line interface."""

import pytest

from repro import api
from repro.campaigns import CampaignGrid, open_store
from repro.cli import _options_from_args, build_parser, main


def _refused(argv, capsys) -> str:
    """Run ``argv``; require exit 2 and one error line, and return it."""
    code = main(argv)
    captured = capsys.readouterr()
    output = captured.out + captured.err
    assert code == 2 and "Traceback" not in output
    assert len(output.strip().splitlines()) == 1
    return output.strip()


_NOTES = "# Notes\n\nA text file, not a campaign store.\n"


def _no_daemon(monkeypatch) -> None:
    """Make ``repro serve`` return instead of binding, had it got that far."""
    import repro.service

    monkeypatch.setattr(repro.service, "serve", lambda config: 0)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.app == "redis"
        assert args.strategy == "DarwinGame"

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--app", "postgres"])

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--name", "fig99"])

    @pytest.mark.parametrize("argv", [
        ["store", "migrate", "a.jsonl", "b.sqlite"],
        ["sweep", "--store-backend", "sqlite"],
        ["serve", "--store-backend", "jsonl"],
    ], ids=["store-migrate", "sweep-store-backend", "serve-store-backend"])
    def test_removed_store_backend_knobs_rejected(self, argv):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(argv)
        assert exited.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sweep"], ["resume", "s.jsonl"], ["serve"],
    ], ids=["sweep", "resume", "serve"])
    def test_execution_defaults_are_the_sweep_options(self, argv):
        """The flags take their defaults from `SweepOptions`' fields."""
        args = build_parser().parse_args(argv)
        assert _options_from_args(args) == api.SweepOptions()

    def test_tune_strategy_choices_are_the_supported_strategies(self):
        tune = build_parser()._subparsers._group_actions[0].choices["tune"]
        (strategy,) = [a for a in tune._actions if a.dest == "strategy"]
        assert tuple(strategy.choices) == tuple(api.SUPPORTED_STRATEGIES)


class TestCommands:
    def test_tune_runs(self, capsys):
        code = main(["tune", "--app", "redis", "--scale", "test", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "DarwinGame on redis" in out
        assert "Chosen configuration" in out

    def test_compare_runs(self, capsys):
        code = main([
            "compare", "--app", "redis", "--scale", "test",
            "--strategies", "Optimal,DarwinGame",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Optimal" in out and "DarwinGame" in out

    def test_compare_rejects_unknown_strategy(self, capsys):
        code = main([
            "compare", "--app", "redis", "--scale", "test",
            "--strategies", "Optimal,SkyNet",
        ])
        assert code == 2

    def test_experiment_stability(self, capsys):
        code = main([
            "experiment", "--name", "stability", "--scale", "test",
            "--repeats", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pick stability" in out

    @pytest.mark.parametrize(
        "name", ["fig10", "stability", "statistical", "scenarios"]
    )
    def test_experiment_without_repeats_is_one_line_exit_two(self, name, capsys):
        _refused([
            "experiment", "--name", name, "--scale", "test", "--repeats", "0",
        ], capsys)

    @pytest.mark.parametrize("name", ["fig10", "scenarios", "formats"])
    def test_experiment_bad_scale_is_refused_before_any_campaign(
        self, name, capsys, monkeypatch
    ):
        import repro.experiments

        def no_campaigns(*args, **kwargs):
            raise AssertionError("an experiment ran despite a bad --scale")

        for runner in ("run_headline", "run_format_power"):
            monkeypatch.setattr(f"repro.cli.{runner}", no_campaigns)
        monkeypatch.setattr(
            repro.experiments, "run_scenario_robustness", no_campaigns
        )
        line = _refused(
            ["experiment", "--name", name, "--scale", "nonsense"], capsys
        )
        assert line.endswith("(fix --scale)")

    def test_experiment_negative_seed_is_refused_before_any_campaign(
        self, capsys, monkeypatch
    ):
        def no_campaigns(*args, **kwargs):
            raise AssertionError("an experiment ran despite a negative --seed")

        monkeypatch.setattr("repro.cli.run_stability", no_campaigns)
        line = _refused([
            "experiment", "--name", "stability", "--scale", "test",
            "--seed", "-2",
        ], capsys)
        assert line.endswith("(fix --seed)")

    @pytest.mark.parametrize("jobs", ["0", "257", "100000"])
    @pytest.mark.parametrize("name", ["formats", "sensitivity", "fig10"])
    def test_experiment_bad_jobs_is_refused_before_any_campaign(
        self, name, jobs, capsys, monkeypatch
    ):
        """`formats` asked its pool for one worker per trial, and
        `sensitivity`, which runs serially, ignored --jobs."""
        def no_campaigns(*args, **kwargs):
            raise AssertionError("an experiment ran despite a bad --jobs")

        for study in ("run_format_power", "run_headline", "run_sensitivity"):
            monkeypatch.setattr(f"repro.cli.{study}", no_campaigns)
        line = _refused([
            "experiment", "--name", name, "--scale", "test", "--jobs", jobs,
        ], capsys)
        assert line.endswith("(fix --jobs)")

    def test_sweep_non_integer_seeds_is_one_line_exit_two(self, capsys, tmp_path):
        store = tmp_path / "s.jsonl"
        line = _refused([
            "sweep", "--apps", "redis", "--seeds", "a,b", "--scale", "test",
            "--store", str(store),
        ], capsys)
        assert line.endswith("(fix --seeds)") and not store.exists()

    @pytest.mark.parametrize("content", [None, "", "{not json"],
                             ids=["missing", "empty", "not-json"])
    def test_report_unreadable_archive_is_one_line_exit_two(
        self, content, capsys, tmp_path
    ):
        archive = tmp_path / "campaign.json"
        if content is not None:
            archive.write_text(content)
        assert str(archive) in _refused(["report", str(archive)], capsys)

    @pytest.mark.parametrize("flag, value", [
        ("--quota-max-active", "0"),
        ("--quota-max-active", "-1"),
        ("--quota-core-hours", "-5"),
    ], ids=["max-active-0", "max-active-negative", "core-hours-negative"])
    def test_serve_quota_refusing_every_job_is_one_line_exit_two(
        self, flag, value, capsys, tmp_path, monkeypatch
    ):
        _no_daemon(monkeypatch)
        data_root = tmp_path / "serve.d"
        line = _refused(
            ["serve", flag, value, "--data-root", str(data_root)], capsys
        )
        assert line.endswith(f"(fix {flag})") and not data_root.exists()

    @pytest.mark.parametrize("command", ["sweep", "serve"])
    @pytest.mark.parametrize("flag, value", [
        ("--jobs", "0"), ("--max-retries", "-1"),
    ], ids=["jobs-0", "max-retries-negative"])
    def test_bad_worker_settings_are_one_line_exit_two(
        self, command, flag, value, capsys, tmp_path, monkeypatch
    ):
        """Only the runner checked these: `serve` bound and listened with
        them, and every job it accepted stayed `running`."""
        _no_daemon(monkeypatch)
        store, data_root = tmp_path / "s.jsonl", tmp_path / "serve.d"
        argv = {
            "sweep": ["sweep", "--apps", "redis", "--scale", "test",
                      "--store", str(store)],
            "serve": ["serve", "--data-root", str(data_root)],
        }[command]
        line = _refused([*argv, flag, value], capsys)
        assert line.endswith(f"(fix {flag})")
        assert not store.exists() and not data_root.exists()

    @pytest.mark.parametrize("port", ["-1", "70000"])
    def test_serve_port_out_of_range_is_one_line_exit_two(
        self, port, capsys, tmp_path
    ):
        data_root = tmp_path / "serve.d"
        line = _refused(
            ["serve", "--port", port, "--data-root", str(data_root)], capsys
        )
        assert line.endswith("(fix --port)") and not data_root.exists()

    def test_table1(self, capsys):
        code = main(["table1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "redis" in out and "lammps" in out

    def test_compare_with_statistical_baselines(self, capsys):
        code = main([
            "compare", "--app", "redis", "--scale", "test",
            "--strategies", "QuantileRegression,ThompsonSampling",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "QuantileRegression" in out and "ThompsonSampling" in out

    def test_experiment_formats(self, capsys):
        code = main(["experiment", "--name", "formats", "--scale", "test"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Swiss" in out and "RoundRobin" in out

    def test_experiment_shift(self, capsys):
        code = main(["experiment", "--name", "shift", "--scale", "test"])
        out = capsys.readouterr().out
        assert code == 0
        assert "distribution shift" in out
        assert "DarwinGame" in out

    @pytest.mark.parametrize("name", ["shift", "sensitivity"])
    def test_experiment_hands_jobs_to_the_study(self, name, monkeypatch):
        """Both studies accepted --jobs and ran with one worker.  The
        command builds one runner from --jobs, and a campaign study runs
        through that runner, not one of its own."""
        import repro.cli as cli
        import repro.experiments.sensitivity as sensitivity
        from repro.campaigns import CampaignRunner, parallel_map

        built, seen = [], []

        class RecordingRunner(CampaignRunner):
            def __init__(self, options=None, **kwargs):
                super().__init__(options, **kwargs)
                built.append(self)

            def run(self, specs, **kwargs):
                seen.append(self.options.jobs)
                return super().run(specs, **kwargs)

        def recording_map(fn, items, *, jobs=1):
            seen.append(jobs)
            return parallel_map(fn, items, jobs=jobs)

        monkeypatch.setattr(cli, "CampaignRunner", RecordingRunner)
        monkeypatch.setattr(sensitivity, "parallel_map", recording_map)
        code = main([
            "experiment", "--name", name, "--scale", "test", "--jobs", "2",
        ])
        assert code == 0 and seen == [2]
        assert [runner.options.jobs for runner in built] == [2]

    def test_experiment_statistical(self, capsys):
        code = main([
            "experiment", "--name", "statistical", "--scale", "test",
            "--repeats", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "statistical baselines" in out

    def test_tune_with_heuristic_strategy(self, capsys):
        code = main([
            "tune", "--app", "redis", "--scale", "test",
            "--strategy", "GeneticAlgorithm",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "GeneticAlgorithm on redis" in out

    def test_tune_save_archives_the_tuning_result(self, capsys, tmp_path):
        from repro import CloudEnvironment, DarwinGame, DarwinGameConfig
        from repro.apps import make_application
        from repro.cloud.vm import PRESETS

        store = tmp_path / "tune.jsonl"
        assert main([
            "tune", "--app", "redis", "--scale", "test", "--seed", "1",
            "--save", str(store),
        ]) == 0
        (record,) = open_store(store).records()
        result = record.result
        tuned = DarwinGame(DarwinGameConfig(seed=1)).tune(
            make_application("redis", scale="test"),
            CloudEnvironment(PRESETS["m5.8xlarge"], seed=1),
        )
        assert result.evaluations == tuned.evaluations > 0
        assert result.details["regional"] == tuned.details["regional"]

    def test_tune_save_and_report(self, capsys, tmp_path):
        store = str(tmp_path / "tune.jsonl")
        code = main([
            "tune", "--app", "redis", "--scale", "test", "--seed", "2",
            "--save", store,
        ])
        assert code == 0
        (mean_time,) = [
            line.split("|")[1].strip()
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("mean cloud exec time")
        ]
        code = main(["report", store])
        out = capsys.readouterr().out
        assert code == 0
        assert "DarwinGame" in out
        # The store's summary row carries the tuned campaign's mean time.
        assert "exec time (s)" in out and f"| {mean_time} " in out

    def test_tune_save_store_is_the_one_cell_sweep_store(self, capsys, tmp_path):
        tuned, swept = tmp_path / "tune.jsonl", tmp_path / "one.jsonl"
        assert main([
            "tune", "--app", "redis", "--scale", "test", "--seed", "1",
            "--scenario", "bursty", "--format", "knockout", "--save", str(tuned),
        ]) == 0
        assert main([
            "sweep", "--apps", "redis", "--seeds", "1", "--scale", "test",
            "--scenarios", "bursty", "--formats", "knockout",
            "--store", str(swept),
        ]) == 0
        assert tuned.read_bytes() == swept.read_bytes()

    def test_failed_campaign_is_logged_and_exits_one(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.campaigns.runner

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(repro.campaigns.runner, "_run_protocol", boom)
        store = tmp_path / "tune.jsonl"
        code = main([
            "tune", "--app", "redis", "--scale", "test", "--save", str(store),
        ])
        out = capsys.readouterr().out
        assert code == 1 and "Traceback" not in out
        assert "failed: " in out and "RuntimeError: boom" in out
        # One attempt, stored as failed, so `resume` can retry it.
        (record,) = open_store(store).records()
        assert not record.ok and record.attempts == 1

    def test_tune_negative_seed_is_one_line_exit_two(self, capsys):
        line = _refused(["tune", "--scale", "test", "--seed", "-1"], capsys)
        assert line.endswith("(fix --seeds)")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--apps", "redis", "--scale", "test", "--store"],
        ["status"], ["report"], ["store", "info"], ["resume"],
    ], ids=["sweep", "status", "report", "store-info", "resume"])
    def test_store_commands_refuse_a_non_store_file(self, argv, capsys, tmp_path):
        notes = tmp_path / "notes.md"
        notes.write_text(_NOTES)
        line = _refused([*argv, str(notes)], capsys)
        assert line.startswith(f"{notes} is not a campaign store")
        assert notes.read_text() == _NOTES

    def test_report_views_are_exclusive(self, capsys, tmp_path):
        store = tmp_path / "s.jsonl"
        open_store(store).write_grid(CampaignGrid(apps=("redis",), scale="test"))
        with pytest.raises(SystemExit) as exited:
            main(["report", str(store), "--failures", "--by-format"])
        assert exited.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", [
        "apps", "strategies", "vms", "scenarios", "formats",
    ])
    def test_empty_axis_is_one_line_exit_two(self, axis, capsys, tmp_path):
        """Before, ``--strategies ,`` stored a grid of 0 campaigns, printed
        ``0/0 campaigns done`` and exited 0."""
        store = tmp_path / "s.jsonl"
        argv = ["sweep", "--apps", "redis", "--scale", "test",
                "--strategies", "BLISS", "--store", str(store)]
        line = _refused([*argv, f"--{axis}", ","], capsys)
        assert line.endswith(f"(fix --{axis})")
        assert not store.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_non_finite_backoff_is_one_line_exit_two(
        self, value, jobs, capsys, tmp_path
    ):
        """Before, ``inf`` hung ``--jobs 2`` (a retry due at now + inf) and
        ended ``--jobs 1`` in an OverflowError from ``time.sleep``."""
        store = tmp_path / "s.jsonl"
        line = _refused([
            "sweep", "--apps", "redis", "--scale", "test", "--seeds", "0,1",
            "--jobs", jobs, "--backoff", value, "--inject-faults",
            "seed=1,rate=1.0,kinds=transient,max=1", "--store", str(store),
        ], capsys)
        assert line.endswith("(fix --backoff)")
        assert not store.exists()

    @pytest.mark.parametrize("hang", ["inf", "nan"])
    def test_non_finite_hang_is_one_line_exit_two(self, hang, capsys, tmp_path):
        """Before, each worker's ``time.sleep`` raised at once on the
        "hang", which became an ordinary failure; the sweep exited 0."""
        store = tmp_path / "s.jsonl"
        line = _refused([
            "sweep", "--apps", "redis", "--scale", "test", "--eval-runs", "5",
            "--seeds", "0,1", "--jobs", "2", "--max-retries", "1",
            "--inject-faults", f"seed=1,rate=1.0,kinds=hang,max=1,hang={hang}",
            "--store", str(store),
        ], capsys)
        assert "bad --inject-faults plan: hang_seconds must be a finite" in line
        assert not store.exists()

    @pytest.mark.parametrize("flags, hint", [
        (["--apps", "redis,redis"], "--apps"),
        (["--strategies", "BLISS,BLISS"], "--strategies"),
        (["--vms", "m5.large,m5.large"], "--vms"),
        (["--scenarios", "steady,steady"], "--scenarios"),
        (["--formats", "darwin,darwin"], "--formats"),
        (["--backoff", "1e300"], "--backoff"),
        (["--backoff", "61"], "--backoff"),
        (["--eval-runs", "100000"], "--eval-runs"),
        (["--seeds", ",".join(map(str, range(3860)))], "--seeds"),
    ], ids=["apps", "strategies", "vms", "scenarios", "formats",
            "backoff-1e300", "backoff-61", "eval-runs", "seeds-reach"])
    def test_repeated_entry_and_unbounded_reach_exit_two(
        self, flags, hint, capsys, tmp_path
    ):
        """Before, a repeated entry failed inside the runner with no hint,
        ``--backoff 1e300`` hung ``--jobs 2``, and the evaluation runs and
        the last seed's start had no upper bound."""
        store = tmp_path / "s.jsonl"
        argv = ["sweep", "--apps", "redis", "--scale", "test", "--seeds",
                "0,1", "--jobs", "2", "--inject-faults",
                "seed=1,rate=1.0,kinds=transient,max=1", "--store", str(store)]
        line = _refused([*argv, *flags], capsys)
        assert line.endswith(f"(fix {hint})")
        assert not store.exists()

    def test_stored_grid_past_a_bound_does_not_resume(self, capsys, tmp_path):
        store = tmp_path / "s.jsonl"
        open_store(store).write_grid(
            CampaignGrid(apps=("redis",), scale="test", eval_runs=20_000)
        )
        before = store.read_bytes()
        line = _refused(["resume", str(store)], capsys)
        assert line.endswith("(fix --eval-runs)")
        assert store.read_bytes() == before

    @pytest.mark.parametrize("command", ["sweep", "resume", "serve"])
    def test_negative_task_timeout_is_one_line_exit_two(
        self, command, capsys, tmp_path, monkeypatch
    ):
        _no_daemon(monkeypatch)
        store, data_root = tmp_path / "s.jsonl", tmp_path / "serve.d"
        if command == "resume":
            open_store(store).write_grid(
                CampaignGrid(apps=("redis",), scale="test")
            )
        before = store.read_bytes() if store.exists() else None
        argv = {
            "sweep": ["sweep", "--apps", "redis", "--scale", "test",
                      "--store", str(store)],
            "resume": ["resume", str(store)],
            "serve": ["serve", "--data-root", str(data_root)],
        }[command]
        line = _refused([*argv, "--task-timeout", "-1"], capsys)
        assert line.endswith("(fix --task-timeout)")
        assert (store.read_bytes() if store.exists() else None) == before
        assert not data_root.exists()
