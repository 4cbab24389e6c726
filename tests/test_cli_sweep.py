"""CLI coverage for the sweep / resume / report subcommands."""

import pytest

from repro.cli import main


def _sweep_args(store, *, seeds="0,1", jobs="1"):
    return [
        "sweep", "--apps", "redis", "--seeds", seeds, "--scale", "test",
        "--eval-runs", "10", "--jobs", jobs, "--store", str(store), "--quiet",
    ]


class TestSweepCli:
    def test_sweep_runs_and_reports(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        assert main(_sweep_args(store, jobs="2")) == 0
        out = capsys.readouterr().out
        assert "redis" in out and "2/2 campaigns done" in out
        assert store.exists()

    def test_sweep_rejects_unknown_strategy(self, tmp_path):
        args = _sweep_args(tmp_path / "s.jsonl") + ["--strategies", "Nope"]
        assert main(args) == 2

    def test_resume_skips_completed(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        main(_sweep_args(store))
        capsys.readouterr()
        assert main(["resume", str(store), "--jobs", "2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "executed 0, skipped 2" in out

    def test_resume_finishes_interrupted_sweep(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        # A one-seed sweep stores a grid-of-one...
        main(_sweep_args(store, seeds="0"))
        # ...simulate the *same* grid having been interrupted by rewriting
        # the header: resume re-enumerates two seeds, one already stored.
        lines = store.read_text().splitlines()
        lines[0] = lines[0].replace('"seeds": [0]', '"seeds": [0, 1]')
        store.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["resume", str(store), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "executed 1, skipped 1" in out

    def test_resume_without_store_errors(self, tmp_path):
        assert main(["resume", str(tmp_path / "missing.jsonl")]) == 2

    def test_report_on_store(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        main(_sweep_args(store))
        capsys.readouterr()
        assert main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "2/2 campaigns done" in out

    def test_report_flags_pending_campaigns(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        main(_sweep_args(store, seeds="0"))
        lines = store.read_text().splitlines()
        lines[0] = lines[0].replace('"seeds": [0]', '"seeds": [0, 1]')
        store.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", str(store)]) == 0
        assert "still pending" in capsys.readouterr().out

    def test_report_still_reads_single_campaign_archives(self, tmp_path, capsys):
        path = tmp_path / "one.jsonl"
        assert main([
            "tune", "--app", "redis", "--scale", "test", "--seed", "1",
            "--save", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        assert "DarwinGame" in capsys.readouterr().out

    @pytest.mark.parametrize("view", ["by-scenario", "by-format", "failures"])
    def test_report_views_read_a_tune_store(self, view, tmp_path, capsys):
        path = tmp_path / "one.jsonl"
        assert main([
            "tune", "--app", "redis", "--scale", "test", "--seed", "1",
            "--save", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(path), f"--{view}"]) == 0
        title = f"sweep {path} {view.replace('-', ' ')}"
        assert title in capsys.readouterr().out

    def test_experiment_jobs_flag(self, capsys):
        assert main([
            "experiment", "--name", "fig15", "--scale", "test", "--jobs", "2",
        ]) == 0
        assert "m5" in capsys.readouterr().out


class TestScenarioCli:
    def test_sweep_with_scenarios_axis(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        args = _sweep_args(store) + ["--scenarios", "steady,bursty"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4/4 campaigns done" in out

    def test_sweep_rejects_unknown_scenario(self, tmp_path, capsys):
        args = _sweep_args(tmp_path / "s.jsonl") + ["--scenarios", "tsunami"]
        assert main(args) == 2
        assert "unknown scenarios" in capsys.readouterr().out

    def test_steady_rows_byte_identical_to_scenarioless_sweep(self, tmp_path):
        import json

        plain = tmp_path / "plain.jsonl"
        mixed = tmp_path / "mixed.jsonl"
        assert main(_sweep_args(plain)) == 0
        assert main(
            _sweep_args(mixed, jobs="2") + ["--scenarios", "steady,bursty"]
        ) == 0

        def records(path, scenario):
            return sorted(
                line for line in path.read_text().splitlines()
                if json.loads(line).get("kind") == "campaign_record"
                and json.loads(line)["spec"]["scenario"] == scenario
            )

        assert records(plain, "steady") == records(mixed, "steady")
        assert len(records(mixed, "bursty")) == 2

    def test_resume_finishes_interrupted_scenario_sweep(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        assert main(
            _sweep_args(store) + ["--scenarios", "steady,preemptible"]
        ) == 0
        full = store.read_text()
        # Interrupt: drop the last finished campaign, then resume.
        store.write_text("".join(full.splitlines(keepends=True)[:-1]))
        capsys.readouterr()
        assert main(["resume", str(store), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "executed 1, skipped 3" in out
        # The re-run campaign reproduces the dropped record byte for byte.
        assert sorted(store.read_text().splitlines()) \
            == sorted(full.splitlines())

    def test_report_by_scenario(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        main(_sweep_args(store) + ["--scenarios", "steady,drift"])
        capsys.readouterr()
        assert main(["report", str(store), "--by-scenario"]) == 0
        out = capsys.readouterr().out
        assert "scenario" in out and "drift" in out and "steady" in out
        assert "vs DarwinGame %" in out

    def test_tune_accepts_scenario(self, capsys):
        assert main([
            "tune", "--app", "redis", "--scale", "test", "--seed", "1",
            "--scenario", "bursty",
        ]) == 0
        assert "bursty" in capsys.readouterr().out

    def test_tune_rejects_unknown_scenario(self, capsys):
        assert main([
            "tune", "--app", "redis", "--scale", "test",
            "--scenario", "tsunami",
        ]) == 2
        assert "unknown scenario" in capsys.readouterr().out


class TestFaultToleranceCli:
    def test_chaos_sweep_converges_and_exits_zero(self, tmp_path, capsys):
        import json

        clean = tmp_path / "clean.jsonl"
        chaos = tmp_path / "chaos.jsonl"
        assert main(_sweep_args(clean)) == 0
        capsys.readouterr()
        assert main(_sweep_args(chaos, jobs="2") + [
            "--inject-faults", "seed=7,rate=1.0,kinds=crash+transient,max=1",
            "--max-retries", "3", "--backoff", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "2/2 campaigns done" in out
        retries = int(out.split(" retries,")[0].rsplit(" ", 1)[-1])
        assert retries > 0

        def stable(path):
            rows = []
            for line in path.read_text().splitlines():
                payload = json.loads(line)
                if payload.get("kind") != "campaign_record":
                    continue
                payload.pop("attempts", None)
                payload.pop("traceback", None)
                rows.append(json.dumps(payload, sort_keys=True))
            return sorted(rows)

        assert stable(chaos) == stable(clean)

    def test_bad_fault_plan_rejected(self, tmp_path, capsys):
        args = _sweep_args(tmp_path / "s.jsonl") + [
            "--inject-faults", "kinds=meteor",
        ]
        assert main(args) == 2
        assert "bad --inject-faults plan" in capsys.readouterr().out

    def test_quarantined_sweep_exits_one_and_reports_failures(
        self, tmp_path, capsys
    ):
        store = tmp_path / "s.jsonl"
        assert main(_sweep_args(store, seeds="0,1", jobs="2") + [
            "--inject-faults", "rate=1.0,kinds=transient,max=3",
            "--max-retries", "0", "--backoff", "0",
        ]) == 1
        out = capsys.readouterr().out
        assert "failures" in out and "RetryExhausted" in out
        capsys.readouterr()
        assert main(["report", str(store), "--failures"]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out and "2/2 campaigns failed" in out

    def test_resume_retries_quarantined_campaigns(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        # Quarantine everything, then resume without faults: the failures
        # re-run (completed_ids excludes them) and converge.
        main(_sweep_args(store) + [
            "--inject-faults", "rate=1.0,kinds=transient,max=3",
            "--max-retries", "0", "--backoff", "0",
        ])
        capsys.readouterr()
        assert main(["resume", str(store), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "executed 2, skipped 0" in out and "2/2 campaigns done" in out


class TestNoSurfaceCacheCli:
    """The disk surface cache is gone: its flag and its subcommand are
    argparse errors, refused before any store is written or port bound."""

    @pytest.mark.parametrize("argv, error", [
        (["sweep", "--apps", "redis", "--scale", "test", "--cache-dir", "d",
          "--store", "s.jsonl"], "unrecognized arguments: --cache-dir d"),
        (["resume", "s.jsonl", "--cache-dir", "d"],
         "unrecognized arguments: --cache-dir d"),
        (["serve", "--port", "0", "--data-root", "serve.d",
          "--cache-dir", "d"], "unrecognized arguments: --cache-dir d"),
        (["cache", "info"], "invalid choice: 'cache'"),
    ], ids=["sweep", "resume", "serve", "cache-info"])
    def test_exits_two_before_any_work(
        self, argv, error, tmp_path, monkeypatch, capsys
    ):
        import socket

        def no_bind(sock, address):
            raise AssertionError(f"bound {address}")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(socket.socket, "bind", no_bind)
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        last = captured.err.splitlines()[-1]
        assert ": error: " in last and error in last
        assert list(tmp_path.iterdir()) == []


class TestUnopenableStore:
    """A store the CLI cannot open is one error line and exit 2."""

    @pytest.fixture(params=["garbage-sqlite", "directory"])
    def bad_store(self, request, tmp_path):
        if request.param == "directory":
            path = tmp_path / "sweep.d"
            path.mkdir()
            (path / "grid.jsonl").write_text("")
        else:
            path = tmp_path / "broken.sqlite"
            path.write_bytes(b"SQLite format 3\x00 but then nonsense")
        return path

    @pytest.mark.parametrize(
        "command", [["status"], ["report"], ["store", "info"], ["resume"]],
        ids=["status", "report", "store-info", "resume"],
    )
    def test_one_line_and_exit_two(self, bad_store, command, capsys):
        assert main(command + [str(bad_store)]) == 2
        captured = capsys.readouterr()
        output = captured.out + captured.err
        assert "Traceback" not in output
        lines = output.strip().splitlines()
        assert len(lines) == 1 and str(bad_store) in lines[0]
        if bad_store.is_dir():
            assert "awk 1 " in lines[0]
        else:
            assert "SELECT payload FROM campaign_records ORDER BY rowid" in lines[0]
