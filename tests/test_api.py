"""The stable ``repro.api`` facade: validation, submission, reads, wire."""

import json

import pytest

from repro import api
from repro.campaigns import CampaignGrid, open_store
from repro.cli import main
from repro.errors import ReproError


def _grid(**overrides):
    base = dict(
        apps=("redis",), strategies=("DarwinGame",), seeds=(0, 1),
        scale="test", eval_runs=10,
    )
    base.update(overrides)
    return CampaignGrid(**base)


def _stable_rows(store_path):
    """Every stored record's stable payload, sorted — the bit-identity form."""
    return sorted(
        json.dumps(r.stable_payload(), sort_keys=True)
        for r in open_store(str(store_path)).records()
    )


class TestValidateGrid:
    def test_valid_grid_passes_through(self):
        grid = _grid()
        assert api.validate_grid(grid) is grid

    @pytest.mark.parametrize("overrides, needle", [
        (dict(apps=("redis", "nginx")), "unknown applications"),
        (dict(strategies=("Nope",)), "unknown strategies"),
        (dict(vms=("v5.tiny",)), "unknown VM presets"),
        (dict(scenarios=("tsunami",)), "unknown scenarios"),
        (dict(formats=("bracketology",)), "unknown tournament formats"),
        (dict(scale="smoke"), "unknown scale"),
        (dict(eval_runs=0), "eval_runs must be >= 2"),
        (dict(seeds=()), "at least one seed"),
        (dict(eval_runs=1), r"eval_runs must be >= 2, got 1 \(fix --eval-runs\)"),
        (dict(seeds=(0, -1)), r"seeds must be >= 0, got \[-1\] \(fix --seeds\)"),
        (dict(apps=()), r"at least one entry in apps \(fix --apps\)"),
        (dict(strategies=()),
         r"at least one entry in strategies \(fix --strategies\)"),
        (dict(vms=()), r"at least one entry in vms \(fix --vms\)"),
        (dict(scenarios=()),
         r"at least one entry in scenarios \(fix --scenarios\)"),
        (dict(formats=(), strategies=("BLISS",)),
         r"at least one entry in formats \(fix --formats\)"),
        (dict(start_time_step=float("nan")), "start_time_step must be a finite"),
        (dict(start_time_step=float("inf")), "start_time_step must be a finite"),
        (dict(start_time_step=-1.0), "start_time_step must be a finite"),
        (dict(seeds=(0, 1, 2), start_time_step=1e308), "infinite start time"),
        # A repeated entry enumerates its campaigns twice; before, the
        # grid validated and the runner refused it once the job had run.
        (dict(apps=("redis", "redis")),
         r"apps names \['redis'\] more than once.*\(fix --apps\)"),
        (dict(strategies=("BLISS", "DarwinGame", "BLISS")),
         r"strategies names \['BLISS'\].*\(fix --strategies\)"),
        (dict(vms=("m5.large", "m5.large")),
         r"vms names \['m5.large'\].*\(fix --vms\)"),
        (dict(scenarios=("steady", "bursty", "steady")),
         r"scenarios names \['steady'\].*\(fix --scenarios\)"),
        (dict(formats=("darwin", "darwin")),
         r"formats names \['darwin'\].*\(fix --formats\)"),
        (dict(vms=({"name": "c", "vcpus": 8, "family": "m5"},
                   {"family": "m5", "vcpus": 8, "name": "c"})),
         r"vms names .* more than once.*\(fix --vms\)"),
        (dict(seeds=(0, 1, 0), start_time_step=0.0),
         r"seeds names \[0\] more than once.*\(fix --seeds\)"),
        # How far a grid reaches into simulated time is bounded.
        (dict(eval_runs=10_001),
         r"eval_runs must be at most 10000, got 10001 \(fix --eval-runs\)"),
        (dict(seeds=(0, 1), start_time_step=1e9 + 1),
         r"start time 1000000001 s, past the 1000000000 s .* \(fix --seeds\)"),
        (dict(seeds=tuple(range(3860))),
         r"last of 3860 seeds.*start time 1000252800 s.*\(fix --seeds\)"),
    ])
    def test_each_axis_is_gated_before_dispatch(self, overrides, needle):
        with pytest.raises(ReproError, match=needle):
            api.validate_grid(_grid(**overrides))

    @pytest.mark.parametrize("overrides", [
        dict(seeds=(0, 0, 1)),
        dict(eval_runs=10_000),
        dict(seeds=(0, 1), start_time_step=1e9),
        dict(seeds=tuple(range(3859))),
    ], ids=["repeated-seeds", "most-eval-runs", "last-start-at-limit",
            "most-default-seeds"])
    def test_bounds_are_inclusive(self, overrides):
        """Repeated seeds start at different times, so they are distinct
        campaigns; each bound admits its own value."""
        grid = _grid(**overrides)
        assert api.validate_grid(grid) is grid
        ids = [spec.campaign_id for spec in grid.specs()]
        assert len(set(ids)) == len(ids) == grid.size

    def test_message_names_the_flag_to_fix(self):
        with pytest.raises(ReproError, match=r"\(fix --apps\)"):
            api.validate_grid(_grid(apps=("redis", "nginx")))

    def test_extended_strategies_are_supported(self):
        for name in ("ThompsonSampling", "GeneticAlgorithm"):
            assert name in api.SUPPORTED_STRATEGIES
            api.validate_grid(_grid(strategies=(name,)))


class TestSubmitGrid:
    def test_blocking_submit_with_store(self, tmp_path):
        store = tmp_path / "s.jsonl"
        job = api.submit_grid(_grid(), store=str(store))
        assert job.done and job.state == "done"
        report = job.result()
        assert report.executed == 2 and not report.failures
        assert store.exists()

    def test_storeless_submit_keeps_results_in_memory(self):
        job = api.submit_grid(_grid(seeds=(0,)))
        assert job.store is None
        records = list(api.iter_results(job))
        assert len(records) == 1 and records[0].ok

    def test_invalid_grid_rejected_before_any_work(self, tmp_path):
        store = tmp_path / "s.jsonl"
        with pytest.raises(ReproError, match="unknown applications"):
            api.submit_grid(_grid(apps=("nope",)), store=str(store))
        assert not store.exists()

    def test_resubmission_resumes_from_the_store(self, tmp_path):
        store = tmp_path / "s.jsonl"
        api.submit_grid(_grid(), store=str(store))
        report = api.submit_grid(_grid(), store=str(store)).result()
        assert report.executed == 0 and report.skipped == 2

    def test_runner_refusing_its_options_fails_the_job(self):
        """Telemetry needs a store to journal into, so the runner refuses;
        the job used to stay `running` with no error."""
        job = api.JobHandle(_grid(), api.SweepOptions(telemetry=True))
        with pytest.raises(ReproError, match="derives its path") as raised:
            job.execute()
        assert job.state == "failed" and job.error is raised.value

    def test_job_id_is_content_hashed_and_salted(self):
        a, b = _grid(), _grid()
        assert api.job_id_for(a) == api.job_id_for(b)
        assert api.job_id_for(a) != api.job_id_for(_grid(seeds=(0,)))
        assert api.job_id_for(a, salt="t1") != api.job_id_for(a, salt="t2")

    def test_facade_sweep_bit_identical_to_cli_sweep(self, tmp_path):
        cli_store = tmp_path / "cli.jsonl"
        assert main([
            "sweep", "--apps", "redis", "--seeds", "0,1", "--scale", "test",
            "--eval-runs", "10", "--store", str(cli_store), "--quiet",
        ]) == 0
        api_store = tmp_path / "api.jsonl"
        api.submit_grid(_grid(), store=str(api_store))
        assert _stable_rows(api_store) == _stable_rows(cli_store)


class TestReadSide:
    @pytest.fixture()
    def job(self, tmp_path):
        return api.submit_grid(
            _grid(scenarios=("steady", "bursty")),
            store=str(tmp_path / "s.jsonl"),
        )

    def test_status_snapshot(self, job):
        snap = api.job_status(job)
        assert snap.done == 4 and snap.total == 4

    def test_iter_results_is_sorted_and_paginated(self, job):
        everything = list(api.iter_results(job))
        ids = [r.campaign_id for r in everything]
        assert ids == sorted(ids) and len(ids) == 4
        page = list(api.iter_results(job, offset=1, limit=2))
        assert [r.campaign_id for r in page] == ids[1:3]
        assert list(api.iter_results(job, offset=99)) == []

    def test_iter_results_rejects_bad_pagination(self, job):
        with pytest.raises(ReproError, match="offset"):
            list(api.iter_results(job, offset=-1))

    def test_fetch_report_views_and_render(self, job):
        for view in api.REPORT_VIEWS:
            summary = api.fetch_report(job, view=view)
            assert isinstance(summary.to_payload(), dict)
            assert isinstance(summary.table(), str)
        with pytest.raises(ReproError, match="unknown report view"):
            api.fetch_report(job, view="pie-chart")

    def test_read_side_accepts_store_paths_too(self, job):
        snap = api.job_status(str(job.store.path))
        assert snap.done == 4


class TestWireFormat:
    def test_schema_errors_carry_json_paths(self):
        with pytest.raises(api.SchemaError, match=r"\$\.grid\.seeds\[0\]"):
            api.validate_payload(
                {"grid": {"apps": ["redis"], "seeds": ["zero"]}},
                api.SWEEP_REQUEST_SCHEMA,
            )

    def test_unknown_request_keys_rejected(self):
        with pytest.raises(api.SchemaError, match="unknown key"):
            api.validate_payload(
                {"grid": {"apps": ["redis"]}, "store": "/etc/passwd"},
                api.SWEEP_REQUEST_SCHEMA,
            )

    def test_grid_round_trips_through_payload(self):
        grid = _grid(scenarios=("steady", "bursty"))
        assert api.grid_from_payload(grid.to_dict()) == grid

    @pytest.mark.parametrize("key", [
        "strategies", "vms", "seeds", "scenarios", "formats",
    ])
    def test_empty_axis_is_a_schema_error(self, key):
        with pytest.raises(api.SchemaError, match=rf"\$\.grid\.{key}: needs"):
            api.grid_from_payload({"apps": ["redis"], key: []})

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"),
    ], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("schema, key", [
        (api.GRID_SCHEMA, "start_time_step"),
        (api.OPTIONS_SCHEMA, "backoff"),
        (api.OPTIONS_SCHEMA, "task_timeout"),
    ], ids=["start_time_step", "backoff", "task_timeout"])
    def test_non_finite_float_is_no_number(self, schema, key, value):
        """NaN would pass every ``minimum`` check, and +inf the ones it has."""
        payload = {key: value}
        if schema is api.GRID_SCHEMA:
            payload["apps"] = ["redis"]
        with pytest.raises(api.SchemaError, match=rf"{key}: expected number"):
            api.validate_payload(payload, schema)

    def test_wedging_request_is_refused(self):
        """Accepted before: its second campaign failed on the negative start
        time and the retry waited ``now + inf``, forever."""
        grid = {"apps": ["redis"], "scale": "test", "seeds": [0, 1],
                "start_time_step": -1e9, "eval_runs": 5}
        with pytest.raises(api.SchemaError, match="below minimum 0"):
            api.grid_from_payload(grid)
        with pytest.raises(api.SchemaError, match="backoff: expected number"):
            api.options_from_payload(
                {"backoff": float("inf"), "jobs": 2, "max_retries": 1}
            )

    @pytest.mark.parametrize("fields, flag", [
        (dict(backoff=float("inf")), "--backoff"),
        (dict(backoff=float("nan")), "--backoff"),
        (dict(backoff=-0.5), "--backoff"),
        (dict(task_timeout=float("inf")), "--task-timeout"),
        (dict(task_timeout=float("nan")), "--task-timeout"),
        (dict(backoff=60.001), "--backoff"),
        (dict(backoff=1e300), "--backoff"),
        (dict(task_timeout=None), "--task-timeout"),
    ], ids=["backoff-inf", "backoff-nan", "backoff-negative",
            "task-timeout-inf", "task-timeout-nan", "backoff-over-60",
            "backoff-1e300", "task-timeout-none"])
    def test_sweep_options_need_finite_knobs(self, fields, flag):
        with pytest.raises(ReproError, match=rf"finite.*\(fix {flag}\)"):
            api.SweepOptions(**fields)

    @pytest.mark.parametrize("fields, flag", [
        (dict(jobs=0), "--jobs"),
        (dict(jobs=257), "--jobs"),
        (dict(max_retries=-1), "--max-retries"),
        (dict(max_retries=float("inf")), "--max-retries"),
        (dict(max_retries=float("nan")), "--max-retries"),
        (dict(max_retries=2.5), "--max-retries"),
        (dict(jobs=2.5), "--jobs"),
        (dict(jobs=True), "--jobs"),
    ], ids=["jobs-0", "jobs-257", "max-retries-negative", "max-retries-inf",
            "max-retries-nan", "max-retries-2.5", "jobs-2.5", "jobs-true"])
    def test_sweep_options_bound_workers_and_retries(self, fields, flag):
        """Only the runner checked these, so `serve` listened with them as
        defaults; `jobs` is capped because the dispatcher forks one worker
        per eligible campaign.  Both are counts: with an infinite retry
        budget, a campaign that always fails was retried forever."""
        with pytest.raises(ReproError, match=rf"\(fix {flag}\)$"):
            api.SweepOptions(**fields)

    def test_jobs_bound_over_the_wire(self):
        assert api.SweepOptions(jobs=256).jobs == 256
        assert api.options_from_payload({"jobs": 256}).jobs == 256
        with pytest.raises(ReproError, match=r"in \[1, 256\], got 257"):
            api.options_from_payload({"jobs": 257})

    def test_options_merge_over_defaults(self):
        defaults = api.SweepOptions(telemetry=True, jobs=4)
        merged = api.options_from_payload({"jobs": 2}, defaults=defaults)
        assert merged.jobs == 2 and merged.telemetry is True

    @pytest.mark.parametrize("payload, named", [
        ({"store": "evil.jsonl"}, r"unknown key\(s\) \['store'\]"),
        ({"exec_mode": "stacked"}, r"unknown key\(s\) \['exec_mode'\]"),
        ({"shards": 4}, r"unknown key\(s\) \['shards'\]"),
        ({"store_backend": "sqlite"}, r"unknown key\(s\) \['store_backend'\]"),
    ], ids=["store", "exec_mode", "shards", "store_backend"])
    def test_options_payload_cannot_name_a_store(self, payload, named):
        """No wire option places a store, or selects the removed executor or
        store backends."""
        with pytest.raises(api.SchemaError, match=named):
            api.validate_payload(payload, api.OPTIONS_SCHEMA)
