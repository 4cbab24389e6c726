"""Campaign subsystem: specs, store, runner, parallel & resume determinism."""

import json

import pytest

from repro.campaigns import (
    CampaignGrid,
    CampaignRecord,
    CampaignRunner,
    CampaignSpec,
    CampaignStore,
    SweepOptions,
    parallel_map,
    repeat_specs,
    summarise,
)
from repro.errors import ReproError
from repro.experiments.table1 import table1_grid


def _payloads(records):
    """Canonical byte-comparable form of a record list."""
    return json.dumps([r.to_payload() for r in records], sort_keys=True)


@pytest.fixture(scope="module")
def small_grid():
    return CampaignGrid(
        apps=("redis", "gromacs"), seeds=(0, 1), scale="test", eval_runs=10
    )


@pytest.fixture(scope="module")
def serial_records(small_grid):
    runner = CampaignRunner(SweepOptions(jobs=1))
    return runner.run(small_grid.specs()).records


class TestCampaignSpec:
    def test_id_is_stable(self):
        a = CampaignSpec(app="redis", seed=3, scale="test")
        b = CampaignSpec(app="redis", seed=3, scale="test")
        assert a.campaign_id == b.campaign_id

    def test_id_distinguishes_every_field(self):
        base = CampaignSpec(app="redis", seed=3, scale="test")
        variants = [
            CampaignSpec(app="lammps", seed=3, scale="test"),
            CampaignSpec(app="redis", seed=4, scale="test"),
            CampaignSpec(app="redis", seed=3, scale="bench"),
            CampaignSpec(app="redis", seed=3, scale="test", strategy="BLISS"),
            CampaignSpec(app="redis", seed=3, scale="test", vm="m5.large"),
            CampaignSpec(app="redis", seed=3, scale="test", eval_runs=7),
            CampaignSpec(app="redis", seed=3, scale="test", start_time=1.0),
            CampaignSpec(app="redis", seed=3, scale="test", tuner_seed=9),
        ]
        ids = {v.campaign_id for v in variants}
        assert base.campaign_id not in ids
        assert len(ids) == len(variants)

    def test_round_trip(self):
        spec = CampaignSpec(app="ffmpeg", strategy="BLISS", seed=5, tag="x")
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.campaign_id == spec.campaign_id

    def test_custom_vmspec_survives_the_runner(self):
        """A non-preset VMSpec must run like it did pre-campaign-layer."""
        from dataclasses import replace

        from repro.campaigns.spec import (
            vm_display_name,
            vm_from_field,
            vm_to_field,
        )
        from repro.cloud.vm import PRESETS

        custom = replace(PRESETS["m5.8xlarge"], name="onprem-box")
        field = vm_to_field(custom)
        assert isinstance(field, dict)
        assert vm_from_field(field) == custom
        assert vm_to_field(PRESETS["m5.large"]) == "m5.large"

        spec = CampaignSpec(app="redis", vm=field, scale="test", eval_runs=5)
        report = CampaignRunner(SweepOptions(jobs=1)).run([spec])
        assert report.records[0].ok
        assert vm_display_name(report.records[0].spec.vm) == "onprem-box"


class TestCampaignGrid:
    def test_size_and_unique_ids(self, small_grid):
        specs = list(small_grid.specs())
        assert len(specs) == small_grid.size == 4
        assert len({s.campaign_id for s in specs}) == 4

    def test_start_times_step_per_seed(self, small_grid):
        specs = [s for s in small_grid.specs() if s.app == "redis"]
        assert specs[0].start_time == 0.0
        assert specs[1].start_time == pytest.approx(3.0 * 86400.0)

    def test_round_trip(self, small_grid):
        assert CampaignGrid.from_dict(small_grid.to_dict()) == small_grid

    def test_table1_grid_covers_all_apps(self):
        grid = table1_grid(scale="test", seeds=(0, 1))
        assert grid.size == 8
        assert set(grid.apps) == {"redis", "gromacs", "ffmpeg", "lammps"}


class TestRunnerSerial:
    def test_records_align_with_specs(self, small_grid, serial_records):
        specs = list(small_grid.specs())
        assert [r.campaign_id for r in serial_records] == [
            s.campaign_id for s in specs
        ]
        assert all(r.ok for r in serial_records)
        assert all(r.evaluation is not None for r in serial_records)
        assert all(r.result is not None for r in serial_records)

    def test_matches_the_protocol_played_by_hand(self):
        """Runner campaigns equal the protocol played step by step: a
        fresh environment from the spec, the tuner, then the evaluation."""
        from repro.apps import make_application
        from repro.campaigns.spec import vm_from_field
        from repro.cloud import CloudEnvironment
        from repro.tuners import BlissLike

        app = make_application("redis", scale="test")
        specs = repeat_specs(
            "redis", "BLISS", repeats=2, scale="test", seed=4, eval_runs=10
        )
        by_hand = []
        for spec in specs:
            env = CloudEnvironment(
                vm_from_field(spec.vm), seed=spec.seed,
                start_time=spec.start_time,
            )
            result = BlissLike(seed=spec.tuner_seed).tune(app, env)
            by_hand.append((
                result.best_index,
                env.measure_choice(app, result.best_index, runs=spec.eval_runs),
            ))
        runner = CampaignRunner(SweepOptions(jobs=1))
        report = runner.run(specs).raise_on_failure()
        assert [(r.best_index, r.evaluation) for r in report.records] == by_hand

    def test_duplicate_specs_rejected(self):
        spec = CampaignSpec(app="redis", scale="test")
        with pytest.raises(ReproError):
            CampaignRunner().run([spec, spec])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ReproError):
            CampaignRunner(SweepOptions(jobs=0))
        # Capped, since the dispatcher forks a worker per campaign up to
        # `jobs`; building a runner starts no worker.
        with pytest.raises(ReproError, match=r"got 257 \(fix --jobs\)"):
            CampaignRunner(SweepOptions(jobs=257))
        assert CampaignRunner(SweepOptions(jobs=256)).options.jobs == 256


class TestFailureIsolation:
    def test_one_crash_does_not_kill_the_sweep(self):
        bad = CampaignSpec(app="redis", strategy="NoSuchTuner", scale="test",
                           eval_runs=5)
        good = CampaignSpec(app="redis", scale="test", eval_runs=5)
        report = CampaignRunner(SweepOptions(jobs=1)).run([bad, good])
        assert [r.status for r in report.records] == ["failed", "done"]
        assert "NoSuchTuner" in report.records[0].error
        assert report.records[0].evaluation is None
        with pytest.raises(ReproError):
            report.raise_on_failure()

    def test_failed_record_summarised_not_aggregated(self):
        bad = CampaignSpec(app="redis", strategy="NoSuchTuner", scale="test",
                           eval_runs=5)
        good = CampaignSpec(app="redis", scale="test", eval_runs=5)
        report = CampaignRunner(SweepOptions(jobs=1)).run([bad, good])
        summary = summarise(report.records)
        assert summary.failed == 1 and summary.done == 1
        row = summary.rows[0] if summary.rows[0].failures else summary.rows[1]
        assert row.campaigns == 1  # cells are per-strategy; the bad one
        assert "FAILED" in summary.table()


class TestParallelDeterminism:
    def test_jobs2_bit_identical_to_serial(self, small_grid, serial_records):
        runner = CampaignRunner(SweepOptions(jobs=2))
        parallel = runner.run(small_grid.specs()).records
        assert _payloads(parallel) == _payloads(serial_records)

    def test_order_independent(self, small_grid, serial_records):
        reversed_specs = list(small_grid.specs())[::-1]
        report = CampaignRunner(SweepOptions(jobs=2)).run(reversed_specs)
        assert _payloads(report.records[::-1]) == _payloads(serial_records)

    def test_progress_counts_every_campaign(self, small_grid):
        seen = []
        runner = CampaignRunner(
            SweepOptions(jobs=2), progress=lambda k, n, r: seen.append((k, n))
        )
        runner.run(small_grid.specs())
        assert sorted(seen) == [(1, 4), (2, 4), (3, 4), (4, 4)]


class TestSpawnStartMethod:
    """The fallback path ``_pool_context`` picks on non-fork platforms."""

    def test_spawn_pool_bit_identical_to_serial(
        self, small_grid, serial_records, pin_start_method
    ):
        pin_start_method("spawn")
        report = CampaignRunner(SweepOptions(jobs=2)).run(small_grid.specs())
        assert _payloads(report.records) == _payloads(serial_records)


class TestStoreLock:
    """Two concurrent sweeps must not interleave appends into one store."""

    def test_concurrent_sweep_rejected_while_locked(self, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        spec = CampaignSpec(app="redis", scale="test", eval_runs=5)
        with store.exclusive():
            with pytest.raises(ReproError, match="locked by another"):
                CampaignRunner(SweepOptions(jobs=1), store=store).run([spec])

    def test_lock_released_after_run(self, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        spec = CampaignSpec(app="redis", scale="test", eval_runs=5)
        CampaignRunner(SweepOptions(jobs=1), store=store).run([spec])
        # The runner released its lock, so a new sweep acquires it cleanly.
        report = CampaignRunner(SweepOptions(jobs=1), store=store).run([spec])
        assert report.skipped == 1

    def test_lock_released_even_when_run_raises(self, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        spec = CampaignSpec(app="redis", scale="test", eval_runs=5)

        def explode(k, n, r):
            raise RuntimeError("progress callback crashed")

        runner = CampaignRunner(
            SweepOptions(jobs=1), store=store, progress=explode
        )
        with pytest.raises(RuntimeError):
            runner.run([spec])
        with store.exclusive():  # acquirable again => released above
            pass

    def test_double_acquire_same_object_rejected(self, tmp_path):
        lock = CampaignStore(tmp_path / "s.jsonl").exclusive()
        with lock:
            with pytest.raises(ReproError, match="already held"):
                lock.acquire()

    def test_plain_readers_are_not_blocked(self, tmp_path, serial_records):
        store = CampaignStore(tmp_path / "s.jsonl")
        for record in serial_records:
            store.append(record)
        with store.exclusive():
            assert len(store.records()) == len(serial_records)

    def test_contention_error_names_the_holder(self, tmp_path):
        import os

        store = CampaignStore(tmp_path / "s.jsonl")
        with store.exclusive():
            with pytest.raises(ReproError, match=f"pid {os.getpid()}"):
                store.exclusive().acquire()

    def test_runner_writes_grid_header_inside_the_lock(
        self, small_grid, tmp_path
    ):
        store = CampaignStore(tmp_path / "s.jsonl")
        CampaignRunner(SweepOptions(jobs=1), store=store).run(
            list(small_grid.specs())[:1], grid=small_grid
        )
        assert store.read_grid() == small_grid


class TestStore:
    def test_round_trip(self, small_grid, serial_records, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        store.write_grid(small_grid)
        for record in serial_records:
            store.append(record)
        assert store.read_grid() == small_grid
        assert _payloads(store.records()) == _payloads(serial_records)
        assert store.completed_ids() == {
            r.campaign_id for r in serial_records
        }

    def test_truncated_tail_tolerated(self, serial_records, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        for record in serial_records[:2]:
            store.append(record)
        with store.path.open("a") as handle:
            handle.write('{"kind": "campaign_record", "trunca')
        assert len(store.records()) == 2

    def test_last_write_wins(self, serial_records, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        record = serial_records[0]
        failed = CampaignRecord(spec=record.spec, status="failed", error="x")
        store.append(failed)
        store.append(record)
        records = store.records()
        assert len(records) == 1 and records[0].ok

    def test_failed_campaigns_are_retried_on_resume(self, tmp_path):
        spec = CampaignSpec(app="redis", scale="test", eval_runs=5)
        store = CampaignStore(tmp_path / "s.jsonl")
        store.append(CampaignRecord(spec=spec, status="failed", error="boom"))
        assert store.completed_ids() == set()
        report = CampaignRunner(store=store).run([spec])
        assert report.skipped == 0 and report.records[0].ok

    def test_grid_header_not_overwritten(self, small_grid, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        store.write_grid(small_grid)
        other = CampaignGrid(apps=("lammps",), scale="test")
        store.write_grid(other)
        assert store.read_grid() == small_grid


class TestSummariseOrdering:
    def test_record_order_does_not_change_bytes(self, serial_records):
        """Store files are completion-ordered under --jobs; the aggregate
        must not depend on that order (float reductions are order-sensitive,
        so summarise sorts each cell by campaign ID first)."""
        forward = summarise(serial_records).to_json()
        assert summarise(serial_records[::-1]).to_json() == forward


class TestResumeDeterminism:
    """ISSUE 2 acceptance: interrupt + resume == uninterrupted serial run."""

    def test_resume_skips_stored_and_matches_serial(
        self, small_grid, serial_records, tmp_path
    ):
        specs = list(small_grid.specs())
        store = CampaignStore(tmp_path / "s.jsonl")
        store.write_grid(small_grid)
        # Simulated interruption: only the first two campaigns got stored.
        interrupted = CampaignRunner(SweepOptions(jobs=1), store=store).run(
            specs[:2]
        )
        assert interrupted.executed == 2
        # Resume the full grid in parallel; stored campaigns must be skipped.
        resumed = CampaignRunner(SweepOptions(jobs=2), store=store).run(specs)
        assert resumed.skipped == 2
        assert resumed.executed == 2
        # Byte-identical records and aggregate vs the uninterrupted run.
        assert _payloads(resumed.records) == _payloads(serial_records)
        assert (
            summarise(resumed.records).to_json()
            == summarise(serial_records).to_json()
        )

    def test_second_resume_runs_nothing(self, small_grid, tmp_path):
        specs = list(small_grid.specs())
        store = CampaignStore(tmp_path / "s.jsonl")
        CampaignRunner(SweepOptions(jobs=1), store=store).run(specs)
        again = CampaignRunner(SweepOptions(jobs=2), store=store).run(specs)
        assert again.executed == 0 and again.skipped == len(specs)


def _exit_hard(item):
    """A task that kills its worker without reporting back (module-level so
    spawn can pickle it)."""
    import os

    os._exit(1)


class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(str, [3, 1, 2], jobs=2) == ["3", "1", "2"]

    def test_serial_fallback(self):
        assert parallel_map(str, [1], jobs=8) == ["1"]

    def test_rejects_bad_jobs(self, monkeypatch):
        """Bounded like a sweep's workers, before any pool is built: with
        no bound, 100000 jobs asked the pool for one worker per item."""
        from repro.campaigns import runner

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
        for jobs in (0, 257, 100000):
            with pytest.raises(ReproError, match=rf"{jobs} \(fix --jobs\)"):
                parallel_map(str, [1, 2], jobs=jobs)

    def test_honours_start_method(self, pin_start_method):
        """The pool path under the spawn start method non-fork platforms
        get."""
        pin_start_method("spawn")
        assert parallel_map(str, [3, 1, 2], jobs=2) == ["3", "1", "2"]

    def test_dead_worker_raises_worker_lost(self):
        from repro.errors import WorkerLost

        with pytest.raises(WorkerLost, match="died without reporting back"):
            parallel_map(_exit_hard, [1, 2], jobs=2)
