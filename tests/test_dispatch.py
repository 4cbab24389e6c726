"""The lease/heartbeat dispatcher: ledger state machine, worker death, chaos."""

import json

import pytest

from repro.campaigns import (
    CampaignGrid,
    CampaignRunner,
    CampaignSpec,
    CampaignStore,
    SweepOptions,
    TaskLedger,
    summarise_failures,
)
from repro.campaigns.dispatch import (
    LEASE_DONE,
    LEASE_PENDING,
    LEASE_QUARANTINED,
    MAX_RETRY_DELAY,
    quarantine_record,
    retry_delay,
    worker_lost_message,
)
from repro.campaigns.store import (
    SIDECAR_LEDGER,
    STATUS_DONE,
    STATUS_FAILED,
    CampaignRecord,
)
from repro.errors import ReproError, RetryExhausted
from repro.faults import FaultPlan


def _stable(records):
    """Order-insensitive canonical form (store files are completion-ordered
    under --jobs; record contents are what the convergence contract covers)."""
    return json.dumps(
        [r.stable_payload()
         for r in sorted(records, key=lambda r: r.campaign_id)],
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def small_grid():
    return CampaignGrid(apps=("redis",), seeds=(0, 1), scale="test",
                        eval_runs=5)


@pytest.fixture(scope="module")
def clean_records(small_grid):
    runner = CampaignRunner(SweepOptions(jobs=1))
    return runner.run(small_grid.specs()).records


class TestTaskLedger:
    def test_lease_complete_cycle(self):
        ledger = TaskLedger(["a", "b"])
        assert ledger.eligible(now=0.0) == ["a", "b"]
        assert ledger.lease("a", worker=0, now=0.0) == 1
        assert ledger.eligible(now=0.0) == ["b"]
        ledger.complete("a")
        assert ledger.record("a").status == LEASE_DONE
        assert ledger.unfinished()  # b still pending
        ledger.lease("b", worker=1, now=0.0)
        ledger.complete("b")
        assert not ledger.unfinished()
        assert ledger.retries() == 0

    def test_requeue_applies_exponential_backoff(self):
        ledger = TaskLedger(["a"], max_retries=3, backoff=0.5)
        ledger.lease("a", worker=0, now=10.0)
        assert ledger.requeue("a", "boom", now=10.0) == "retry"
        record = ledger.record("a")
        assert record.status == LEASE_PENDING
        assert record.next_eligible == pytest.approx(10.5)  # 0.5 * 2**0
        assert ledger.eligible(now=10.0) == []
        assert ledger.eligible(now=10.6) == ["a"]
        ledger.lease("a", worker=0, now=10.6)
        ledger.requeue("a", "boom", now=10.6)
        assert record.next_eligible == pytest.approx(11.6)  # 0.5 * 2**1
        assert ledger.next_eligible_at() == pytest.approx(11.6)
        assert ledger.retries() == 1

    def test_budget_exhaustion_quarantines(self):
        ledger = TaskLedger(["a"], max_retries=1, backoff=0.0)
        ledger.lease("a", worker=0, now=0.0)
        assert ledger.requeue("a", "x", now=0.0) == "retry"
        ledger.lease("a", worker=0, now=0.0)
        assert ledger.requeue("a", "x", now=0.0) == LEASE_QUARANTINED
        assert ledger.record("a").status == LEASE_QUARANTINED
        assert not ledger.unfinished()  # quarantine is terminal

    def test_cannot_lease_twice(self):
        ledger = TaskLedger(["a"])
        ledger.lease("a", worker=0, now=0.0)
        with pytest.raises(ReproError, match="cannot lease"):
            ledger.lease("a", worker=1, now=0.0)
        with pytest.raises(ReproError, match="already in the ledger"):
            ledger.register("a")

    def test_journal_round_trip(self, tmp_path):
        path = tmp_path / "sweep.jsonl.ledger"
        ledger = TaskLedger(["a"], journal_path=path, max_retries=0)
        ledger.lease("a", worker=3, now=0.0)
        ledger.heartbeat("a", now=0.5)
        ledger.requeue("a", "died horribly", now=1.0)
        events = TaskLedger.read_events(path)
        assert [e["event"] for e in events] == [
            "leased", "heartbeat", "quarantined",
        ]
        assert events[0]["worker"] == 3
        assert events[-1]["error"] == "died horribly"
        # A truncated tail (crash mid-append) is tolerated.
        with path.open("a") as handle:
            handle.write('{"kind": "lease_event", "trunca')
        assert len(TaskLedger.read_events(path)) == 3

    def test_deeply_nested_line_is_skipped(self, tmp_path):
        """A line nested past the JSON decoder's limit (100,000 levels:
        past it on every interpreter CI runs) is skipped as damage."""
        path = tmp_path / "deep.ledger"
        ledger = TaskLedger(["a", "b"], journal_path=path, max_retries=0)
        ledger.lease("a", worker=1, now=0.0)
        with path.open("ab") as handle:
            handle.write(b"[" * 100_000 + b"]" * 100_000 + b"\n")
        ledger.lease("b", worker=2, now=1.0)
        events = TaskLedger.read_events(path)
        assert [e["event"] for e in events] == ["leased", "leased"]

    def test_journal_truncated_at_every_byte_offset(self, tmp_path):
        """Regression: a journal cut at ANY byte offset must parse.

        Truncation inside the *first* line used to be the dangerous case —
        and cutting inside a multi-byte UTF-8 character (the error text
        below has one) raised ``UnicodeDecodeError`` before a single line
        was parsed, instead of being skipped like any other torn line.
        """
        path = tmp_path / "torn.ledger"
        ledger = TaskLedger(["café-0"], journal_path=path, max_retries=0)
        ledger.lease("café-0", worker=1, now=0.0)
        ledger.requeue("café-0", "exposé café failure — naïve worker", now=1.0)
        intact = path.read_bytes()
        events = TaskLedger.read_events(path)
        assert [e["event"] for e in events] == ["leased", "quarantined"]
        offsets = {0: 0, len(intact): 2}
        for cut in range(len(intact) + 1):
            path.write_bytes(intact[:cut])
            parsed = TaskLedger.read_events(path)  # must never raise
            assert len(parsed) <= 2
            for event, expected in zip(parsed, events):
                assert event == expected  # prefix property: intact lines only
            if cut in offsets:
                assert len(parsed) == offsets[cut]

    def test_bad_policy_rejected(self):
        with pytest.raises(ReproError):
            TaskLedger(max_retries=-1)
        with pytest.raises(ReproError):
            TaskLedger(backoff=-0.5)

    def test_quarantine_record_stamps_retry_history(self):
        spec = CampaignSpec(app="redis", scale="test", eval_runs=5)
        raw = CampaignRecord(
            spec=spec, status=STATUS_FAILED, error="ValueError: boom",
            attempts=3,
        )
        stamped = quarantine_record(raw)
        assert stamped.error.startswith("RetryExhausted: gave up after 3")
        assert "ValueError: boom" in stamped.error
        assert stamped.attempts == 3 and not stamped.ok

    def test_settle_completes_retries_and_quarantines(self):
        """One call decides every attempt's outcome, inline and dispatched."""
        spec = CampaignSpec(app="redis", scale="test", eval_runs=5)
        cid = spec.campaign_id

        def failed(attempt):
            return CampaignRecord(
                spec=spec, status=STATUS_FAILED, error="ValueError: boom",
                attempts=attempt,
            )

        ledger = TaskLedger([cid], max_retries=1, backoff=0.5)
        attempt = ledger.lease(cid, worker=0, now=0.0)
        assert ledger.settle(failed(attempt), now=1.0) is None
        assert ledger.record(cid).status == LEASE_PENDING
        assert ledger.next_eligible_at() == 1.5
        attempt = ledger.lease(cid, worker=1, now=2.0)
        quarantined = ledger.settle(failed(attempt), now=3.0)
        assert quarantined.error.startswith(
            "RetryExhausted: gave up after 2 attempt(s); last error: "
            "ValueError: boom"
        )
        assert not quarantined.ok and quarantined.attempts == 2
        assert ledger.record(cid).status == LEASE_QUARANTINED

        ledger = TaskLedger([cid])
        attempt = ledger.lease(cid, worker=0, now=0.0)
        done = CampaignRecord(spec=spec, status=STATUS_DONE, attempts=attempt)
        assert ledger.settle(done, now=1.0) is done
        assert ledger.record(cid).status == LEASE_DONE
        assert not ledger.unfinished()


class TestRetryDelay:
    """Retry k waits backoff * 2**(k-1) seconds, never more than 60."""

    def test_doubles_up_to_the_ceiling(self):
        assert [retry_delay(0.5, k) for k in (1, 2, 3, 7)] == [
            0.5, 1.0, 2.0, 32.0,
        ]
        assert retry_delay(0.5, 8) == MAX_RETRY_DELAY == 60.0
        assert retry_delay(0.0, 10**6) == 0.0

    @pytest.mark.parametrize("retry", [1025, 1100, 2000, 10**9])
    def test_never_overflows(self, retry):
        for backoff in (1e-300, 0.1, 60.0, 1e300):
            assert retry_delay(backoff, retry) == MAX_RETRY_DELAY
        # The smallest float doubles 1074 times to 1.0 and 1080 past 60.
        assert retry_delay(5e-324, 1075) == 1.0
        assert retry_delay(5e-324, retry + 80) == MAX_RETRY_DELAY

    def test_ledger_requeue_at_attempt_40_is_due_within_60s(self):
        """Before, attempt 40 came due 0.1 * 2**39 s (1.7 millennia) on."""
        ledger = TaskLedger(["a"], max_retries=100, backoff=0.1)
        for _ in range(40):
            ledger.lease("a", worker=0, now=0.0)
            ledger.requeue("a", "boom", now=0.0)
        assert ledger.record("a").attempts == 40
        assert ledger.next_eligible_at() == MAX_RETRY_DELAY
        assert ledger.eligible(now=60.0) == ["a"]

    def test_inline_retries_never_sleep_past_60s(self, monkeypatch):
        """Before, 30 retries slept up to 0.1 * 2**29 s (1.7 years)."""
        spec = CampaignSpec(app="redis", scale="test", eval_runs=5)
        plan = FaultPlan(targets={spec.campaign_id: ("transient",) * 30})
        slept = []
        monkeypatch.setattr(
            "repro.campaigns.runner.time.sleep", slept.append
        )
        report = CampaignRunner(
            SweepOptions(jobs=1, max_retries=30, fault_plan=plan)
        ).run([spec])
        assert report.records[0].ok and report.retries == 30
        assert len(slept) == 30 and max(slept) == MAX_RETRY_DELAY
        assert slept[:3] == [0.1, 0.2, 0.4]

    @pytest.mark.parametrize("backoff", [60.5, 1e300])
    def test_runner_refuses_a_backoff_past_the_ceiling(self, backoff):
        with pytest.raises(ReproError, match=r"\(fix --backoff\)"):
            CampaignRunner(SweepOptions(backoff=backoff))


class TestWorkerDeath:
    """A hard-killed worker must not kill the sweep — under either start
    method (fork's pipe EOF semantics differ from spawn's)."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_sigkilled_worker_is_retried_and_sweep_converges(
        self, start_method, tmp_path, small_grid, clean_records,
        pin_start_method,
    ):
        specs = list(small_grid.specs())
        victim = specs[0].campaign_id
        store = CampaignStore(tmp_path / f"{start_method}.jsonl")
        plan = FaultPlan(targets={victim: ("sigkill",)})
        pin_start_method(start_method)
        report = CampaignRunner(
            SweepOptions(jobs=2, backoff=0.05, fault_plan=plan), store=store
        ).run(specs)
        assert all(r.ok for r in report.records)
        assert report.retries >= 1
        by_id = {r.campaign_id: r for r in report.records}
        assert by_id[victim].attempts == 2
        # Converged results are the fault-free results.
        assert _stable(report.records) == _stable(clean_records)
        assert _stable(store.records()) == _stable(clean_records)
        # The worker-loss diagnosis reached the lease journal.
        events = TaskLedger.read_events(store.sidecar_path(SIDECAR_LEDGER))
        requeues = [e for e in events if e["event"] == "requeued"]
        assert requeues and "WorkerLost" in requeues[0]["error"]

    def test_hard_crash_mid_sweep_is_retried(self, small_grid, clean_records):
        specs = list(small_grid.specs())
        plan = FaultPlan(targets={specs[1].campaign_id: ("crash",)})
        report = CampaignRunner(
            SweepOptions(jobs=2, backoff=0.05, fault_plan=plan)
        ).run(specs)
        assert all(r.ok for r in report.records)
        assert report.retries >= 1
        assert _stable(report.records) == _stable(clean_records)


class TestHangsAndTimeouts:
    def test_hung_campaign_is_killed_and_retried(
        self, small_grid, clean_records
    ):
        specs = list(small_grid.specs())
        plan = FaultPlan(
            targets={specs[0].campaign_id: ("hang",)}, hang_seconds=60.0
        )
        report = CampaignRunner(SweepOptions(
            jobs=2, backoff=0.05, task_timeout=1.0, fault_plan=plan
        )).run(specs)
        assert all(r.ok for r in report.records)
        assert report.retries >= 1
        assert _stable(report.records) == _stable(clean_records)

    def test_timeout_exhaustion_quarantines_with_timeout_error(
        self, small_grid
    ):
        specs = list(small_grid.specs())
        victim = specs[0].campaign_id
        plan = FaultPlan(targets={victim: ("hang",) * 2}, hang_seconds=60.0)
        report = CampaignRunner(SweepOptions(
            jobs=2, backoff=0.05, max_retries=1, task_timeout=0.5,
            fault_plan=plan,
        )).run(specs)
        bad = [r for r in report.records if not r.ok]
        assert [r.campaign_id for r in bad] == [victim]
        assert bad[0].error.startswith("RetryExhausted")
        assert "CampaignTimeout" in bad[0].error
        with pytest.raises(RetryExhausted):
            report.raise_on_failure()


class TestQuarantine:
    def test_sweep_completes_around_a_hopeless_campaign(
        self, small_grid, clean_records
    ):
        specs = list(small_grid.specs())
        victim = specs[0].campaign_id
        plan = FaultPlan(targets={victim: ("transient",) * 5})
        report = CampaignRunner(
            SweepOptions(jobs=2, backoff=0.0, max_retries=1, fault_plan=plan)
        ).run(specs)
        by_id = {r.campaign_id: r for r in report.records}
        assert not by_id[victim].ok
        assert by_id[victim].error.startswith("RetryExhausted")
        assert by_id[victim].attempts == 2  # 1 + max_retries
        # Every other campaign still finished with its fault-free result.
        survivors = [r for r in report.records if r.campaign_id != victim]
        clean = [r for r in clean_records if r.campaign_id != victim]
        assert _stable(survivors) == _stable(clean)
        summary = summarise_failures(report.records)
        assert summary.failed == 1 and summary.rows[0].quarantined
        assert summary.total_retries == report.retries

    def test_inline_and_dispatched_quarantine_identically(self, small_grid):
        specs = list(small_grid.specs())
        plan = FaultPlan(rate=1.0, kinds=("transient",), max_faults=3, seed=5)
        inline = CampaignRunner(
            SweepOptions(jobs=1, backoff=0.0, max_retries=0, fault_plan=plan)
        ).run(specs)
        dispatched = CampaignRunner(
            SweepOptions(jobs=2, backoff=0.0, max_retries=0, fault_plan=plan)
        ).run(specs)
        assert json.dumps([r.to_payload() for r in inline.records],
                          sort_keys=True) \
            == json.dumps([r.to_payload() for r in dispatched.records],
                          sort_keys=True)


class TestStoreFaults:
    def test_append_faults_are_retried_transparently(
        self, tmp_path, small_grid, clean_records
    ):
        store = CampaignStore(tmp_path / "s.jsonl")
        plan = FaultPlan(rate=0.0, store_rate=1.0)
        report = CampaignRunner(
            SweepOptions(jobs=1, backoff=0.0, fault_plan=plan), store=store
        ).run(small_grid.specs())
        assert all(r.ok for r in report.records)
        assert _stable(store.records()) == _stable(clean_records)


class TestLedgerSidecar:
    def test_parallel_sweep_journals_next_to_the_store(
        self, tmp_path, small_grid
    ):
        store = CampaignStore(tmp_path / "sweep.jsonl")
        runner = CampaignRunner(SweepOptions(jobs=2), store=store)
        runner.run(small_grid.specs())
        path = store.sidecar_path(SIDECAR_LEDGER)
        assert path == tmp_path / "sweep.jsonl.ledger"
        events = TaskLedger.read_events(path)
        assert sum(1 for e in events if e["event"] == "completed") == 2
        assert all(e["kind"] == "lease_event" for e in events)

    def test_storeless_sweep_keeps_ledger_in_memory(self, small_grid):
        report = CampaignRunner(SweepOptions(jobs=2)).run(small_grid.specs())
        assert all(r.ok for r in report.records)


class TestThroughputReporting:
    def test_zero_wall_reports_zero_not_inf(self):
        from repro.campaigns import SweepReport

        report = SweepReport(records=[], executed=0, skipped=4,
                             wall_seconds=0.0, jobs=2)
        assert report.campaigns_per_minute == 0.0

    def test_retries_default_to_zero(self):
        from repro.campaigns import SweepReport

        report = SweepReport(records=[], executed=1, skipped=0,
                             wall_seconds=1.0, jobs=1)
        assert report.retries == 0
