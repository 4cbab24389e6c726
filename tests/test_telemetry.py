"""The observability layer: event bus, metrics, status fusion, logging.

The two contracts everything here defends:

* **never affect results** — a telemetry-enabled sweep stores records
  byte-identical to a telemetry-off sweep, serial or parallel, faulted or
  clean;
* **never lie** — replaying the ``.telemetry`` sidecar reproduces the
  same done/failed/retry counts as ``report --failures`` computes from
  the store itself, even after workers were SIGKILLed mid-write.
"""

import json
import logging
import pstats
import time

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
from repro.campaigns.store import (
    SIDECAR_LEDGER,
    SIDECAR_TELEMETRY,
    STATUS_DONE,
    STATUS_FAILED,
    CampaignRecord,
)
from repro.cli import main
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.telemetry import (
    BufferEmitter,
    JsonlEmitter,
    MetricsRegistry,
    TelemetryEvent,
    configure_logging,
    counter,
    emit_event,
    gauge,
    get_logger,
    read_telemetry,
    render_status,
    render_store_metrics,
    reset_telemetry,
    set_emitter,
    sidecar_counts,
    snapshot,
    span,
    telemetry_enabled,
    watch,
)
from repro.telemetry.events import iter_jsonl_payloads
from repro.telemetry.status import LiveProgress, ewma_interval


def _stable(records):
    return json.dumps(
        [r.stable_payload()
         for r in sorted(records, key=lambda r: r.campaign_id)],
        sort_keys=True,
    )


def _full(records):
    """Byte-level form *including* attempt metadata — the strictest
    comparison, valid whenever no faults were injected."""
    return json.dumps(
        [r.to_payload()
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


class TestEventBus:
    def test_disabled_by_default_and_emits_nothing(self, tmp_path):
        assert not telemetry_enabled()
        # No emitter installed: these must be pure no-ops.
        counter("cache.hit", tier="disk")
        gauge("sweep.retries", 3.0)
        with span("campaign.execute", campaign="c1"):
            pass

    def test_buffer_round_trip(self):
        buffer = BufferEmitter()
        set_emitter(buffer)
        assert telemetry_enabled()
        counter("faults.injected", kind="sigkill", campaign="c1", attempt=2)
        gauge("sweep.campaigns_total", 8.0)
        with span("campaign.execute", campaign="c1", attempt=1):
            pass
        events = buffer.events()
        assert [e.type for e in events] == ["counter", "gauge", "span"]
        fault = events[0]
        assert fault.name == "faults.injected"
        assert fault.campaign == "c1" and fault.attempt == 2
        assert fault.fields == {"kind": "sigkill"}
        assert events[2].value >= 0.0 and events[2].pid > 0
        # Payload round-trip is lossless.
        again = TelemetryEvent.from_payload(fault.to_payload())
        assert again == fault

    def test_jsonl_emitter_journals_and_reads_back(self, tmp_path):
        path = tmp_path / "sweep.jsonl.telemetry"
        emitter = JsonlEmitter(path)
        set_emitter(emitter)
        counter("lease.leased", campaign="c1", attempt=1, worker=0)
        emitter.close()
        events = read_telemetry(path)
        assert len(events) == 1 and events[0].worker == 0

    def test_reader_survives_truncation_anywhere(self, tmp_path):
        """A journal cut at every byte offset — including mid-UTF-8 — must
        yield a parsed prefix, never raise."""
        path = tmp_path / "torn.telemetry"
        lines = (
            json.dumps({"kind": "telemetry", "name": "café.hit",
                        "type": "counter", "value": 1}) + "\n"
            + json.dumps({"kind": "telemetry", "name": "naïve.miss",
                          "type": "counter", "value": 2}) + "\n"
        ).encode("utf-8")
        for cut in range(len(lines) + 1):
            path.write_bytes(lines[:cut])
            parsed = list(iter_jsonl_payloads(path))
            assert len(parsed) <= 2
            for payload in parsed:  # surviving lines are intact ones
                assert payload["name"] in ("café.hit", "naïve.miss")

    def test_reader_skips_a_deeply_nested_line(self, tmp_path):
        """A line nested past the JSON decoder's limit (100,000 levels:
        past it on every interpreter CI runs) is skipped as damage."""
        path = tmp_path / "deep.telemetry"
        line = json.dumps({"kind": "telemetry", "name": "app_cache.hit",
                           "type": "counter", "value": 1}).encode() + b"\n"
        deep = b"{\"a\": " * 100_000 + b"1" + b"}" * 100_000 + b"\n"
        path.write_bytes(line + deep + line)
        assert [e.name for e in read_telemetry(path)] == ["app_cache.hit"] * 2

    def test_restoring_previous_emitter(self):
        first = BufferEmitter()
        previous = set_emitter(first)
        assert not previous.enabled
        second = BufferEmitter()
        assert set_emitter(second) is first
        counter("x")
        assert len(second.payloads) == 1 and not first.payloads

    def test_sidecar_path_naming(self, tmp_path):
        store = CampaignStore(tmp_path / "a" / "sweep.jsonl")
        assert str(store.sidecar_path(SIDECAR_TELEMETRY)).endswith(
            "a/sweep.jsonl.telemetry"
        )


class TestMetricsRegistry:
    def test_ingest_maps_event_types(self):
        registry = MetricsRegistry()
        registry.ingest({"kind": "telemetry", "name": "cache.hit",
                         "type": "counter", "value": 1,
                         "fields": {"tier": "disk"}})
        registry.ingest({"kind": "telemetry", "name": "sweep.retries",
                         "type": "gauge", "value": 4})
        registry.ingest({"kind": "telemetry", "name": "round.play",
                         "type": "span", "value": 0.05,
                         "fields": {"label": "final"}})
        registry.ingest({"kind": "lease_event", "event": "leased"})  # ignored
        payload = registry.to_payload()
        assert payload["counters"] == {'cache_hit_total{tier="disk"}': 1.0}
        assert payload["gauges"] == {"sweep_retries": 4.0}
        assert payload["histograms"] == {
            'round_play_seconds{label="final"}': {"count": 1, "sum": 0.05}
        }

    def test_float_fields_never_become_labels(self):
        registry = MetricsRegistry()
        for sim in (1.25, 2.5, 99.875):
            registry.ingest({"kind": "telemetry", "name": "round.play",
                             "type": "span", "value": 0.01,
                             "fields": {"label": "swiss", "sim_seconds": sim}})
        assert len(registry) == 1  # one family, not one per float value

    def test_text_exposition_is_deterministic(self):
        registry = MetricsRegistry()
        registry.ingest({"kind": "telemetry", "name": "b.x",
                         "type": "counter", "value": 2})
        registry.ingest({"kind": "telemetry", "name": "a.y",
                         "type": "span", "value": 0.5})
        registry.ingest({"kind": "telemetry", "name": "a.x",
                         "type": "counter", "value": 1})
        text = registry.render_text()
        # Families sort by name within each kind, and rendering the same
        # registry twice yields the same bytes.
        assert text.index("a_x_total") < text.index("b_x_total")
        assert text == registry.render_text()
        assert "# TYPE b_x_total counter" in text
        assert 'a_y_seconds_bucket{le="1"} 1' in text
        assert 'a_y_seconds_bucket{le="+Inf"} 1' in text
        assert "a_y_seconds_count 1" in text
        assert "a_y_seconds_sum 0.5" in text

    def test_render_store_metrics_explains_missing_sidecar(self, tmp_path):
        message = render_store_metrics(tmp_path / "none.jsonl")
        assert "no telemetry sidecar" in message and "--telemetry" in message


class TestNeverAffectsResults:
    """Telemetry on == telemetry off, to the byte (attempts included)."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bit_identical_records(self, tmp_path, small_grid, clean_records,
                                   jobs):
        store = CampaignStore(tmp_path / f"t{jobs}.jsonl")
        report = CampaignRunner(
            SweepOptions(jobs=jobs, telemetry=True), store=store
        ).run(small_grid.specs())
        assert _full(report.records) == _full(clean_records)
        assert _full(store.records()) == _full(clean_records)
        # The sidecar exists, parses, and saw both campaigns finish.
        sidecar = store.sidecar_path(SIDECAR_TELEMETRY)
        assert sidecar.exists()
        counts = sidecar_counts(sidecar)
        assert counts["done"] == 2 and counts["failed"] == 0
        # And the bus was torn back down afterwards.
        assert not telemetry_enabled()

    def test_telemetry_true_without_store_needs_a_path(self):
        with pytest.raises(ReproError, match="telemetry=True"):
            CampaignRunner(SweepOptions(telemetry=True))
        with pytest.raises(ReproError, match="profile=True"):
            CampaignRunner(SweepOptions(profile=True))

    def test_explicit_sidecar_path_without_store(self, tmp_path, small_grid):
        path = tmp_path / "explicit.telemetry"
        CampaignRunner(SweepOptions(telemetry=path)).run(small_grid.specs())
        assert sidecar_counts(path)["done"] == 2


class TestChaosSidecar:
    """The acceptance loop: chaos sweep with telemetry on converges to the
    fault-free store, and the sidecar replays into the report's counts."""

    @pytest.mark.parametrize("kind", ["sigkill", "transient"])
    def test_converges_and_sidecar_matches_failures_report(
        self, tmp_path, small_grid, clean_records, kind
    ):
        specs = list(small_grid.specs())
        victim = specs[0].campaign_id
        store = CampaignStore(tmp_path / f"{kind}.jsonl")
        options = SweepOptions(
            jobs=2, backoff=0.05, telemetry=True,
            fault_plan=FaultPlan(targets={victim: (kind,)}),
        )
        report = CampaignRunner(options, store=store).run(specs)
        assert all(r.ok for r in report.records)
        assert _stable(store.records()) == _stable(clean_records)
        summary = summarise_failures(store.records())
        counts = sidecar_counts(store.sidecar_path(SIDECAR_TELEMETRY))
        assert counts["done"] == summary.done == 2
        assert counts["failed"] == summary.failed == 0
        assert counts["retried"] == summary.retried == 1
        assert counts["total_retries"] == summary.total_retries >= 1
        # A worker SIGKILLed mid-write can tear the sidecar's tail; the
        # reader must still parse it and see the injected fault (recorded
        # by the parent's lease mirror even when the worker's own counter
        # died in the pipe).
        events = read_telemetry(store.sidecar_path(SIDECAR_TELEMETRY))
        assert any(e.name == "lease.requeued" for e in events)

    def test_quarantine_heavy_store_counts(self, tmp_path, small_grid):
        """Every campaign quarantined: sidecar and report agree on failure."""
        specs = list(small_grid.specs())
        store = CampaignStore(tmp_path / "doomed.jsonl")
        plan = FaultPlan(rate=1.0, kinds=("transient",), max_faults=5)
        options = SweepOptions(
            jobs=2, max_retries=1, backoff=0.0, telemetry=True,
            fault_plan=plan,
        )
        report = CampaignRunner(options, store=store).run(specs)
        assert not any(r.ok for r in report.records)
        summary = summarise_failures(store.records())
        counts = sidecar_counts(store.sidecar_path(SIDECAR_TELEMETRY))
        assert counts["failed"] == summary.failed == 2
        assert counts["done"] == summary.done == 0
        assert counts["total_retries"] == summary.total_retries == 2
        # The status view renders the quarantine-heavy store sanely.
        snap = snapshot(store.path)
        assert snap.failed == 2 and snap.done == 0 and snap.queued == 0
        assert snap.retries == 2
        text = render_status(snap)
        assert "2 failed" in text and "retries 2" in text


class TestStatusView:
    def _synthetic_store(self, tmp_path, done=2, failed=0, seeds=8):
        grid = CampaignGrid(apps=("redis",), seeds=tuple(range(seeds)),
                            scale="test", eval_runs=5)
        store = CampaignStore(tmp_path / "mid.jsonl")
        store.write_grid(grid)
        specs = list(grid.specs())
        for spec in specs[:done]:
            store.append(CampaignRecord(spec=spec, status=STATUS_DONE,
                                        best_index=0))
        for spec in specs[done:done + failed]:
            store.append(CampaignRecord(spec=spec, status=STATUS_FAILED,
                                        error="RetryExhausted: gave up"))
        return grid, store, specs

    def _journal(self, store, entries):
        path = store.sidecar_path(SIDECAR_LEDGER)
        with path.open("a", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(json.dumps(
                    {"kind": "lease_event", **entry}) + "\n")

    def test_mid_sweep_snapshot_with_eta(self, tmp_path):
        grid, store, specs = self._synthetic_store(tmp_path, done=2)
        ids = [s.campaign_id for s in specs]
        # Two completions 30s apart, one live lease, five still queued.
        self._journal(store, [
            {"event": "leased", "id": ids[0], "status": "leased",
             "attempt": 1, "worker": 0, "wall": 1000.0},
            {"event": "completed", "id": ids[0], "status": "done",
             "attempt": 1, "worker": None, "wall": 1030.0},
            {"event": "leased", "id": ids[1], "status": "leased",
             "attempt": 1, "worker": 0, "wall": 1030.0},
            {"event": "completed", "id": ids[1], "status": "done",
             "attempt": 1, "worker": None, "wall": 1060.0},
            {"event": "leased", "id": ids[2], "status": "leased",
             "attempt": 1, "worker": 1, "wall": 1062.0},
        ])
        snap = snapshot(store.path, now=1065.0)
        assert (snap.done, snap.failed, snap.running, snap.queued) == (
            2, 0, 1, 5)
        assert snap.total == 8 and snap.workers == 1
        assert snap.running_ids == [ids[2]]
        # EWMA over 30s gaps -> 2/min; six campaigns remain -> ~180s ETA.
        assert snap.campaigns_per_minute == pytest.approx(2.0)
        assert snap.eta_seconds == pytest.approx(180.0)
        assert snap.last_event_age == pytest.approx(3.0)
        text = render_status(snap)
        assert "2/8 done" in text and "1 running" in text
        assert "5 queued" in text and "ETA 3.0m" in text
        assert "throughput 2.0 campaigns/min" in text

    def test_stale_lease_reported_stalled_not_running(self, tmp_path):
        grid, store, specs = self._synthetic_store(tmp_path, done=0)
        self._journal(store, [
            {"event": "leased", "id": specs[0].campaign_id,
             "status": "leased", "attempt": 1, "worker": 0, "wall": 100.0},
        ])
        snap = snapshot(store.path, now=100.0 + 3600.0)
        assert snap.running == 0 and snap.stalled == 1
        assert "stalled" in render_status(snap)

    def test_serial_sweep_shows_its_running_campaign_and_pace(
        self, tmp_path, monkeypatch
    ):
        """A serial sweep journals the lease ledger as a parallel one does.
        Before, `status` read 0 running and no pace until it ended."""
        import repro.campaigns.runner as runner_module

        grid = CampaignGrid(apps=("redis",), seeds=(0, 1, 2, 3),
                            scale="test", eval_runs=5)
        store = CampaignStore(tmp_path / "serial.jsonl")
        protocol = runner_module._run_protocol
        seen = []

        def snapshot_then_run(spec, *args):
            seen.append((spec.campaign_id, snapshot(store.path)))
            return protocol(spec, *args)

        monkeypatch.setattr(runner_module, "_run_protocol", snapshot_then_run)
        CampaignRunner(SweepOptions(jobs=1), store=store).run(
            grid.specs(), grid=grid
        )
        assert len(seen) == 4
        for finished, (campaign, snap) in enumerate(seen):
            assert snap.done == finished and snap.running_ids == [campaign]
            assert (snap.campaigns_per_minute > 0) == (finished >= 2)

    def test_serial_campaign_beats_its_lease(self, tmp_path, monkeypatch):
        """A serial campaign running past the stale-lease limit reads as
        running: it journals heartbeats, as a dispatched worker's lease
        gets.  Before, `status` called it stalled."""
        import repro.campaigns.dispatch as dispatch_module
        import repro.campaigns.runner as runner_module
        import repro.telemetry.status as status_module

        monkeypatch.setattr(dispatch_module, "HEARTBEAT_INTERVAL", 0.02)
        monkeypatch.setattr(status_module, "STALE_LEASE_SECONDS", 0.5)
        grid = CampaignGrid(apps=("redis",), seeds=(0,), scale="test",
                            eval_runs=5)
        store = CampaignStore(tmp_path / "slow.jsonl")
        protocol = runner_module._run_protocol
        seen = []

        def slow_protocol(spec, *args):
            time.sleep(1.0)
            seen.append(snapshot(store.path))
            return protocol(spec, *args)

        monkeypatch.setattr(runner_module, "_run_protocol", slow_protocol)
        CampaignRunner(SweepOptions(jobs=1), store=store).run(
            grid.specs(), grid=grid
        )
        (snap,) = seen
        assert (snap.running, snap.stalled) == (1, 0)
        # The beat thread stops before the outcome is journalled.
        events = TaskLedger.read_events(store.sidecar_path(SIDECAR_LEDGER))
        assert events[-1]["event"] == "completed"
        assert "heartbeat" in {e["event"] for e in events}

    def test_finished_store_without_sidecars(self, tmp_path, small_grid,
                                             clean_records):
        store = CampaignStore(tmp_path / "plain.jsonl")
        CampaignRunner(SweepOptions(jobs=1), store=store).run(
            small_grid.specs(), grid=small_grid
        )
        snap = snapshot(store.path)
        assert snap.complete and snap.done == 2 and snap.total == 2
        assert "finished" in render_status(snap)

    def test_watch_renders_once_and_returns(self, tmp_path, small_grid,
                                            capsys):
        store = CampaignStore(tmp_path / "w.jsonl")
        CampaignRunner(SweepOptions(jobs=1), store=store).run(
            small_grid.specs(), grid=small_grid
        )
        snap = watch(store.path, interval=0.01, iterations=3)
        assert snap.complete  # finished store ends the loop on iteration 1
        out = capsys.readouterr().out
        assert out.count("2/2 done") == 1

    def test_watch_refuses_a_zero_interval(self, tmp_path):
        """A zero period would re-read an unfinished store in a busy loop."""
        _, store, _ = self._synthetic_store(tmp_path, done=2)
        with pytest.raises(ReproError, match="above 0"):
            watch(store.path, interval=0, iterations=2)

    def test_watch_refuses_an_infinite_interval(self, tmp_path):
        """``time.sleep(inf)`` raises OverflowError on an unfinished store."""
        _, store, _ = self._synthetic_store(tmp_path, done=2)
        with pytest.raises(ReproError, match="finite"):
            watch(store.path, interval=float("inf"), iterations=2)

    def test_status_watch_negative_interval_is_one_line_exit_two(
        self, tmp_path, capsys
    ):
        _, store, _ = self._synthetic_store(tmp_path, done=2)
        code = main(["status", str(store.path), "--watch", "--interval", "-1"])
        captured = capsys.readouterr()
        output = captured.out + captured.err
        assert code == 2 and "Traceback" not in output
        lines = output.strip().splitlines()
        assert len(lines) == 1 and "--interval" in lines[0]

    @pytest.mark.parametrize("interval", ["inf", "nan"])
    def test_status_watch_non_finite_interval_is_one_line_exit_two(
        self, tmp_path, capsys, interval
    ):
        _, store, _ = self._synthetic_store(tmp_path, done=2)
        code = main(
            ["status", str(store.path), "--watch", "--interval", interval]
        )
        captured = capsys.readouterr()
        output = captured.out + captured.err
        assert code == 2 and "Traceback" not in output
        lines = output.strip().splitlines()
        assert len(lines) == 1 and lines[0].endswith("(fix --interval)")

    def test_ewma_interval(self):
        assert ewma_interval([5.0]) is None
        assert ewma_interval([0.0, 10.0]) == pytest.approx(10.0)
        # Recent pace dominates: 10s gaps then a 1s gap pulls the EWMA down.
        drifting = ewma_interval([0.0, 10.0, 20.0, 21.0])
        assert 1.0 < drifting < 10.0

    def test_live_progress_meter(self, tmp_path, small_grid, capsys):
        meter = LiveProgress()
        runner = CampaignRunner(SweepOptions(jobs=1), progress=meter)
        runner.run(small_grid.specs())
        meter.close()
        out = capsys.readouterr().out
        assert "\r" in out and "2/2" in out

    def test_sidecar_counts_last_write_wins(self, tmp_path):
        path = tmp_path / "dup.telemetry"
        with path.open("w") as handle:
            for name, attempt in (("campaign.failed", 1),
                                  ("campaign.done", 2)):
                handle.write(json.dumps({
                    "kind": "telemetry", "name": name, "type": "counter",
                    "value": 1, "campaign": "c1", "attempt": attempt,
                }) + "\n")
        counts = sidecar_counts(path)
        assert counts == {"done": 1, "failed": 0, "retried": 1,
                          "total_retries": 1}


class TestLoggingConfig:
    def test_default_info_is_bare(self, capsys):
        configure_logging(0)
        get_logger("cli").info("executed %d, skipped %d", 3, 1)
        assert capsys.readouterr().out == "executed 3, skipped 1\n"

    def test_quiet_drops_info_keeps_errors(self, capsys):
        configure_logging(-1)
        logger = get_logger("cli")
        logger.info("progress line")
        logger.error("sweep store corrupt")
        out = capsys.readouterr().out
        assert "progress line" not in out
        assert "sweep store corrupt" in out

    def test_verbose_adds_context_and_debug(self, capsys):
        configure_logging(1)
        get_logger("campaigns.runner").debug("leasing c1 to worker 0")
        out = capsys.readouterr().out
        assert "leasing c1 to worker 0" in out
        assert "DEBUG" in out and "repro.campaigns.runner" in out

    def test_reconfiguring_never_stacks_handlers(self, capsys):
        for _ in range(3):
            configure_logging(0)
        get_logger("cli").info("once")
        assert capsys.readouterr().out == "once\n"
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1

    def test_engine_narration_needs_verbose(self, capsys):
        configure_logging(0)
        logging.getLogger("repro.core.tournament").info("regional phase")
        assert "regional phase" not in capsys.readouterr().out
        configure_logging(1)
        logging.getLogger("repro.core.tournament").info("regional phase")
        assert "regional phase" in capsys.readouterr().out


def _assert_profiled(tmp_path, specs, clean_records, jobs):
    """A profiled sweep stores the clean records and one loadable
    ``.pstats`` file per campaign, named after it."""
    store = CampaignStore(tmp_path / "p.jsonl")
    report = CampaignRunner(
        SweepOptions(jobs=jobs, profile=True), store=store
    ).run(specs)
    # Profiling must not perturb results either.
    assert _full(report.records) == _full(clean_records)
    directory = store.path.with_name(store.path.name + ".profiles")
    files = sorted(directory.glob("*.pstats"))
    assert [f.name for f in files] == sorted(
        f"{spec.campaign_id}.attempt1.pstats" for spec in specs
    )
    for path in files:
        assert pstats.Stats(str(path)).total_calls > 0


class TestProfiling:
    def test_profile_writes_loadable_pstats(self, tmp_path, small_grid,
                                            clean_records):
        _assert_profiled(
            tmp_path, list(small_grid.specs()), clean_records, jobs=1
        )

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_dispatch_workers_write_loadable_pstats(
        self, start_method, tmp_path, small_grid, clean_records,
        pin_start_method,
    ):
        """Workers get the profile directory with every attempt they run,
        under either start method."""
        pin_start_method(start_method)
        _assert_profiled(
            tmp_path, list(small_grid.specs()), clean_records, jobs=2
        )
