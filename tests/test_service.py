"""End-to-end coverage for the ``repro serve`` tuning service."""

import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.campaigns import open_store, runner
from repro.cli import main
from repro.service import (
    JobManager,
    QuotaLedger,
    ReproService,
    ServiceConfig,
    TENANT_HEADER,
    TenantQuota,
    UnknownJob,
)
from repro.service.server import _Handler
from repro.telemetry.events import iter_jsonl_payloads

GRID = {
    "apps": ["redis"], "strategies": ["DarwinGame"], "seeds": [0, 1],
    "scale": "test", "eval_runs": 10,
}


def _request(method, url, body=None, tenant=None):
    """One HTTP round-trip; returns (status, decoded JSON or text)."""
    request = urllib.request.Request(url, method=method)
    if tenant is not None:
        request.add_header(TENANT_HEADER, tenant)
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, data=data, timeout=60) as response:
            raw = response.read()
            if "json" in response.headers.get("Content-Type", ""):
                return response.status, json.loads(raw)
            return response.status, raw.decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _wait_done(base, job_id, tenant, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = _request("GET", f"{base}/v1/sweeps/{job_id}", tenant=tenant)
        assert status == 200
        if body["job"]["state"] in ("done", "failed", "cancelled"):
            return body["job"]
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


def _stable_rows(store_path):
    return sorted(
        json.dumps(r.stable_payload(), sort_keys=True)
        for r in open_store(str(store_path)).records()
    )


@pytest.fixture()
def service(tmp_path):
    config = ServiceConfig(port=0, data_root=tmp_path / "serve.d")
    with ReproService(config) as running:
        yield running


class TestEndToEnd:
    def test_submit_poll_results_report(self, service):
        base = service.url
        status, body = _request(
            "POST", f"{base}/v1/sweeps", {"grid": GRID}, tenant="alice"
        )
        assert status == 202
        job_id = body["job"]["id"]
        assert body["job"]["links"]["results"].endswith(f"{job_id}/results")

        job = _wait_done(base, job_id, "alice")
        assert job["state"] == "done"
        assert job["status"]["done"] == 2 and job["status"]["total"] == 2

        status, page = _request(
            "GET", f"{base}/v1/sweeps/{job_id}/results?limit=1", tenant="alice"
        )
        assert status == 200
        assert page["total"] == 2 and page["count"] == 1
        assert page["next_offset"] == 1
        status, rest = _request(
            "GET", f"{base}/v1/sweeps/{job_id}/results?offset=1", tenant="alice"
        )
        assert rest["count"] == 1 and rest["next_offset"] is None
        first_ids = {r["id"] for r in page["records"]}
        assert first_ids.isdisjoint({r["id"] for r in rest["records"]})

        for view in ("summary", "by-scenario", "by-format", "failures"):
            status, report = _request(
                "GET", f"{base}/v1/sweeps/{job_id}/report?view={view}",
                tenant="alice",
            )
            assert status == 200 and report["view"] == view

    def test_http_sweep_bit_identical_to_cli_sweep(self, service, tmp_path):
        base = service.url
        status, body = _request(
            "POST", f"{base}/v1/sweeps", {"grid": GRID}, tenant="alice"
        )
        assert status == 202
        job = _wait_done(base, body["job"]["id"], "alice")

        cli_store = tmp_path / "cli.jsonl"
        assert main([
            "sweep", "--apps", "redis", "--seeds", "0,1", "--scale", "test",
            "--eval-runs", "10", "--store", str(cli_store), "--quiet",
        ]) == 0
        assert _stable_rows(job["store"]) == _stable_rows(cli_store)

    def test_served_store_is_a_plain_resumable_store(self, service):
        base = service.url
        status, body = _request(
            "POST", f"{base}/v1/sweeps", {"grid": GRID}, tenant="alice"
        )
        job = _wait_done(base, body["job"]["id"], "alice")
        # The per-tenant store the daemon wrote is CLI-readable as-is.
        assert main(["status", job["store"], "--json"]) == 0


class TestConcurrencyAndCaching:
    def test_two_concurrent_clients_both_complete(self, service):
        base = service.url
        grids = {
            "alice": GRID,
            "bob": dict(GRID, seeds=[2]),
        }
        outcomes = {}

        def submit(tenant):
            outcomes[tenant] = _request(
                "POST", f"{base}/v1/sweeps", {"grid": grids[tenant]},
                tenant=tenant,
            )

        threads = [
            threading.Thread(target=submit, args=(t,)) for t in grids
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for tenant, (status, body) in outcomes.items():
            assert status == 202, (tenant, body)
            job = _wait_done(base, body["job"]["id"], tenant)
            assert job["state"] == "done"

    def test_second_tenant_rides_the_warm_application_cache(self, service):
        base = service.url
        _, first = _request(
            "POST", f"{base}/v1/sweeps", {"grid": GRID}, tenant="alice"
        )
        _wait_done(base, first["job"]["id"], "alice")

        _, second = _request(
            "POST", f"{base}/v1/sweeps", {"grid": dict(GRID, seeds=[7])},
            tenant="bob",
        )
        job = _wait_done(base, second["job"]["id"], "bob")

        sidecar = open_store(job["store"]).sidecar_path("telemetry")
        hits = [
            p for p in iter_jsonl_payloads(sidecar)
            if p.get("kind") == "telemetry"
            and p.get("name") == "app_cache.hit"
        ]
        # Alice's sweep built redis@test; bob's reuses it from the shared
        # in-process LRU, and his own sidecar says so.
        assert hits, "expected app_cache.hit events in the second sweep"

    def test_resubmitting_the_same_grid_is_idempotent(self, service):
        base = service.url
        _, first = _request(
            "POST", f"{base}/v1/sweeps", {"grid": GRID}, tenant="alice"
        )
        _wait_done(base, first["job"]["id"], "alice")
        _, again = _request(
            "POST", f"{base}/v1/sweeps", {"grid": GRID}, tenant="alice"
        )
        assert again["job"]["id"] == first["job"]["id"]
        assert _wait_done(base, again["job"]["id"], "alice")["state"] == "done"


class TestErrors:
    def test_malformed_spec_is_400_with_json_path(self, service):
        status, body = _request(
            "POST", f"{service.url}/v1/sweeps",
            {"grid": dict(GRID, seeds=["zero"])}, tenant="alice",
        )
        assert status == 400
        assert "$.grid.seeds[0]" in body["error"]

    def test_unregistered_axis_entry_is_400_with_fix_hint(self, service):
        status, body = _request(
            "POST", f"{service.url}/v1/sweeps",
            {"grid": dict(GRID, apps=["nginx"])}, tenant="alice",
        )
        assert status == 400
        assert "unknown applications" in body["error"]
        assert "(fix --apps)" in body["error"]

    def test_one_evaluation_run_is_400(self, service):
        """A grid the campaigns would refuse is refused at the door."""
        status, body = _request(
            "POST", f"{service.url}/v1/sweeps",
            {"grid": dict(GRID, eval_runs=1)}, tenant="alice",
        )
        assert status == 400
        assert "$.grid.eval_runs" in body["error"]

    def test_negative_seed_is_400(self, service):
        """numpy refuses a negative seed only inside the campaign."""
        status, body = _request(
            "POST", f"{service.url}/v1/sweeps",
            {"grid": dict(GRID, seeds=[0, -1])}, tenant="alice",
        )
        assert status == 400
        assert "$.grid.seeds[1]" in body["error"]

    def test_empty_axis_is_400(self, service):
        """Before, a grid of 0 campaigns was accepted with a 202."""
        status, body = _request(
            "POST", f"{service.url}/v1/sweeps",
            {"grid": dict(GRID, strategies=[])}, tenant="alice",
        )
        assert status == 400
        assert "$.grid.strategies" in body["error"]

    @pytest.mark.parametrize("request_body, hint", [
        ({"grid": dict(GRID, apps=["redis", "redis"])}, "(fix --apps)"),
        ({"grid": dict(GRID, eval_runs=100_000)}, "(fix --eval-runs)"),
        ({"grid": dict(GRID, start_time_step=1e9 + 1)}, "(fix --seeds)"),
        ({"grid": GRID, "options": {"backoff": 1e300}}, "(fix --backoff)"),
        ({"grid": GRID, "options": {"jobs": 100000}}, "(fix --jobs)"),
    ], ids=["repeated-app", "eval-runs", "last-start", "backoff", "jobs"])
    def test_repeated_entry_and_unbounded_reach_are_400(
        self, service, request_body, hint
    ):
        """Before, a repeated app was accepted with a 202 and its job
        failed on duplicate campaigns; the others had no upper bound (a
        grid of thousands of campaigns forked a worker each up to
        `jobs`)."""
        status, body = _request(
            "POST", f"{service.url}/v1/sweeps", request_body, tenant="alice",
        )
        assert status == 400
        assert body["error"].endswith(hint)
        assert not (service.config.data_root / "alice").exists()
        assert _request("GET", f"{service.url}/healthz")[0] == 200

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_is_400(self, service, constant):
        """Python's JSON decoder takes these; an infinite backoff made a
        retry wait forever on the one executor thread every job shares."""
        body = (
            '{"grid": {"apps": ["redis"], "scale": "test", "seeds": [0, 1], '
            '"start_time_step": -1e9, "eval_runs": 5}, "options": '
            f'{{"backoff": {constant}, "jobs": 2, "max_retries": 1}}}}'
        )
        request = urllib.request.Request(
            f"{service.url}/v1/sweeps", method="POST",
            data=body.encode("utf-8"),
            headers={TENANT_HEADER: "alice"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400
        assert f"{constant} is not a JSON number" in json.loads(
            err.value.read()
        )["error"]
        assert _request("GET", f"{service.url}/healthz")[0] == 200

    def test_over_long_integer_is_400(self, service):
        """Python refuses to parse an integer literal over 4300 digits with
        a bare ValueError, which the decoder let through as a 500."""
        body = '{"grid": {"apps": ["redis"], "seeds": [%s]}}' % ("1" * 5000)
        request = urllib.request.Request(
            f"{service.url}/v1/sweeps", method="POST",
            data=body.encode("utf-8"), headers={TENANT_HEADER: "alice"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400

    # The decoder's nesting limit depends on the interpreter: the
    # recursion limit (1,000 by default) through Python 3.11, the C
    # recursion limit (10,000 on Linux release builds) on 3.12.  The deep
    # bodies pass both and stay under MAX_BODY_BYTES.
    @pytest.mark.parametrize("body", [
        b"not json",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"a": ' * 100_000 + b"1" + b"}" * 100_000,
    ], ids=["not-json", "deep-array", "deep-object"])
    def test_not_json_is_400(self, service, body, caplog):
        """A body nested past the decoder's limit raised RecursionError,
        which the decoder let through as a 500 with a logged
        traceback."""
        request = urllib.request.Request(
            f"{service.url}/v1/sweeps", method="POST", data=body,
        )
        with caplog.at_level(logging.ERROR, logger="repro.service"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"].startswith(
            "request body is not valid JSON"
        )
        assert not caplog.records

    def test_foreign_and_unknown_jobs_are_404(self, service):
        base = service.url
        _, body = _request(
            "POST", f"{base}/v1/sweeps", {"grid": GRID}, tenant="alice"
        )
        job_id = body["job"]["id"]
        status, _ = _request("GET", f"{base}/v1/sweeps/{job_id}", tenant="bob")
        assert status == 404
        status, _ = _request("GET", f"{base}/v1/sweeps/job-000", tenant="alice")
        assert status == 404
        _wait_done(base, job_id, "alice")

    @pytest.mark.parametrize("declared", ["abc", "-1"])
    def test_bad_content_length_is_400(self, service, declared):
        """Not a 500 for "abc", and no handler stuck in rfile.read(-1)."""
        host, port = service.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                f"POST /v1/sweeps HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {declared}\r\n\r\n{{}}".encode("ascii")
            )
            reply = b""
            while chunk := sock.recv(4096):  # the server closes after replying
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400"
        assert "Content-Length" in json.loads(body)["error"]

    def test_stalled_body_is_408_and_frees_the_handler(
        self, service, monkeypatch
    ):
        """A client that declares a body and stops sending gets a 408 and
        a closed connection, not a handler thread held in rfile.read."""
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        host, port = service.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                f"POST /v1/sweeps HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: 10\r\n\r\n{{}}".encode("ascii")
            )
            reply = b""
            while chunk := sock.recv(4096):  # the server closes after replying
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"408"
        assert "not received" in json.loads(body)["error"]
        assert _request("GET", f"{service.url}/healthz")[0] == 200

    def test_unknown_job_is_a_key_error(self, service):
        with pytest.raises(UnknownJob) as err:
            service.manager.get("alice", "job-000")
        assert isinstance(err.value, KeyError)

    def test_internal_key_error_is_500_not_404(self, service, monkeypatch):
        def broken():
            raise KeyError("service_jobs")

        monkeypatch.setattr(service.manager, "render_metrics", broken)
        status, body = _request("GET", f"{service.url}/metrics")
        assert status == 500
        assert body["error"] == "internal error: KeyError"

    def test_options_cannot_smuggle_a_store_path(self, service):
        status, body = _request(
            "POST", f"{service.url}/v1/sweeps",
            {"grid": GRID, "options": {"store": "/tmp/evil.jsonl"}},
            tenant="alice",
        )
        assert status == 400 and "store" in body["error"]
        # The removed executor option is an unknown key like any other.
        status, body = _request(
            "POST", f"{service.url}/v1/sweeps",
            {"grid": GRID, "options": {"exec_mode": "stacked"}},
            tenant="alice",
        )
        assert status == 400 and "exec_mode" in body["error"]
        # So is the removed store-backend option.
        status, body = _request(
            "POST", f"{service.url}/v1/sweeps",
            {"grid": GRID, "options": {"store_backend": "sqlite"}},
            tenant="alice",
        )
        assert status == 400 and "store_backend" in body["error"]


class TestQuota:
    def test_core_hour_quota_returns_429(self, tmp_path):
        config = ServiceConfig(
            port=0, data_root=tmp_path / "serve.d",
            quota=TenantQuota(core_hours=1e-12),
        )
        with ReproService(config) as service:
            base = service.url
            status, body = _request(
                "POST", f"{base}/v1/sweeps", {"grid": GRID}, tenant="alice"
            )
            assert status == 202  # nothing spent yet -> admitted
            _wait_done(base, body["job"]["id"], "alice")
            status, body = _request(
                "POST", f"{base}/v1/sweeps",
                {"grid": dict(GRID, seeds=[9])}, tenant="alice",
            )
            assert status == 429
            assert "core-hour quota" in body["error"]
            # Quotas are per tenant: bob is unaffected by alice's spend.
            status, body = _request(
                "POST", f"{base}/v1/sweeps",
                {"grid": dict(GRID, seeds=[9])}, tenant="bob",
            )
            assert status == 202
            _wait_done(base, body["job"]["id"], "bob")

    def test_active_job_cap_returns_429(self, tmp_path):
        config = ServiceConfig(
            port=0, data_root=tmp_path / "serve.d",
            quota=TenantQuota(max_active=1),
        )
        with ReproService(config) as service:
            base = service.url
            status, first = _request(
                "POST", f"{base}/v1/sweeps", {"grid": GRID}, tenant="alice"
            )
            assert status == 202
            status, body = _request(
                "POST", f"{base}/v1/sweeps",
                {"grid": dict(GRID, seeds=[3])}, tenant="alice",
            )
            assert status == 429
            assert "active job" in body["error"]
            _wait_done(base, first["job"]["id"], "alice")


class TestBilling:
    def test_charge_books_only_the_unbilled_remainder(self):
        ledger = QuotaLedger()
        ledger.charge("alice", "job-1", 1.0)
        ledger.charge("alice", "job-1", 3.0)
        assert ledger.spent("alice") == 3.0
        assert ledger.charge("alice", "job-1", 3.0) == 0.0
        assert ledger.spent("alice") == 3.0

    def test_resumed_job_is_billed_for_the_campaigns_it_adds(
        self, tmp_path, monkeypatch
    ):
        """Cancel a job after its first campaign, resubmit it (the
        service's resume path): the tenant pays for both campaigns."""
        manager = JobManager(tmp_path, defaults=api.SweepOptions())

        def run_inline(job):
            manager._queue.put(None)  # the executor loop returns after job
            manager._drain()
            return job

        first = manager.submit("alice", {"grid": GRID})
        execute = runner.execute_campaign

        def cancel_after_first(spec, attempt=1, **settings):
            record = execute(spec, attempt, **settings)
            first.handle.cancel()
            return record

        monkeypatch.setattr(runner, "execute_campaign", cancel_after_first)
        assert run_inline(first).state == "cancelled"
        monkeypatch.setattr(runner, "execute_campaign", execute)
        second = run_inline(manager.submit("alice", {"grid": GRID}))
        assert second.job_id == first.job_id and second.state == "done"
        records = open_store(second.handle.store.path).records()
        assert len(records) == 2
        assert manager.ledger.spent("alice") == pytest.approx(
            sum(r.core_hours for r in records)
        )


class TestOperations:
    def test_cancel_via_delete(self, service):
        base = service.url
        # A queued job cancels cleanly even if it never started.
        _, body = _request(
            "POST", f"{base}/v1/sweeps", {"grid": dict(GRID, seeds=[11])},
            tenant="alice",
        )
        job_id = body["job"]["id"]
        status, _ = _request(
            "DELETE", f"{base}/v1/sweeps/{job_id}", tenant="alice"
        )
        assert status == 200
        assert _wait_done(base, job_id, "alice")["state"] in (
            "done", "cancelled"
        )

    def test_metrics_exposition(self, service):
        base = service.url
        _, body = _request(
            "POST", f"{base}/v1/sweeps", {"grid": GRID}, tenant="alice"
        )
        _wait_done(base, body["job"]["id"], "alice")
        status, text = _request("GET", f"{base}/metrics")
        assert status == 200
        assert 'service_jobs{state="done"} 1' in text
        assert 'service_core_hours{tenant="alice"}' in text
        # The job ran with telemetry on, so its replayed sweep counters are
        # part of the same exposition.
        assert "sweep_start" in text or "campaign_done" in text

    def test_healthz_and_job_listing(self, service):
        base = service.url
        assert _request("GET", f"{base}/healthz")[0] == 200
        _, body = _request(
            "POST", f"{base}/v1/sweeps", {"grid": GRID}, tenant="alice"
        )
        status, listing = _request("GET", f"{base}/v1/sweeps", tenant="alice")
        assert status == 200
        assert [j["id"] for j in listing["jobs"]] == [body["job"]["id"]]
        assert _request("GET", f"{base}/v1/sweeps", tenant="bob")[1] == {
            "jobs": []
        }
        _wait_done(base, body["job"]["id"], "alice")
