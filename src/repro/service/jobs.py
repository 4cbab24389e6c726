"""Job lifecycle for the tuning service: queue, executor, stores, metrics.

The :class:`JobManager` is the daemon's core, and deliberately contains no
HTTP: it accepts already-decoded request payloads, turns them into
:class:`repro.api.JobHandle` jobs via the same facade the CLI uses, and
runs them **one at a time** on a single executor thread:

* a job with ``options.jobs = 1`` runs its campaigns in the daemon
  process, so the process-wide application LRU
  (:func:`repro.campaigns.runner.cached_application`) stays hot across
  jobs and across tenants — the second tenant's serial sweep starts on
  surfaces the first tenant paid for;
* the campaign runner installs and restores the process-global telemetry
  emitter per sweep, which is only safe when sweeps do not overlap in
  one process (a sweep's fault plan and profile directory are
  arguments, not process state).

Parallelism happens *inside* a job (``options.jobs`` workers via the
dispatcher), where it is crash-isolated and deterministic.  Those workers
are forked for each job and inherit only the applications the daemon
itself built, for campaigns it ran inline (a ``jobs = 1`` job's, or a
job's single pending campaign), so they compute the surface values
their campaigns touch again for every job; no setting shares them.

Stores are laid out per tenant under the service data root —
``<data_root>/<tenant>/<job_id>.jsonl`` — so tenants can never read or
clobber each other's results, and every store remains a plain on-disk
store that ``repro status`` / ``report`` / ``resume`` can use directly
after the daemon stops.
"""

from __future__ import annotations

import queue
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import api
from repro.errors import ReproError
from repro.service.tenancy import QuotaLedger, TenantQuota
from repro.telemetry import get_logger
from repro.telemetry.events import iter_jsonl_payloads
from repro.telemetry.metrics import MetricsRegistry

_LOG = get_logger("service")

PathLike = Union[str, Path]

#: Tenant names become directory names; keep them boring and safe.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_tenant(tenant: str) -> str:
    """A tenant name safe to use as a directory component, or raise."""
    if not _TENANT_RE.match(tenant):
        raise ReproError(
            f"invalid tenant {tenant!r}: use 1-64 characters from "
            f"[A-Za-z0-9._-], starting alphanumeric"
        )
    return tenant


class UnknownJob(KeyError):
    """No job with this ID for this tenant (the daemon's 404).

    A :class:`KeyError`, so library callers catching that keep working.
    """


@dataclass
class ServiceJob:
    """One submitted sweep as the service tracks it."""

    job_id: str
    tenant: str
    handle: api.JobHandle
    submitted_unix: float

    @property
    def state(self) -> str:
        return self.handle.state

    def to_payload(self, *, status: bool = False) -> dict:
        """The job as the API returns it (``status=True`` fuses in the
        live store snapshot)."""
        payload = {
            "id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "submitted_unix": round(self.submitted_unix, 3),
            "grid": self.handle.grid.to_dict(),
            "campaigns": self.handle.grid.size,
            "store": str(self.handle.store.path),
            "links": {
                "self": f"/v1/sweeps/{self.job_id}",
                "results": f"/v1/sweeps/{self.job_id}/results",
                "report": f"/v1/sweeps/{self.job_id}/report",
            },
        }
        error = self.handle.error
        if error is not None:
            payload["error"] = f"{type(error).__name__}: {error}"
        if status:
            payload["status"] = self.handle.status().to_payload()
        return payload


class JobManager:
    """Owns every job of one daemon: admission, execution, accounting.

    Args:
        data_root: directory the per-tenant stores live under (created on
            demand).
        defaults: base :class:`repro.api.SweepOptions` requests inherit
            from; a request's ``options`` object overrides field by field.
            ``telemetry`` defaults on service-side so every job's sidecar
            can answer cache/latency questions and feed ``/metrics``.
        quota: per-tenant limits (see :class:`~repro.service.tenancy.
            TenantQuota`); enforced at submission with HTTP 429 semantics.
    """

    def __init__(
        self,
        data_root: PathLike,
        defaults: Optional[api.SweepOptions] = None,
        quota: Optional[TenantQuota] = None,
    ):
        self.data_root = Path(data_root)
        self.defaults = defaults if defaults is not None else api.SweepOptions(
            telemetry=True
        )
        self.ledger = QuotaLedger(quota)
        self._jobs: Dict[str, ServiceJob] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[ServiceJob]]" = queue.Queue()
        self._executor = threading.Thread(
            target=self._drain, name="repro-service-executor", daemon=True
        )
        self._started = False
        self._closing = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "JobManager":
        """Start the executor thread (idempotent)."""
        if not self._started:
            self._started = True
            self._executor.start()
        return self

    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting work and drain: cancel queued and running jobs.

        Finished campaigns are already checkpointed in their stores, so a
        cancelled job is simply a resumable store — nothing is lost by
        shutting down mid-sweep.
        """
        self._closing = True
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            if not job.handle.done:
                job.handle.cancel()
        if self._started:
            self._queue.put(None)
            self._executor.join(timeout)

    def _drain(self) -> None:
        """The single executor loop: one warm engine, one job at a time."""
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                job.handle.execute()
            except BaseException:  # noqa: BLE001 - keep the executor alive
                _LOG.exception("job %s raised out of the runner", job.job_id)
            self._settle(job)

    def _settle(self, job: ServiceJob) -> None:
        """Post-execution accounting: bill the tenant for what actually ran."""
        state = job.state
        core_hours = 0.0
        try:
            for record in api.iter_results(job.handle, only_ok=True):
                core_hours += record.core_hours
        except ReproError:
            pass
        booked = self.ledger.charge(job.tenant, job.job_id, core_hours)
        _LOG.info(
            "job %s (%s) %s: %.6f core-hours booked, tenant total %.6f",
            job.job_id, job.tenant, state, booked,
            self.ledger.spent(job.tenant),
        )

    # -- admission -------------------------------------------------------

    def _active_count(self, tenant: str) -> int:
        return sum(
            1 for j in self._jobs.values()
            if j.tenant == tenant and not j.handle.done
        )

    def submit(self, tenant: str, payload: dict) -> ServiceJob:
        """Admit one request payload as a job; the daemon's POST handler.

        Raises :class:`~repro.api.SchemaError` / :class:`~repro.errors.
        ReproError` for malformed or unregistered requests (HTTP 400) and
        :class:`~repro.service.tenancy.QuotaExceeded` past a quota (429).
        Resubmitting a grid the tenant already has is idempotent: the
        existing job is returned instead of a duplicate being queued — and
        a *finished* job whose store is incomplete (cancelled, crashed, or
        an extended grid) is requeued, which is exactly ``repro resume``
        through the API.
        """
        validate_tenant(tenant)
        if self._closing:
            raise ReproError("service is shutting down; resubmit later")
        api.validate_payload(payload, api.SWEEP_REQUEST_SCHEMA, path="$")
        grid = api.grid_from_payload(payload["grid"])
        options = api.options_from_payload(
            payload.get("options", {}), defaults=self.defaults
        )
        job_id = api.job_id_for(grid, salt=tenant)
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None and not existing.handle.done:
                return existing
            self.ledger.check_submission(tenant, self._active_count(tenant))
            store_path = self.data_root / tenant / f"{job_id}.jsonl"
            store_path.parent.mkdir(parents=True, exist_ok=True)
            handle = api.JobHandle(
                grid=grid,
                options=options,
                store=api.open_store(store_path),
                job_id=job_id,
            )
            job = ServiceJob(
                job_id=job_id,
                tenant=tenant,
                handle=handle,
                submitted_unix=time.time(),
            )
            self._jobs[job_id] = job
            if job_id not in self._order:
                self._order.append(job_id)
        self._queue.put(job)
        return job

    # -- reads -----------------------------------------------------------

    def get(self, tenant: str, job_id: str) -> ServiceJob:
        """The tenant's job, or :class:`UnknownJob` (the daemon's 404).

        Tenancy check included: another tenant's job ID is as invisible as
        a nonexistent one.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None or job.tenant != tenant:
            raise UnknownJob(job_id)
        return job

    def list(self, tenant: str) -> List[ServiceJob]:
        """The tenant's jobs, oldest first."""
        with self._lock:
            return [
                self._jobs[jid] for jid in self._order
                if self._jobs[jid].tenant == tenant
            ]

    def cancel(self, tenant: str, job_id: str) -> ServiceJob:
        """Cancel a job (queued: never starts; running: stops between
        campaigns).  The store keeps every finished campaign."""
        job = self.get(tenant, job_id)
        job.handle.cancel()
        return job

    # -- metrics ---------------------------------------------------------

    def render_metrics(self) -> str:
        """The Prometheus text exposition for ``/metrics``.

        Replays every job's telemetry sidecar through the one shared
        :class:`~repro.telemetry.metrics.MetricsRegistry` ingest path, then
        appends service-level gauges (job states, per-tenant core-hours) —
        so the numbers here and in ``repro report --metrics`` can never
        disagree about what an event means.
        """
        registry = MetricsRegistry()
        with self._lock:
            jobs = [self._jobs[jid] for jid in self._order]
        for job in jobs:
            sidecar = job.handle.store.sidecar_path("telemetry")
            for payload in iter_jsonl_payloads(sidecar):
                if payload.get("kind") == "telemetry":
                    registry.ingest(payload)
        by_state: Dict[str, int] = {}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
        for state, count in sorted(by_state.items()):
            registry.gauge("service_jobs", state=state).set(float(count))
        for tenant, hours in self.ledger.to_payload().items():
            registry.gauge("service_core_hours", tenant=tenant).set(hours)
        return registry.render_text()
