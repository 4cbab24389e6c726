"""Per-tenant rate and quota accounting for the tuning service.

The daemon serves many tenants from one warm engine; what keeps that fair
is the same accounting idiom the simulator itself uses for tuning cost —
:class:`repro.cloud.accounting.CoreHourLedger` books ``vcpus * seconds``
per label, and here every tenant gets one ledger with one label per job.
Two independent limits, both enforced at submission time (HTTP 429):

* **core-hour quota** — a tenant whose finished jobs have already consumed
  their configured core-hour budget cannot submit more work until the
  operator raises the budget (or restarts the daemon; quotas are
  per-process, like the warm caches they protect).
* **active-job cap** — a tenant may only have so many jobs queued or
  running at once, so a single client cannot monopolise the executor by
  flooding the queue.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cloud.accounting import CoreHourLedger
from repro.errors import ReproError


class QuotaExceeded(ReproError):
    """A tenant's submission exceeds its quota (HTTP 429)."""


@dataclass(frozen=True)
class TenantQuota:
    """The per-tenant limits one daemon enforces.

    ``core_hours`` is the tuning budget each tenant may consume before
    further submissions are refused (``None`` = unmetered).  ``max_active``
    caps a tenant's queued-plus-running jobs.
    """

    core_hours: Optional[float] = None
    max_active: int = 8

    def __post_init__(self) -> None:
        # Checked before the daemon binds: either limit out of range would
        # answer every submission with 429.
        if self.max_active < 1:
            raise ReproError(
                f"max_active must be >= 1, got {self.max_active} "
                f"(fix --quota-max-active)"
            )
        if self.core_hours is not None and not self.core_hours > 0:
            raise ReproError(
                f"core_hours must be above 0, or None for unmetered, got "
                f"{self.core_hours} (fix --quota-core-hours)"
            )


class QuotaLedger:
    """Thread-safe per-tenant core-hour accounting over CoreHourLedgers.

    One :class:`~repro.cloud.accounting.CoreHourLedger` per tenant, one
    label per job holding everything billed for it so far — so a resumed
    job is billed only for the campaigns it added, and a per-job cost
    breakdown falls out of
    :meth:`~repro.cloud.accounting.CoreHourLedger.core_hours_by_label`.
    """

    def __init__(self, quota: Optional[TenantQuota] = None):
        self.quota = quota if quota is not None else TenantQuota()
        self._ledgers: Dict[str, CoreHourLedger] = {}
        self._lock = threading.Lock()

    def _ledger(self, tenant: str) -> CoreHourLedger:
        ledger = self._ledgers.get(tenant)
        if ledger is None:
            ledger = self._ledgers[tenant] = CoreHourLedger()
        return ledger

    def charge(self, tenant: str, job_id: str, core_hours: float) -> float:
        """Bill a job's tenant up to the job's total cost, idempotently.

        ``core_hours`` is everything the job's store holds so far.  A
        resubmitted job keeps its ID and store, so only the part not yet
        billed under ``job_id`` is booked; charging the same total again
        books nothing.  Returns the core-hours booked.
        """
        with self._lock:
            ledger = self._ledger(tenant)
            owed = core_hours - ledger.core_hours_by_label().get(job_id, 0.0)
            if owed <= 0:
                return 0.0
            ledger.book(vcpus=1, seconds=owed * 3600.0, label=job_id)
            return owed

    def spent(self, tenant: str) -> float:
        """Core-hours this tenant's finished jobs have consumed so far."""
        with self._lock:
            ledger = self._ledgers.get(tenant)
            return ledger.core_hours if ledger is not None else 0.0

    def remaining(self, tenant: str) -> Optional[float]:
        """Core-hours left in the tenant's budget (``None`` = unmetered)."""
        budget = self.quota.core_hours
        if budget is None:
            return None
        return budget - self.spent(tenant)

    def check_submission(self, tenant: str, active_jobs: int) -> None:
        """Admission control for one new submission; raises
        :class:`QuotaExceeded` (the daemon's 429) when a limit is hit."""
        if active_jobs >= self.quota.max_active:
            raise QuotaExceeded(
                f"tenant {tenant!r} already has {active_jobs} active job(s) "
                f"(limit {self.quota.max_active}); wait for one to finish "
                f"or cancel it"
            )
        remaining = self.remaining(tenant)
        if remaining is not None and remaining <= 0.0:
            raise QuotaExceeded(
                f"tenant {tenant!r} has consumed its core-hour quota "
                f"({self.spent(tenant):.6f} of {self.quota.core_hours} "
                f"core-hours used); raise --quota-core-hours to continue"
            )

    def to_payload(self) -> dict:
        """Per-tenant spend as plain JSON (for the daemon's status page)."""
        with self._lock:
            return {
                tenant: round(ledger.core_hours, 9)
                for tenant, ledger in sorted(self._ledgers.items())
            }
