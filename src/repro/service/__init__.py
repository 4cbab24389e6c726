"""Tuning as a service: the ``repro serve`` daemon over :mod:`repro.api`.

The service is a thin HTTP/JSON shell (stdlib ``http.server``) around the
same facade the CLI and library users call — one warm engine per daemon,
per-tenant stores and quotas, Prometheus ``/metrics``.  See
:mod:`repro.service.server` for the route table.
"""

from repro.service.jobs import JobManager, ServiceJob, UnknownJob, validate_tenant
from repro.service.server import (
    DEFAULT_TENANT,
    ReproService,
    ServiceConfig,
    TENANT_HEADER,
    serve,
)
from repro.service.tenancy import QuotaExceeded, QuotaLedger, TenantQuota

__all__ = [
    "DEFAULT_TENANT",
    "JobManager",
    "QuotaExceeded",
    "QuotaLedger",
    "ReproService",
    "ServiceConfig",
    "ServiceJob",
    "TENANT_HEADER",
    "TenantQuota",
    "UnknownJob",
    "serve",
    "validate_tenant",
]
