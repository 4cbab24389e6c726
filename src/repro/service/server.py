"""The ``repro serve`` HTTP/JSON daemon: tuning as a service.

A long-lived :class:`http.server.ThreadingHTTPServer` front end over one
:class:`~repro.service.jobs.JobManager` — stdlib only, no new
dependencies.  Request threads do admission, reads, and rendering; sweeps
execute on the manager's single executor thread against the shared warm
engine (see :mod:`repro.service.jobs` for why that is the design).

Routes (all JSON unless noted)::

    POST   /v1/sweeps              submit {"grid": {...}, "options": {...}}
    GET    /v1/sweeps              list this tenant's jobs
    GET    /v1/sweeps/{id}         job + live status snapshot
    GET    /v1/sweeps/{id}/results paginated records (?offset=&limit=&ok=1)
    GET    /v1/sweeps/{id}/report  summaries (?view=summary|by-scenario|
                                   by-format|failures)
    DELETE /v1/sweeps/{id}         cancel (finished campaigns stay stored)
    GET    /metrics                Prometheus text exposition
    GET    /healthz                liveness probe

Tenancy rides an ``X-Repro-Tenant`` header (default tenant ``public``);
error mapping is uniform: schema violations and unregistered axis entries
are 400 with the reason, quota violations are 429, foreign or unknown job
IDs are 404, a request body that stalls is 408, and every error body is
``{"error": "..."}``.
"""

from __future__ import annotations

import json
import signal
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro import api
from repro.errors import ReproError
from repro.service.jobs import JobManager, UnknownJob
from repro.service.tenancy import QuotaExceeded, TenantQuota
from repro.telemetry import get_logger

_LOG = get_logger("service")

PathLike = Union[str, Path]

#: Header a client names its tenant with; absent = the shared default.
TENANT_HEADER = "X-Repro-Tenant"
DEFAULT_TENANT = "public"

#: Submission bodies above this are refused outright (a grid is a few
#: hundred bytes; megabytes means a confused or hostile client).
MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one daemon instance is configured with."""

    host: str = "127.0.0.1"
    port: int = 8765
    data_root: PathLike = "repro-serve.d"
    options: api.SweepOptions = field(
        default_factory=lambda: api.SweepOptions(telemetry=True)
    )
    quota: TenantQuota = field(default_factory=TenantQuota)

    def __post_init__(self) -> None:
        # Checked before binding: the socket would raise OverflowError.
        if not 0 <= self.port <= 65535:
            raise ReproError(
                f"port must be in 0-65535, got {self.port} (fix --port)"
            )


class _HttpError(Exception):
    """Internal route error carrying its HTTP status."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _refuse_constant(name: str):
    """``json.loads`` hook for ``NaN``/``Infinity``/``-Infinity``, which
    Python accepts but JSON does not: one in a request could make a retry
    wait forever on the daemon's one executor thread."""
    raise ValueError(f"{name} is not a JSON number")


def _int_param(params: dict, name: str, default: Optional[int]) -> Optional[int]:
    values = params.get(name)
    if not values:
        return default
    try:
        return int(values[0])
    except ValueError:
        raise _HttpError(400, f"query parameter {name} must be an integer")


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the owning :class:`ReproService`."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    #: Socket timeout (seconds) for every read, so a client that stalls
    #: mid-request cannot pin a handler thread; an idle keep-alive
    #: connection is closed after the same wait.
    timeout = 60

    # The ThreadingHTTPServer subclass carries the service reference.
    @property
    def service(self) -> "ReproService":
        return self.server.service  # type: ignore[attr-defined]

    @property
    def tenant(self) -> str:
        return self.headers.get(TENANT_HEADER, DEFAULT_TENANT).strip() or (
            DEFAULT_TENANT
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _LOG.debug("%s %s", self.address_string(), format % args)

    # -- plumbing --------------------------------------------------------

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(code, body, "application/json")

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_json_body(self) -> dict:
        declared = (self.headers.get("Content-Length") or "0").strip()
        # Digits only: int() would also take "-1", and rfile.read(-1) holds
        # the handler thread until the client hangs up.
        if not (declared.isascii() and declared.isdigit()):
            # The body's extent is unknown, so the connection cannot be reused.
            self.close_connection = True
            raise _HttpError(
                400, f"Content-Length must be a non-negative integer, "
                f"got {declared!r}"
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"request body over {MAX_BODY_BYTES} bytes"
            )
        try:
            raw = self.rfile.read(length) if length else b""
        except TimeoutError:
            # Part of the body may still arrive later, so the connection
            # cannot be reused.
            self.close_connection = True
            raise _HttpError(
                408, f"request body not received within {self.timeout} s"
            ) from None
        if not raw:
            raise _HttpError(400, "empty request body; expected JSON")
        try:
            payload = json.loads(
                raw.decode("utf-8"), parse_constant=_refuse_constant
            )
        # Bad UTF-8, bad JSON, NaN or ±Infinity; or nesting past the
        # decoder's limit, which depends on the interpreter (the recursion
        # limit, 1,000 by default, through Python 3.11; the C recursion
        # limit, 10,000 on Linux release builds, on 3.12).
        except (ValueError, RecursionError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        parsed = urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        params = parse_qs(parsed.query)
        try:
            self._route(method, parts, params)
        except _HttpError as exc:
            self._send_error_json(exc.code, str(exc))
        except QuotaExceeded as exc:
            self._send_error_json(429, str(exc))
        except (api.SchemaError, ReproError) as exc:
            self._send_error_json(400, str(exc))
        except UnknownJob:
            self._send_error_json(404, "no such job for this tenant")
        except Exception as exc:  # noqa: BLE001 - the daemon must not die
            _LOG.exception("unhandled error serving %s %s", method, self.path)
            self._send_error_json(500, f"internal error: {type(exc).__name__}")

    # -- routing ---------------------------------------------------------

    def _route(self, method: str, parts: list, params: dict) -> None:
        manager = self.service.manager
        if method == "GET" and parts == ["healthz"]:
            self._send_json(200, {"status": "ok"})
            return
        if method == "GET" and parts == ["metrics"]:
            self._send(
                200, manager.render_metrics().encode("utf-8"),
                "text/plain; version=0.0.4",
            )
            return
        if parts[:2] != ["v1", "sweeps"]:
            raise _HttpError(404, f"no route {method} {self.path}")

        if len(parts) == 2:
            if method == "POST":
                job = manager.submit(self.tenant, self._read_json_body())
                self._send_json(202, {"job": job.to_payload()})
                return
            if method == "GET":
                self._send_json(200, {
                    "jobs": [j.to_payload() for j in manager.list(self.tenant)],
                })
                return
            raise _HttpError(405, f"{method} not allowed on /v1/sweeps")

        job_id = parts[2]
        if len(parts) == 3:
            if method == "GET":
                job = manager.get(self.tenant, job_id)
                self._send_json(200, {"job": job.to_payload(status=True)})
                return
            if method == "DELETE":
                job = manager.cancel(self.tenant, job_id)
                self._send_json(200, {"job": job.to_payload()})
                return
            raise _HttpError(405, f"{method} not allowed on a job")

        if len(parts) == 4 and method == "GET" and parts[3] == "results":
            job = manager.get(self.tenant, job_id)
            offset = _int_param(params, "offset", 0) or 0
            limit = _int_param(params, "limit", None)
            only_ok = bool(_int_param(params, "ok", 0))
            records = list(api.iter_results(
                job.handle, offset=offset, limit=limit, only_ok=only_ok,
            ))
            total = len(list(api.iter_results(job.handle, only_ok=only_ok)))
            next_offset = offset + len(records)
            self._send_json(200, {
                "job": job.job_id,
                "total": total,
                "offset": offset,
                "count": len(records),
                "next_offset": next_offset if next_offset < total else None,
                "records": [r.to_payload() for r in records],
            })
            return

        if len(parts) == 4 and method == "GET" and parts[3] == "report":
            job = manager.get(self.tenant, job_id)
            view = params.get("view", ["summary"])[0]
            summary = api.fetch_report(job.handle, view=view)
            self._send_json(200, {
                "job": job.job_id,
                "view": view,
                "report": summary.to_payload(),
            })
            return

        raise _HttpError(404, f"no route {method} {self.path}")

    # -- verb entry points ----------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class ReproService:
    """One daemon: an HTTP server bound to a port plus its job manager.

    Usable embedded (tests run it in-process on an ephemeral port via
    ``with ReproService(config) as service: ...``) or as a process through
    :func:`serve` (the ``repro serve`` subcommand).
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config if config is not None else ServiceConfig()
        self.manager = JobManager(
            self.config.data_root,
            defaults=self.config.options,
            quota=self.config.quota,
        )
        self._httpd = _Server(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound (host, port) — port 0 resolves here."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ReproService":
        """Serve in the background (returns once the port is accepting)."""
        self.manager.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        _LOG.info(
            "repro service listening on %s (data root %s)",
            self.url, self.config.data_root,
        )
        return self

    def close(self, timeout: float = 30.0) -> None:
        """Clean shutdown: stop the listener, then drain the executor."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout)
        self.manager.close(timeout)
        _LOG.info("repro service on %s stopped", self.url)

    def __enter__(self) -> "ReproService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(config: Optional[ServiceConfig] = None) -> int:
    """Run a daemon until SIGTERM/SIGINT; the ``repro serve`` entry point.

    Installs signal handlers so an orchestrator's SIGTERM (or a ^C) shuts
    the service down cleanly — listener closed, executor drained, every
    finished campaign checkpointed — and returns 0.
    """
    service = ReproService(config)
    stop = threading.Event()

    def _signalled(signum, frame) -> None:  # noqa: ARG001
        _LOG.info("received signal %d, shutting down", signum)
        stop.set()

    previous = {
        sig: signal.signal(sig, _signalled)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        service.start()
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        service.close()
    return 0
