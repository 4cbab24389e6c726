"""The stable programmatic facade over the campaign engine.

Every way of running a sweep — the ``repro sweep``/``resume`` CLI, the
``repro serve`` HTTP daemon (:mod:`repro.service`), and library callers —
drives the four entry points here, so there is exactly one code path from
"a declared grid" to "records in a store":

* :func:`submit_grid` — validate a :class:`~repro.campaigns.spec.
  CampaignGrid`, open (or reuse) the :class:`~repro.campaigns.store.jsonl.
  CampaignStore` at ``store``, and execute it through the
  :class:`~repro.campaigns.runner.CampaignRunner` in the calling thread,
  returning a terminal :class:`JobHandle`.  The daemon builds its handles
  directly and runs them on its own executor thread.
* :func:`job_status` — the live done/running/queued/failed view, reusing
  :func:`repro.telemetry.status.snapshot` over the store and its sidecars.
* :func:`iter_results` — the stored records in deterministic (campaign-ID)
  order, paginated with ``offset``/``limit``.
* :func:`fetch_report` — the sweep summaries (overall, ``by-scenario``,
  ``by-format``, ``failures``), each a dataclass with ``to_payload()``
  and a ``table()`` that renders it as ``repro report`` prints it.

The wire format is part of the facade: :data:`SWEEP_REQUEST_SCHEMA` (and
its parts :data:`GRID_SCHEMA` / :data:`OPTIONS_SCHEMA`) document the JSON
request shape, :func:`validate_payload` checks a payload against a schema
with stdlib code only, and :func:`grid_from_payload` /
:func:`options_from_payload` turn validated JSON into typed values.  A
malformed payload raises :class:`SchemaError` with the offending path — the
daemon's 400 — and a well-formed payload naming an unregistered axis entry
raises :class:`~repro.errors.ReproError` from :func:`validate_grid` before
any worker is started, so a typo costs one actionable line instead of a
sweep's whole retry budget.

``__all__`` below is the supported surface: names in it are re-exported
from :mod:`repro` and covered by the deprecation policy; everything else in
this module is internal.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Union

from repro.apps.registry import APPLICATION_NAMES
from repro.campaigns.report import summarise, summarise_by, summarise_failures
from repro.campaigns.runner import (
    SUPPORTED_STRATEGIES,
    CampaignRunner,
    SweepOptions,
    SweepReport,
    _finite,
)
from repro.campaigns.spec import CampaignGrid, CampaignSpec
from repro.campaigns.store import CampaignRecord, CampaignStore, open_store
from repro.apps.scaling import level_cap
from repro.cloud.vm import PRESETS
from repro.errors import ReproError, SpaceError

PathLike = Union[str, Path]
StoreLike = Union["JobHandle", CampaignStore, str, Path]
ProgressFn = Callable[[int, int, CampaignRecord], None]

__all__ = [
    "GRID_SCHEMA",
    "JobCancelled",
    "JobHandle",
    "OPTIONS_SCHEMA",
    "REPORT_VIEWS",
    "SUPPORTED_STRATEGIES",
    "SWEEP_REQUEST_SCHEMA",
    "SchemaError",
    "SweepOptions",
    "fetch_report",
    "grid_from_payload",
    "iter_results",
    "job_status",
    "options_from_payload",
    "submit_grid",
    "validate_grid",
    "validate_payload",
]


# -- grid validation ----------------------------------------------------

#: Most evaluation executions a campaign may ask for: 100x the paper's 100.
MAX_EVAL_RUNS = 10_000

#: Latest simulated start time (s) a grid may give its last seed's
#: campaign, about 32 years.  The interference walk a campaign reads is
#: generated up to its start (and its evaluation runs, 6 h apart), so
#: the bound keeps a campaign's time and memory bounded.
MAX_START_TIME = 1e9


def _unknown(names, known) -> list:
    return [n for n in names if n not in known]


def _repeated(entries) -> list:
    """Entries an axis names more than once, compared by value (a custom
    VM's field dict by its fields)."""
    counts = Counter(json.dumps(entry, sort_keys=True) for entry in entries)
    return [json.loads(key) for key, count in counts.items() if count > 1]


def validate_grid(grid: CampaignGrid) -> CampaignGrid:
    """Check every grid axis against its registry before any dispatch.

    One typo'd entry on *any* axis — application, strategy, VM preset,
    scenario pack, tournament format, or scale — would otherwise fail inside the
    workers, burning the whole retry budget per campaign before the sweep
    quarantines it.  This is the single pre-dispatch gate all entry points
    (CLI, daemon, library) share; it raises :class:`~repro.errors.
    ReproError` with a one-line actionable message and returns the grid
    unchanged when everything is registered.  It also refuses an empty
    axis, an axis naming one entry twice (the grid would enumerate one
    campaign twice), fewer than 2 or more than :data:`MAX_EVAL_RUNS`
    evaluation runs, a negative seed, a campaign start time that is not a
    finite number >= 0, and a last start past :data:`MAX_START_TIME`.
    """
    from repro.formats.recipes import tournament_format_names
    from repro.scenarios import scenario_names

    # An empty axis enumerates no campaign: the sweep would "succeed"
    # with nothing run.  A repeated entry enumerates its campaigns twice,
    # which the runner refuses only once the job has started.
    for axis in ("apps", "strategies", "vms", "scenarios", "formats"):
        entries = getattr(grid, axis)
        if not entries:
            raise ReproError(
                f"a grid needs at least one entry in {axis} (fix --{axis})"
            )
        repeated = _repeated(entries)
        if repeated:
            raise ReproError(
                f"{axis} names {repeated} more than once; each entry may "
                f"appear once (fix --{axis})"
            )
    unknown = _unknown(grid.apps, APPLICATION_NAMES)
    if unknown:
        raise ReproError(
            f"unknown applications: {unknown}; available: "
            f"{list(APPLICATION_NAMES)} (fix --apps)"
        )
    unknown = _unknown(grid.strategies, SUPPORTED_STRATEGIES)
    if unknown:
        raise ReproError(
            f"unknown strategies: {unknown}; available: "
            f"{list(SUPPORTED_STRATEGIES)} (fix --strategies)"
        )
    unknown = [
        vm for vm in grid.vms if isinstance(vm, str) and vm not in PRESETS
    ]
    if unknown:
        raise ReproError(
            f"unknown VM presets: {unknown}; available: "
            f"{sorted(PRESETS)} (fix --vms)"
        )
    unknown = _unknown(grid.scenarios, scenario_names())
    if unknown:
        raise ReproError(
            f"unknown scenarios: {unknown}; registered: "
            f"{list(scenario_names())} (fix --scenarios)"
        )
    unknown = _unknown(grid.formats, tournament_format_names())
    if unknown:
        raise ReproError(
            f"unknown tournament formats: {unknown}; registered: "
            f"{list(tournament_format_names())} (fix --formats)"
        )
    try:
        level_cap(grid.scale)
    except SpaceError as exc:
        raise ReproError(f"{exc} (fix --scale)") from None
    if grid.eval_runs < 2:
        raise ReproError(
            f"eval_runs must be >= 2, got {grid.eval_runs} (fix --eval-runs)"
        )
    if grid.eval_runs > MAX_EVAL_RUNS:
        raise ReproError(
            f"eval_runs must be at most {MAX_EVAL_RUNS}, got "
            f"{grid.eval_runs} (fix --eval-runs)"
        )
    if not grid.seeds:
        raise ReproError("a grid needs at least one seed (fix --seeds)")
    negative = [seed for seed in grid.seeds if seed < 0]
    if negative:
        raise ReproError(f"seeds must be >= 0, got {negative} (fix --seeds)")
    # The k-th seed's campaign starts at k * start_time_step; every start
    # must be a time in [0, MAX_START_TIME].  Repeated seeds are distinct
    # campaigns only because their starts differ.
    step = grid.start_time_step
    if not (_finite(step) and step >= 0):
        raise ReproError(
            f"start_time_step must be a finite number >= 0, got {step}"
        )
    last_start = float(len(grid.seeds) - 1) * step
    if not last_start <= MAX_START_TIME:
        when = (
            "an infinite start time" if math.isinf(last_start)
            else f"start time {last_start:.10g} s"
        )
        raise ReproError(
            f"start_time_step {step} puts the last of {len(grid.seeds)} "
            f"seeds' campaigns at {when}, past the {MAX_START_TIME:.10g} s "
            f"(about 32 years) limit (fix --seeds)"
        )
    repeated = _repeated(grid.seeds) if step == 0 else []
    if repeated:
        raise ReproError(
            f"seeds names {repeated} more than once with start_time_step 0, "
            f"so both start at the same time (fix --seeds)"
        )
    return grid


# -- job handles ---------------------------------------------------------


class JobCancelled(ReproError):
    """A sweep was cancelled between campaigns (finished work is stored)."""


#: Job lifecycle states a :class:`JobHandle` reports.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


class JobHandle:
    """Handle on one submitted sweep: its identity, store, and outcome.

    Returned by :func:`submit_grid` already terminal; the daemon builds
    one per job and runs it with :meth:`execute` on its executor thread.
    The handle is also the argument every read-side facade call
    accepts, so ``submit → status → results → report`` composes without
    the caller ever touching store paths again.
    """

    def __init__(
        self,
        grid: CampaignGrid,
        options: SweepOptions,
        store: Optional[CampaignStore] = None,
        job_id: Optional[str] = None,
    ):
        self.grid = grid
        self.options = options
        self.store = store
        self.job_id = job_id if job_id is not None else job_id_for(grid)
        self._cancel = threading.Event()
        self._lock = threading.Lock()
        self._state = "queued"
        self._report: Optional[SweepReport] = None
        self._error: Optional[BaseException] = None

    def __repr__(self) -> str:
        return f"JobHandle({self.job_id!r}, state={self.state!r})"

    # -- lifecycle -------------------------------------------------------

    @property
    def state(self) -> str:
        """One of :data:`JOB_STATES`."""
        with self._lock:
            return self._state

    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in ("done", "failed", "cancelled")

    @property
    def error(self) -> Optional[BaseException]:
        """The exception that ended a ``failed`` job, if any."""
        with self._lock:
            return self._error

    def cancel(self) -> None:
        """Ask the job to stop between campaigns.

        A queued job never starts; a running job stops after the campaign
        in flight (its finished records are already checkpointed, so the
        store stays resumable).  Terminal jobs ignore the call.
        """
        self._cancel.set()

    def result(self) -> SweepReport:
        """The finished :class:`~repro.campaigns.runner.SweepReport`.

        Re-raises the job's exception if it failed; raises
        :class:`JobCancelled` if it was cancelled before finishing.
        """
        with self._lock:
            if self._report is not None:
                return self._report
            if self._error is not None:
                raise self._error
        raise JobCancelled(f"job {self.job_id} was cancelled before finishing")

    # -- the one execution path -----------------------------------------

    def execute(self, progress: Optional[ProgressFn] = None) -> None:
        """Run the sweep inline in the calling thread; the only place
        jobs execute.

        :func:`submit_grid` calls this for you.  The service's job
        executor calls it from its single worker thread so concurrently
        submitted jobs execute one at a time against the shared warm
        engine.  A failure is recorded on the handle and re-raised."""
        if self._cancel.is_set():
            with self._lock:
                self._state = "cancelled"
            return
        with self._lock:
            self._state = "running"

        def checked_progress(finished: int, total: int, record) -> None:
            if self._cancel.is_set():
                raise JobCancelled(
                    f"job {self.job_id} cancelled after {finished}/{total} "
                    f"campaigns (finished work is stored)"
                )
            if progress is not None:
                progress(finished, total, record)

        try:
            # Built inside the try: a runner that refuses its options (a
            # sidecar with no store, say) fails the job instead of leaving
            # it `running` forever.
            runner = CampaignRunner(
                self.options, store=self.store, progress=checked_progress
            )
            report = runner.run(self.grid.specs(), grid=self.grid)
        except JobCancelled as exc:
            with self._lock:
                self._state = "cancelled"
                self._error = exc
        except BaseException as exc:
            with self._lock:
                self._state = "failed"
                self._error = exc
            raise
        else:
            with self._lock:
                self._state = "done"
                self._report = report

    # -- read-side conveniences ------------------------------------------

    def status(self):
        """Live :class:`~repro.telemetry.status.StatusSnapshot` (see
        :func:`job_status`)."""
        return job_status(self)

    def results(self, *, offset: int = 0, limit: Optional[int] = None):
        """Stored records in campaign-ID order (see :func:`iter_results`)."""
        return iter_results(self, offset=offset, limit=limit)

    def report(self, *, view: str = "summary"):
        """A sweep summary view (see :func:`fetch_report`)."""
        return fetch_report(self, view=view)


def job_id_for(grid: CampaignGrid, *, salt: str = "") -> str:
    """Deterministic job identifier: a content hash of the grid (+ salt).

    The same grid submitted twice names the same job unless the caller
    salts it (the daemon salts with the tenant so tenants never collide).
    """
    blob = json.dumps(grid.to_dict(), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha1((salt + "|" + blob).encode("utf-8")).hexdigest()
    return f"job-{digest[:12]}"


def submit_grid(
    grid: CampaignGrid,
    options: Optional[SweepOptions] = None,
    *,
    store: Optional[PathLike] = None,
    progress: Optional[ProgressFn] = None,
) -> JobHandle:
    """Validate and execute a campaign grid; the one sweep entry point.

    Validates every axis up front (:func:`validate_grid`), opens the store
    at ``store`` (``None`` keeps the records in memory), and runs the grid
    through :class:`~repro.campaigns.runner.CampaignRunner` with
    ``options`` (``None`` is ``SweepOptions()``) — skipping campaigns the
    store already holds as done, which is also how *resume* works:
    re-submit the stored grid against the same store.

    The call returns a terminal :class:`JobHandle`.  The runner installs
    the process-global telemetry emitter while executing (every other
    sweep setting is an argument), so concurrent *executing* jobs in one
    process must be serialised by the caller (the service runs one
    executor).
    """
    options = options if options is not None else SweepOptions()
    validate_grid(grid)
    store = open_store(store) if store is not None else None
    handle = JobHandle(grid=grid, options=options, store=store)
    handle.execute(progress)
    return handle


# -- read side -----------------------------------------------------------


def _store_of(job: StoreLike) -> CampaignStore:
    """Resolve any facade argument to its concrete store."""
    if isinstance(job, JobHandle):
        if job.store is None:
            raise ReproError(
                f"job {job.job_id} runs without a store; submit it with "
                f"a store= path to read results back"
            )
        return job.store
    if isinstance(job, CampaignStore):
        return job
    return open_store(job)


def _records_of(job: StoreLike) -> List[CampaignRecord]:
    """Every record of a job — from its store, or (storeless handles
    only) from the in-memory :class:`~repro.campaigns.runner.SweepReport`."""
    if isinstance(job, JobHandle) and job.store is None:
        return list(job.result().records)
    return _store_of(job).records()


def job_status(job: StoreLike):
    """Live status of a sweep: the fused store/ledger/telemetry snapshot.

    Accepts a :class:`JobHandle`, a store object, or a store path —
    ``repro status`` and the daemon's ``GET /v1/sweeps/{id}`` both land
    here.  Works mid-sweep (another process or thread may be writing).
    """
    from repro.telemetry.status import snapshot

    return snapshot(_store_of(job).path)


def iter_results(
    job: StoreLike,
    *,
    offset: int = 0,
    limit: Optional[int] = None,
    only_ok: bool = False,
) -> Iterator[CampaignRecord]:
    """Stored records in deterministic campaign-ID order, paginated.

    ``offset``/``limit`` page through the sorted sequence — the daemon's
    results endpoint maps its query parameters straight onto them.  With
    ``only_ok`` failed/quarantined records are dropped first, so pages
    stay stable while a resume retries failures.
    """
    if offset < 0:
        raise ReproError(f"offset must be >= 0, got {offset}")
    if limit is not None and limit < 0:
        raise ReproError(f"limit must be >= 0, got {limit}")
    records = sorted(_records_of(job), key=lambda r: r.campaign_id)
    if only_ok:
        records = [r for r in records if r.ok]
    end = None if limit is None else offset + limit
    yield from records[offset:end]


#: Report views :func:`fetch_report` serves, in the CLI's flag spelling.
REPORT_VIEWS = ("summary", "by-scenario", "by-format", "failures")

_VIEW_SUMMARISERS = {
    "summary": summarise,
    "by-scenario": lambda records: summarise_by(records, "scenario"),
    "by-format": lambda records: summarise_by(records, "format"),
    "failures": summarise_failures,
}

def fetch_report(job: StoreLike, *, view: str = "summary"):
    """Aggregate a sweep into one of its summary views.

    Returns the view's summary dataclass; each carries ``to_payload()``
    for JSON and ``table(title=...)`` for text.  The views match ``repro
    report``'s flags: ``summary`` (the default per-cell table),
    ``by-scenario``, ``by-format``, and ``failures``.
    """
    if view not in _VIEW_SUMMARISERS:
        raise ReproError(
            f"unknown report view {view!r}; available: {list(REPORT_VIEWS)}"
        )
    return _VIEW_SUMMARISERS[view](_records_of(job))


# -- wire format ----------------------------------------------------------


class SchemaError(ReproError):
    """A JSON payload does not match its documented schema (HTTP 400)."""


def _array(items: dict) -> dict:
    """A non-empty array: an empty grid axis enumerates no campaign."""
    return {"type": "array", "minItems": 1, "items": items}


#: JSON shape of a :class:`~repro.campaigns.spec.CampaignGrid` on the wire.
GRID_SCHEMA = {
    "type": "object",
    "required": ["apps"],
    "additionalProperties": False,
    "properties": {
        "apps": _array({"type": "string"}),
        "strategies": _array({"type": "string"}),
        "vms": _array({"type": "string"}),
        "seeds": _array({"type": "integer", "minimum": 0}),
        "scale": {"type": ["string", "integer"]},
        "eval_runs": {"type": "integer", "minimum": 2},
        "start_time_step": {"type": "number", "minimum": 0},
        "tag": {"type": "string"},
        "scenarios": _array({"type": "string"}),
        "formats": _array({"type": "string"}),
    },
}

#: JSON shape of the execution options a request may set.  There is no
#: ``store``: the daemon owns store placement (per tenant, under its data
#: root), so a request cannot write outside it.
OPTIONS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "jobs": {"type": "integer", "minimum": 1},
        "max_retries": {"type": "integer", "minimum": 0},
        "backoff": {"type": "number", "minimum": 0},
        "task_timeout": {"type": "number", "minimum": 0},
        "telemetry": {"type": "boolean"},
        "profile": {"type": "boolean"},
    },
}

#: JSON shape of ``POST /v1/sweeps``.
SWEEP_REQUEST_SCHEMA = {
    "type": "object",
    "required": ["grid"],
    "additionalProperties": False,
    "properties": {
        "grid": GRID_SCHEMA,
        "options": OPTIONS_SCHEMA,
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    # Tuples count as arrays so in-process callers can validate the dicts
    # CampaignGrid.to_dict() produces without a JSON round-trip first.
    "array": lambda v: isinstance(v, (list, tuple)),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    # NaN and ±inf are no JSON numbers, and NaN passes every `minimum`.
    "number": lambda v: (
        isinstance(v, int) and not isinstance(v, bool)
        or isinstance(v, float) and math.isfinite(v)
    ),
    "boolean": lambda v: isinstance(v, bool),
}


def validate_payload(payload, schema: dict, *, path: str = "$") -> None:
    """Check a decoded JSON value against a (subset of) JSON Schema.

    Supports the keywords the facade's schemas use — ``type`` (including
    union lists), ``required``, ``properties`` with
    ``additionalProperties: false``, ``items``, ``minimum``, ``minItems``
    — with stdlib code only, so the daemon takes no new
    dependency.  A NaN or infinite float is not a ``number``.  Raises
    :class:`SchemaError` naming the offending path.
    """
    types = schema.get("type")
    if types is not None:
        allowed = types if isinstance(types, list) else [types]
        if not any(_TYPE_CHECKS[t](payload) for t in allowed):
            got = type(payload).__name__
            if isinstance(payload, float) and not math.isfinite(payload):
                got = repr(payload)
            raise SchemaError(
                f"{path}: expected {' or '.join(allowed)}, got {got}"
            )
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        minimum = schema.get("minimum")
        if minimum is not None and payload < minimum:
            raise SchemaError(f"{path}: {payload} is below minimum {minimum}")
    if isinstance(payload, dict):
        for key in schema.get("required", ()):
            if key not in payload:
                raise SchemaError(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            unknown = sorted(set(payload) - set(properties))
            if unknown:
                raise SchemaError(
                    f"{path}: unknown key(s) {unknown}; allowed: "
                    f"{sorted(properties)}"
                )
        for key, value in payload.items():
            if key in properties:
                validate_payload(value, properties[key], path=f"{path}.{key}")
    if isinstance(payload, list):
        min_items = schema.get("minItems")
        if min_items is not None and len(payload) < min_items:
            raise SchemaError(
                f"{path}: needs at least {min_items} item(s), "
                f"got {len(payload)}"
            )
        items = schema.get("items")
        if items is not None:
            for index, value in enumerate(payload):
                validate_payload(value, items, path=f"{path}[{index}]")


def grid_from_payload(payload: dict) -> CampaignGrid:
    """A validated :class:`~repro.campaigns.spec.CampaignGrid` from JSON.

    Schema-checks the shape (:class:`SchemaError` on mismatch), builds the
    grid, then registry-checks every axis (:func:`validate_grid`), so the
    returned grid is safe to dispatch.
    """
    validate_payload(payload, GRID_SCHEMA, path="$.grid")
    grid = CampaignGrid.from_dict(payload)
    return validate_grid(grid)


def options_from_payload(
    payload: dict, *, defaults: Optional[SweepOptions] = None
) -> SweepOptions:
    """A :class:`SweepOptions` from a request's ``options`` object.

    Unset keys inherit from ``defaults`` (the daemon passes its own
    configured options, so e.g. telemetry stays on service-wide unless a
    request turns it off).  A store cannot be named over the wire.
    """
    validate_payload(payload, OPTIONS_SCHEMA, path="$.options")
    base = defaults if defaults is not None else SweepOptions()
    # Shallow field copy — asdict() would deep-convert nested values like
    # an installed FaultPlan into plain dicts.
    merged = {f.name: getattr(base, f.name) for f in fields(base)}
    merged.update(payload)
    return SweepOptions(**merged)
