"""The per-campaign protocol, and its execution with isolation, retry, and resume.

A campaign is a :class:`~repro.campaigns.spec.CampaignSpec` in and a
:class:`~repro.campaigns.store.CampaignRecord` out.
:func:`execute_campaign` plays the paper's protocol (Sec. 4) on one spec:
build a fresh cloud environment (its own interference realisation), let the
named strategy tune the application, then evaluate the chosen configuration
over ``eval_runs`` executions spread over time.  The runner turns a list of
specs into a list of records, optionally across a fleet of worker
processes; every experiment that runs named strategies goes through it.
Four guarantees hold:

* **Determinism** — a campaign's outcome is a pure function of its spec
  (every seed is a field), so ``jobs > 1`` reproduces serial results bit
  for bit, in any execution order — and retried attempts reproduce the
  attempt they replace.
* **Failure isolation** — a crashing campaign yields a ``"failed"`` record
  (exception summary plus truncated traceback attached) instead of killing
  the sweep.
* **Fault tolerance** — parallel sweeps run on the lease/heartbeat
  dispatcher (:mod:`repro.campaigns.dispatch`): a hard-killed worker's
  campaigns are reclaimed and retried with exponential backoff, hung
  campaigns are killed at ``task_timeout``, and a campaign that exhausts
  its ``max_retries`` budget is quarantined as ``"failed"`` so the sweep
  *completes*.  Inline execution (``jobs=1``) applies the same retry
  policy through the same lease ledger, without a pool.
* **Resume** — with a :class:`~repro.campaigns.store.jsonl.CampaignStore`
  attached, every finished campaign is checkpointed immediately and
  specs whose IDs are already stored as done are skipped, so an
  interrupted sweep continues where it stopped.

A sweep's settings are one :class:`SweepOptions` value, checked when it is
built.  Chaos testing rides the same machinery: pass a seeded
:class:`repro.faults.FaultPlan` (``SweepOptions(fault_plan=...)``,
``--inject-faults`` on the CLI) and chosen attempts crash/hang/fail
deterministically — the converged store must match a fault-free run minus
attempt metadata.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
import traceback as traceback_module
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.apps.model import ApplicationModel
from repro.apps.registry import make_application
from repro.campaigns.dispatch import (
    MAX_JOBS,
    MAX_RETRY_DELAY,
    Dispatcher,
    TaskLedger,
    _pool_context,
    retry_delay,
    worker_lost_message,
)
from repro.campaigns.spec import CampaignSpec, vm_from_field
from repro.campaigns.store import (
    SIDECAR_LEDGER,
    SIDECAR_PROFILES,
    SIDECAR_TELEMETRY,
    STATUS_DONE,
    STATUS_FAILED,
    CampaignRecord,
    CampaignStore,
)
from repro.cloud.environment import CloudEnvironment
from repro.core.config import DarwinGameConfig
from repro.core.tournament import DarwinGame
from repro.errors import ReproError, RetryExhausted, WorkerLost
from repro.faults import FaultPlan
from repro.formats.recipes import tournament_format
from repro.telemetry.events import (
    JsonlEmitter,
    counter as _telemetry_counter,
    gauge as _telemetry_gauge,
    set_emitter,
    span as _telemetry_span,
    telemetry_enabled,
)
from repro.telemetry.profiling import CampaignProfiler
from repro.tuners.active_harmony import ActiveHarmonyLike
from repro.tuners.annealing import SimulatedAnnealingTuner
from repro.tuners.bliss import BlissLike
from repro.tuners.exhaustive import ExhaustiveSearch
from repro.tuners.genetic import GeneticTuner
from repro.tuners.opentuner_like import OpenTunerLike
from repro.tuners.quantile_regression import QuantileRegressionTuner
from repro.tuners.thompson import ThompsonSamplingTuner
from repro.types import ChoiceEvaluation

#: How many frames of a failed campaign's traceback are kept (the last —
#: i.e. innermost — ones; the useful end for debugging a sweep without
#: storing megabytes of text).
TRACEBACK_FRAMES = 20

#: How many times a store append is tried before the failure propagates
#: (checkpoint I/O blips — and injected store faults — are transient).
STORE_APPEND_ATTEMPTS = 3

#: How many built applications a process keeps (least recently used
#: evicted first), so a long-lived daemon serving many ``(app, scale)``
#: pairs holds a bounded set of surface tables.
APP_CACHE_SIZE = 16

_APPS: "OrderedDict[Tuple[str, object], ApplicationModel]" = OrderedDict()


def cached_application(name: str, scale) -> ApplicationModel:
    """This process's shared application instance for ``(name, scale)``.

    Every campaign gets its application here, and so should anything that
    needs an application's metadata in the same process (the CLI's ``tune``
    table, a driver's ``optimal.true_time``): campaigns of one process
    share the instance and the surface values its memo has computed.
    Built on first use through the registry, then served from a bounded
    LRU of :data:`APP_CACHE_SIZE` entries.  Each lookup lands one
    ``app_cache.hit`` or ``app_cache.miss`` telemetry counter.  A forked
    dispatch worker inherits the instances its parent holds and builds
    the others at their first campaign; a spawned one builds all of its
    own.
    """
    key = (name, scale)
    app = _APPS.get(key)
    if app is not None:
        _APPS.move_to_end(key)
        _telemetry_counter("app_cache.hit", app=name)
        return app
    _telemetry_counter("app_cache.miss", app=name)
    app = make_application(name, scale=scale)
    _APPS[key] = app
    while len(_APPS) > APP_CACHE_SIZE:
        _APPS.popitem(last=False)
    return app


def clear_app_cache() -> None:
    """Drop every application :func:`cached_application` holds (the
    test-fixture hook)."""
    _APPS.clear()


def default_jobs() -> int:
    """A sensible ``--jobs`` for this machine (all visible cores)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _truncated_traceback(exc: BaseException) -> str:
    """The last :data:`TRACEBACK_FRAMES` frames of ``exc``'s traceback.

    A negative ``limit`` keeps the *innermost* frames — the ones that name
    the failing line — which is what debugging a stored sweep needs.
    """
    return "".join(
        traceback_module.format_exception(
            type(exc), exc, exc.__traceback__, limit=-TRACEBACK_FRAMES
        )
    )


#: How each tuning strategy is built from its seed and tournament format,
#: in the order the paper's figures list them (Fig. 10's tuners first, then
#: the extra baselines).  Only ``DarwinGame`` has a tournament shape; the
#: other tuners run identically under every format.
_TUNERS: Dict[str, Callable[[int, str], object]] = {
    "DarwinGame": lambda seed, fmt: DarwinGame(
        DarwinGameConfig(seed=seed).with_format(fmt)
    ),
    "Exhaustive": lambda seed, fmt: ExhaustiveSearch(seed=seed),
    "BLISS": lambda seed, fmt: BlissLike(seed=seed),
    "OpenTuner": lambda seed, fmt: OpenTunerLike(seed=seed),
    "ActiveHarmony": lambda seed, fmt: ActiveHarmonyLike(seed=seed),
    "QuantileRegression": lambda seed, fmt: QuantileRegressionTuner(seed=seed),
    "ThompsonSampling": lambda seed, fmt: ThompsonSamplingTuner(seed=seed),
    "GeneticAlgorithm": lambda seed, fmt: GeneticTuner(seed=seed),
    "SimulatedAnnealing": lambda seed, fmt: SimulatedAnnealingTuner(seed=seed),
}

#: Every strategy a campaign may name: the ``"Optimal"`` oracle, then the
#: tuners above.
SUPPORTED_STRATEGIES = ("Optimal",) + tuple(_TUNERS)


def _run_protocol(spec: CampaignSpec, attempt: int) -> CampaignRecord:
    """Tune once under ``spec`` and evaluate the chosen configuration.

    The application is this process's shared instance
    (:func:`cached_application`).  The environment is built from the
    spec's VM, seed, start time and scenario; both tuning and the
    ``eval_runs``-execution evaluation run in it.  ``"Optimal"`` is the
    infeasible oracle: the configuration with the lowest
    dedicated-environment time, charged zero tuning cost and evaluated in
    the dedicated environment, which a scenario cannot touch.  The tuner
    seed defaults to the environment seed; ``tuner_seed`` decouples them.
    The format is checked for every strategy, so a typo fails even where
    the format does not apply.
    """
    app = cached_application(spec.app, spec.scale)
    tournament_format(spec.format)
    env = CloudEnvironment(
        vm_from_field(spec.vm), seed=spec.seed, start_time=spec.start_time,
        scenario=spec.scenario,
    )
    if spec.strategy == "Optimal":
        point = app.optimal
        return CampaignRecord(
            spec=spec,
            status=STATUS_DONE,
            best_index=point.index,
            evaluation=ChoiceEvaluation(
                index=point.index,
                mean_time=point.true_time,
                cov_percent=0.0,
                min_time=point.true_time,
                max_time=point.true_time,
                true_time=point.true_time,
                sensitivity=point.sensitivity,
                runs=0,
            ),
            attempts=attempt,
        )
    try:
        make_tuner = _TUNERS[spec.strategy]
    except KeyError:
        raise ReproError(
            f"unknown strategy {spec.strategy!r}; available: "
            f"{list(SUPPORTED_STRATEGIES)}"
        ) from None
    seed = spec.seed if spec.tuner_seed is None else spec.tuner_seed
    result = make_tuner(seed, spec.format).tune(app, env)
    return CampaignRecord(
        spec=spec,
        status=STATUS_DONE,
        best_index=result.best_index,
        core_hours=result.core_hours,
        tuning_seconds=result.tuning_seconds,
        evaluation=env.measure_choice(
            app, result.best_index, runs=spec.eval_runs
        ),
        result=result,
        attempts=attempt,
    )


def execute_campaign(
    spec: CampaignSpec,
    attempt: int = 1,
    *,
    fault_plan: Optional[FaultPlan] = None,
    profile_dir: Optional[Union[str, Path]] = None,
    in_worker: bool = False,
) -> CampaignRecord:
    """Run one campaign attempt to its terminal record; never raises.

    This is the single choke point every sweep goes through: fire
    ``fault_plan``'s fault for this attempt (chaos runs), then play the
    protocol (:func:`_run_protocol`).  Exceptions become ``"failed"``
    records — with the exception summary and a truncated traceback
    attached — so one bad cell cannot take down a fleet.  ``attempt``
    (1-based) is the dispatcher's retry counter; it selects which injected
    fault fires and is stamped on the record, and nothing else depends on
    it — an attempt's *result* is a pure function of the spec.
    ``in_worker`` is true only in a dispatcher worker, the one place a
    ``crash``/``sigkill``/``hang`` fault may kill or stall the process.

    Observability wraps the choke point rather than living inside it: the
    whole attempt runs under a ``campaign.execute`` telemetry span and —
    given a ``profile_dir`` — a :mod:`cProfile` capture dumped there.
    Both are no-ops unless an operator opted in, and neither can change
    the record.
    """
    profiler = CampaignProfiler(profile_dir, spec.campaign_id, attempt)
    with profiler, _telemetry_span(
        "campaign.execute",
        campaign=spec.campaign_id,
        attempt=attempt,
        app=spec.app,
        strategy=spec.strategy,
    ):
        try:
            if fault_plan is not None:
                fault_plan.inject(
                    spec.campaign_id, attempt, in_worker=in_worker
                )
            return _run_protocol(spec, attempt)
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            return CampaignRecord(
                spec=spec,
                status=STATUS_FAILED,
                error=f"{type(exc).__name__}: {exc}",
                traceback=_truncated_traceback(exc),
                attempts=attempt,
            )


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one :meth:`CampaignRunner.run` call.

    ``records`` is aligned with the submitted specs (input order), mixing
    freshly executed campaigns with ones replayed from the store.
    ``retries`` counts re-executions beyond each campaign's first attempt
    (0 on a fault-free sweep).
    """

    records: List[CampaignRecord]
    executed: int
    skipped: int
    wall_seconds: float
    jobs: int
    retries: int = 0

    @property
    def failures(self) -> List[CampaignRecord]:
        return [r for r in self.records if not r.ok]

    @property
    def campaigns_per_minute(self) -> float:
        """Executed-campaign throughput (resume skips excluded).

        ``0.0`` when no wall time elapsed (e.g. an all-skipped resume) —
        a zero, not an ``inf``, so reports and BENCH rows stay finite.
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        return 60.0 * self.executed / self.wall_seconds

    def raise_on_failure(self) -> "SweepReport":
        """Drivers that aggregate cannot tolerate holes; fail loudly."""
        if self.failures:
            summary = "; ".join(
                f"{r.campaign_id}: {r.error}" for r in self.failures[:5]
            )
            message = f"{len(self.failures)} campaign(s) failed — {summary}"
            if all(
                r.error.startswith(RetryExhausted.__name__)
                for r in self.failures
            ):
                raise RetryExhausted(message)
            raise ReproError(message)
        return self


ProgressFn = Callable[[int, int, CampaignRecord], None]


def _finite(value) -> bool:
    """Whether ``value`` is a number a float holds: not NaN, not ±inf, not
    an int too large to convert, and not ``None`` or another non-number."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


@dataclass(frozen=True)
class SweepOptions:
    """How a grid is executed — everything orthogonal to *what* runs.

    The one declaration of a sweep's settings, which
    :class:`CampaignRunner` reads.  Every check runs here, when the value
    is built, so each entry point refuses bad settings before it binds,
    queues or runs anything.  ``SweepOptions()`` is the plain serial sweep.

    Args:
        jobs: worker processes; ``1`` executes inline (no pool).  An
            integer in [1, :data:`~repro.campaigns.dispatch.MAX_JOBS`]
            (256).
        max_retries: re-executions granted after a campaign's first failed
            attempt (crash, hang, or ordinary exception); past the budget
            the campaign is quarantined as ``"failed"`` and the sweep goes
            on without it.  An integer >= 0.
        backoff: base of the exponential retry delay — retry *k* waits
            ``backoff * 2**(k-1)`` seconds, at most
            :data:`~repro.campaigns.dispatch.MAX_RETRY_DELAY` (60 s); a
            base outside [0, 60] is refused.
        task_timeout: seconds a leased campaign may run before its worker
            is presumed hung and killed; ``0`` disables.  Only enforced on
            the parallel path — inline there is no second process to do
            the killing.
        telemetry: record this sweep's event stream.  ``True`` journals to
            the store's ``.telemetry`` sidecar (requires a store); a path
            journals there explicitly.  Off (the default) the bus stays
            the no-op emitter — one flag check per instrumented site.
        profile: capture per-campaign :mod:`cProfile` stats.  ``True``
            dumps into the store's ``.profiles`` directory (requires a
            store); a path dumps there explicitly.  The directory is
            passed to every attempt, inline and in every worker.
        fault_plan: optional :class:`repro.faults.FaultPlan` injecting
            deterministic chaos into every attempt (passed to
            :func:`execute_campaign` inline and in every worker).
    """

    jobs: int = 1
    max_retries: int = 2
    backoff: float = 0.1
    task_timeout: float = 0.0
    telemetry: Union[bool, str, Path] = False
    profile: Union[bool, str, Path] = False
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        # A float or bool count passes the range checks below, and an
        # infinite retry budget retries a failing campaign forever.
        for name in ("jobs", "max_retries"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ReproError(
                    f"{name} must be an integer, got {value!r} "
                    f"(fix --{name.replace('_', '-')})"
                )
        # The dispatcher forks one worker per eligible campaign up to
        # `jobs`; checked here, so `serve` refuses its defaults before it
        # binds and a request's options get a 400 before any job queues.
        if not 1 <= self.jobs <= MAX_JOBS:
            raise ReproError(
                f"jobs must be in [1, {MAX_JOBS}], got {self.jobs} "
                f"(fix --jobs)"
            )
        if self.max_retries < 0:
            raise ReproError(
                f"max_retries must be >= 0, got {self.max_retries} "
                f"(fix --max-retries)"
            )
        # An infinite backoff never lets a retry come due, which wedges
        # the dispatcher (and the service's one executor thread with it);
        # every retry waits at most MAX_RETRY_DELAY, so a larger base is
        # a typo.
        if not 0 <= self.backoff <= MAX_RETRY_DELAY:
            raise ReproError(
                f"backoff must be a finite number in "
                f"[0, {MAX_RETRY_DELAY:g}] seconds, got {self.backoff} "
                f"(fix --backoff)"
            )
        # The dispatcher maps any timeout <= 0 to "off"; only 0 means that.
        if not (_finite(self.task_timeout) and self.task_timeout >= 0):
            raise ReproError(
                f"task_timeout must be a finite number >= 0 (0 disables), "
                f"got {self.task_timeout} (fix --task-timeout)"
            )


class CampaignRunner:
    """Executes campaign fleets; the scheduling layer every sweep uses.

    Args:
        options: the sweep's settings (:class:`SweepOptions`); ``None`` is
            ``SweepOptions()``, the plain serial sweep.
        store: optional checkpoint
            :class:`~repro.campaigns.store.jsonl.CampaignStore`; enables
            skip-done resume and per-campaign durability.  The runner
            holds the store's advisory lock while executing, so two
            concurrent sweeps cannot silently interleave appends.
            Every sweep, serial or parallel, journals its lease ledger to
            the store's ``ledger`` sidecar.
        progress: optional callback ``(finished_count, total, record)``
            invoked as campaigns complete (store replays excluded).
    """

    def __init__(
        self,
        options: Optional[SweepOptions] = None,
        *,
        store: Optional[CampaignStore] = None,
        progress: Optional[ProgressFn] = None,
    ):
        self.options = options if options is not None else SweepOptions()
        self.store = store
        self.progress = progress
        self.telemetry_path = self._sidecar("telemetry", SIDECAR_TELEMETRY)
        self.profile_dir = self._sidecar("profile", SIDECAR_PROFILES)

    def _sidecar(self, what: str, kind: str) -> Optional[Path]:
        """Resolve the bool-or-path opt-in ``options.<what>`` to its
        concrete location.

        ``True`` asks the store where its ``kind`` sidecar lives (next to
        the store file).
        """
        setting = getattr(self.options, what)
        if not setting:
            return None
        if isinstance(setting, (str, Path)):
            return Path(setting)
        if self.store is None:
            raise ReproError(
                f"{what}=True derives its path from the store; "
                f"without one, pass an explicit path"
            )
        return self.store.sidecar_path(kind)

    def run(self, specs: Iterable[CampaignSpec], *, grid=None) -> SweepReport:
        """Execute every spec (or recall it from the store); see class docs.

        ``grid`` (a :class:`~repro.campaigns.spec.CampaignGrid`) is recorded
        as the store's header line *inside* the store lock — callers must
        not write it themselves, or two racing sweeps could both see an
        empty store and leave it with one sweep's header over the other's
        records.
        """
        specs = list(specs)
        ids = [s.campaign_id for s in specs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ReproError(f"duplicate campaign specs submitted: {dupes[:3]}")

        t0 = time.perf_counter()
        guard = (
            self.store.exclusive()
            if self.store is not None
            else contextlib.nullcontext()
        )
        retries = 0
        # The sidecar emitter is installed for this sweep (and only this
        # sweep) and restored on the way out, so nested/later runs in the
        # same process see exactly what they configured themselves.
        sweep_emitter = None
        previous_emitter = None
        if self.telemetry_path is not None:
            sweep_emitter = JsonlEmitter(self.telemetry_path)
            previous_emitter = set_emitter(sweep_emitter)
        try:
            with guard:
                results: Dict[int, CampaignRecord] = {}
                pending: List[Tuple[int, CampaignSpec]] = []
                if self.store is not None:
                    if grid is not None:
                        self.store.write_grid(grid)
                    stored = self.store.lookup(specs)
                else:
                    stored = {}
                for index, spec in enumerate(specs):
                    record = stored.get(spec.campaign_id)
                    if record is not None and record.ok:
                        results[index] = record
                    else:
                        pending.append((index, spec))

                skipped = len(specs) - len(pending)
                total = len(pending)
                finished = 0
                if telemetry_enabled():
                    _telemetry_gauge("sweep.campaigns_total", float(len(specs)))
                    _telemetry_gauge("sweep.campaigns_pending", float(total))
                    _telemetry_counter("sweep.start", jobs=self.options.jobs)
                for index, record in self._execute(pending):
                    results[index] = record
                    finished += 1
                    retries += max(0, record.attempts - 1)
                    if telemetry_enabled():
                        # The sidecar's terminal campaign events: replaying
                        # them (last write per campaign wins) must agree
                        # with `report --failures` over the store itself.
                        _telemetry_counter(
                            "campaign.done" if record.ok else "campaign.failed",
                            campaign=record.campaign_id,
                            attempt=record.attempts,
                        )
                        if record.core_hours:
                            _telemetry_counter(
                                "campaign.core_hours",
                                value=float(record.core_hours),
                                campaign=record.campaign_id,
                            )
                    if self.store is not None:
                        self._append_with_retry(record)
                    if self.progress is not None:
                        self.progress(finished, total, record)
                if telemetry_enabled():
                    _telemetry_gauge("sweep.retries", float(retries))
                    _telemetry_counter("sweep.end", jobs=self.options.jobs)
        finally:
            if sweep_emitter is not None:
                set_emitter(previous_emitter)
                sweep_emitter.close()

        return SweepReport(
            records=[results[i] for i in range(len(specs))],
            executed=total,
            skipped=skipped,
            wall_seconds=time.perf_counter() - t0,
            jobs=self.options.jobs,
            retries=retries,
        )

    def _append_with_retry(self, record: CampaignRecord) -> None:
        """Checkpoint one record, riding out transient append failures.

        The injected store-fault stream fires here (in the parent, where
        checkpointing happens); real-world ``OSError`` blips get the same
        treatment.  Persistent failure propagates — losing checkpoints
        silently would break the resume contract.
        """
        plan = self.options.fault_plan
        for append_attempt in range(1, STORE_APPEND_ATTEMPTS + 1):
            try:
                if plan is not None and plan.store_fault(
                    record.campaign_id, append_attempt
                ):
                    from repro.errors import FaultInjected

                    raise FaultInjected(
                        f"injected store-append failure (campaign "
                        f"{record.campaign_id}, append attempt {append_attempt})"
                    )
                self.store.append(record)
                return
            except (OSError, ReproError):
                if append_attempt == STORE_APPEND_ATTEMPTS:
                    raise
                time.sleep(retry_delay(self.options.backoff, append_attempt))

    def _execute(self, pending: Sequence[Tuple[int, CampaignSpec]]):
        if not pending:
            return
        # One lease ledger for both paths, journaled beside the store, so
        # `repro status` sees a serial sweep's running campaign and pace
        # the way it sees a parallel one's.
        ledger = TaskLedger(
            journal_path=(
                self.store.sidecar_path(SIDECAR_LEDGER)
                if self.store is not None
                else None
            ),
            max_retries=self.options.max_retries,
            backoff=self.options.backoff,
        )
        if self.options.jobs == 1 or len(pending) == 1:
            yield from self._execute_inline(pending, ledger)
        else:
            yield from self._execute_dispatched(pending, ledger)

    def _execute_inline(
        self, pending: Sequence[Tuple[int, CampaignSpec]], ledger: TaskLedger
    ):
        """No-pool execution under the same lease ledger and retry policy.

        Every attempt is leased to worker 0, beats its lease while it runs
        (as a dispatched worker does), and is settled by ``ledger``
        (:meth:`~repro.campaigns.dispatch.TaskLedger.settle`), which
        decides between completion, a retry and quarantine.
        Process-killing faults degrade to raised exceptions inline (see
        :mod:`repro.faults`), so the convergence contract — and the stored
        bytes minus attempt metadata — are identical to the dispatched
        path.
        """
        for _, spec in pending:
            ledger.register(spec.campaign_id)
        for index, spec in pending:
            while True:
                attempt = ledger.lease(spec.campaign_id, 0, time.monotonic())
                with ledger.beating(spec.campaign_id):
                    record = execute_campaign(
                        spec, attempt=attempt, fault_plan=self.options.fault_plan,
                        profile_dir=self.profile_dir,
                    )
                settled = ledger.settle(record, time.monotonic())
                if settled is not None:
                    yield index, settled
                    break
                if self.options.backoff > 0:
                    time.sleep(retry_delay(self.options.backoff, attempt))

    def _execute_dispatched(
        self, pending: Sequence[Tuple[int, CampaignSpec]], ledger: TaskLedger
    ):
        dispatcher = Dispatcher(
            min(self.options.jobs, len(pending)),
            ledger,
            task_timeout=self.options.task_timeout or None,
            fault_plan=self.options.fault_plan,
            # Workers forward their events over the dispatch pipe whenever
            # this process's bus is live (however it was enabled).
            telemetry=telemetry_enabled(),
            profile_dir=(
                str(self.profile_dir) if self.profile_dir is not None else None
            ),
        )
        yield from dispatcher.run(pending)


def parallel_map(fn: Callable, items: Sequence, *, jobs: int = 1) -> list:
    """Order-preserving map over a worker pool (``fn`` must be picklable).

    The generic sibling of :class:`CampaignRunner` for grid-shaped work
    that is not a tuning campaign (format-power trial chunks).  Unlike
    campaigns, exceptions propagate — these jobs are cheap to re-run and a
    hole would corrupt the aggregate.  A worker that dies without
    reporting (hard kill, OOM) raises
    :class:`~repro.errors.WorkerLost` with the dispatcher's diagnosis
    instead of the pool's bare ``BrokenProcessPool``.  ``jobs`` is bounded
    like a sweep's, by :data:`~repro.campaigns.dispatch.MAX_JOBS`, before
    any pool is built.
    """
    items = list(items)
    if not 1 <= jobs <= MAX_JOBS:
        raise ReproError(
            f"jobs must be in [1, {MAX_JOBS}], got {jobs} (fix --jobs)"
        )
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = _pool_context()
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items)), mp_context=ctx
    ) as pool:
        try:
            return list(pool.map(fn, items, chunksize=1))
        except BrokenProcessPool:
            raise WorkerLost(
                worker_lost_message(
                    "during parallel_map; the batch is cheap to re-run — "
                    "retry it (and check dmesg for the OOM killer if it "
                    "recurs)"
                )
            ) from None
