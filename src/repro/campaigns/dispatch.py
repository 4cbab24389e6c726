"""Fault-tolerant fleet dispatch: a lease/heartbeat work queue for campaigns.

The :class:`~repro.campaigns.runner.CampaignRunner` used to drive a plain
``multiprocessing.Pool`` — fine on a quiet laptop, fatal on the kind of
preemptible, noisy fleet the paper's campaigns are *about*: a hard-killed
worker wedged the pool, a hung campaign stalled the sweep forever, and a
failure burned its campaign with no retry.  This module replaces that pool
with the architecture ROADMAP item 1 calls for, split the way the opmed
exemplar splits its result store from its optimizer:

* :class:`TaskLedger` — the durable side.  One lease record per campaign
  (state, attempt count, lease holder, last heartbeat, backoff deadline),
  journaled as JSONL alongside the campaign store, kept deliberately
  separate from the execution engine so tomorrow's remote workers can
  lease from the same ledger.
* :class:`Dispatcher` — the engine.  Leases campaign IDs to local worker
  processes over per-worker duplex pipes, monitors their heartbeats,
  reclaims expired leases (worker death *or* task timeout), re-queues
  failed and lost campaigns with exponential backoff, and — once a
  campaign exhausts its retry budget — quarantines it as a ``"failed"``
  record so the sweep *completes* instead of dying.

The runner builds both from its sweep's checked
:class:`~repro.campaigns.runner.SweepOptions`.  Workers start with
``fork`` where the platform offers it, else ``spawn``
(:func:`_pool_context`).

Per-worker pipes, not shared queues, are the load-bearing choice: a worker
SIGKILLed mid-``put`` on a shared ``multiprocessing.Queue`` can die holding
the queue's internal lock and deadlock every sibling, while a killed
worker's pipe simply reads EOF in the parent — which is itself the
liveness signal.  Workers run a daemon heartbeat thread, so a live-but-busy
worker keeps beating while a dead one goes silent *and* hangs up.

Determinism contract: campaign outcomes are pure functions of their specs,
so retries and re-leases change *when* a record is computed, never what it
contains — a chaos run that converges stores the same results as a
fault-free run (modulo the ``attempts`` / ``traceback`` metadata;
see :meth:`repro.campaigns.store.CampaignRecord.stable_payload`).
"""

from __future__ import annotations

import contextlib
import json
import math
import multiprocessing
import os
import pickle
import threading
import time
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import STATUS_FAILED, CampaignRecord
from repro.errors import (
    CampaignTimeout,
    ReproError,
    RetryExhausted,
    WorkerLost,
)
from repro.telemetry.events import (
    counter as _telemetry_counter,
    emitter as _telemetry_emitter,
    iter_jsonl_payloads,
)

#: Ledger lease states.  ``quarantined`` is terminal-failed: the campaign
#: burned its whole retry budget and was surrendered to the store as a
#: ``"failed"`` record (re-runnable via ``resume``, which retries failures).
LEASE_PENDING = "pending"
LEASE_LEASED = "leased"
LEASE_DONE = "done"
LEASE_QUARANTINED = "quarantined"

#: Seconds between a busy worker's heartbeats.
HEARTBEAT_INTERVAL = 0.5

#: Seconds of heartbeat silence after which a live-looking worker is
#: treated as lost (ten missed beats, and never under five seconds).
HEARTBEAT_GRACE = 5.0

#: The longest any retry waits, in seconds: exponential backoff stops
#: doubling here, so no retry budget can make a sweep wait for hours.
MAX_RETRY_DELAY = 60.0

#: The most worker processes one sweep may ask for.  The dispatcher forks
#: one worker per eligible campaign up to ``jobs``, so an unbounded value
#: lets one grid fork thousands; 256 is well above the largest preset VM
#: (96 vCPUs) and any host this code runs on.
MAX_JOBS = 256


def retry_delay(backoff: float, retry: int) -> float:
    """Seconds retry ``retry`` (1-based) waits before it may run.

    ``backoff * 2**(retry-1)``, at most :data:`MAX_RETRY_DELAY`; finite
    for every ``retry``.  The one backoff formula: the ledger's re-queue,
    the inline retry loop and the runner's store-append retries all take
    their delays from here.
    """
    try:
        return min(math.ldexp(backoff, retry - 1), MAX_RETRY_DELAY)
    except OverflowError:  # the uncapped delay is past any float
        return MAX_RETRY_DELAY


def _pool_context():
    """``fork`` where the platform offers it (cheap workers), else spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform
        return multiprocessing.get_context("spawn")


def worker_lost_message(context: str) -> str:
    """The one diagnosis for a dead worker, shared by dispatcher and map.

    A hard-killed worker gives no traceback, so the message has to carry
    the whole story: what it means, what usually causes it, what happens
    next.
    """
    return (
        "WorkerLost: a worker process died without reporting back "
        f"(hard kill, OOM killer, or interpreter crash) {context}"
    )


@dataclass
class LeaseRecord:
    """One campaign's lease state inside the :class:`TaskLedger`.

    ``attempts`` counts leases granted (first execution included);
    ``next_eligible`` is the monotonic-clock instant before which a
    re-queued campaign must not be re-leased (exponential backoff).
    """

    campaign_id: str
    status: str = LEASE_PENDING
    attempts: int = 0
    worker: Optional[int] = None
    leased_at: Optional[float] = None
    last_heartbeat: Optional[float] = None
    next_eligible: float = 0.0
    last_error: str = ""


class TaskLedger:
    """Durable per-campaign lease ledger — the dispatcher's source of truth.

    Owns the retry *policy* (budget + backoff) and the lease *state*; the
    :class:`Dispatcher` owns only execution.  Every state transition is
    journaled as one JSON line (``kind="lease_event"``) when a journal path
    is given, so an operator can reconstruct exactly what the fleet did to
    every campaign: when it was leased, to whom, how often it beat, why it
    came back.  The journal is diagnostic — resume correctness rides on the
    campaign store, so a deleted ledger costs history, never results.

    Args:
        journal_path: JSONL sidecar to append lease events to (None keeps
            the ledger in memory only).
        max_retries: re-executions granted after the first failed attempt;
            a campaign failing ``max_retries + 1`` times is quarantined.
        backoff: base of the exponential re-queue delay — retry *k* waits
            :func:`retry_delay` seconds, ``backoff * 2**(k-1)`` up to
            :data:`MAX_RETRY_DELAY`.
    """

    def __init__(
        self,
        campaign_ids: Sequence[str] = (),
        *,
        journal_path: Optional[Union[str, Path]] = None,
        max_retries: int = 2,
        backoff: float = 0.1,
    ):
        if max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {max_retries}")
        if backoff < 0:
            raise ReproError(f"backoff must be >= 0, got {backoff}")
        self.max_retries = max_retries
        self.backoff = backoff
        self.journal_path = (
            Path(journal_path) if journal_path is not None else None
        )
        self._order: List[str] = []
        self._records: Dict[str, LeaseRecord] = {}
        # Journal appends come from the sweep's thread and, inline, from
        # its heartbeat thread (:meth:`beating`).
        self._journal_lock = threading.Lock()
        for campaign_id in campaign_ids:
            self.register(campaign_id)

    # -- registration and lookup ---------------------------------------

    def register(self, campaign_id: str) -> None:
        if campaign_id in self._records:
            raise ReproError(f"campaign {campaign_id} already in the ledger")
        self._records[campaign_id] = LeaseRecord(campaign_id=campaign_id)
        self._order.append(campaign_id)

    def record(self, campaign_id: str) -> LeaseRecord:
        return self._records[campaign_id]

    def records(self) -> List[LeaseRecord]:
        """Every lease record, in registration order."""
        return [self._records[c] for c in self._order]

    def __len__(self) -> int:
        return len(self._records)

    # -- scheduling ----------------------------------------------------

    def eligible(self, now: float) -> List[str]:
        """Campaigns a worker may lease right now, in registration order."""
        return [
            c for c in self._order
            if self._records[c].status == LEASE_PENDING
            and self._records[c].next_eligible <= now
        ]

    def next_eligible_at(self) -> Optional[float]:
        """Earliest instant a backed-off campaign becomes leasable again."""
        pending = [
            r.next_eligible for r in self._records.values()
            if r.status == LEASE_PENDING
        ]
        return min(pending) if pending else None

    def unfinished(self) -> bool:
        return any(
            r.status in (LEASE_PENDING, LEASE_LEASED)
            for r in self._records.values()
        )

    def retries(self) -> int:
        """Total re-executions granted so far across all campaigns."""
        return sum(max(0, r.attempts - 1) for r in self._records.values())

    # -- state transitions ---------------------------------------------

    def lease(self, campaign_id: str, worker: int, now: float) -> int:
        """Grant the campaign to a worker; returns the attempt number."""
        record = self._records[campaign_id]
        if record.status != LEASE_PENDING:
            raise ReproError(
                f"cannot lease campaign {campaign_id} in state {record.status}"
            )
        record.status = LEASE_LEASED
        record.attempts += 1
        record.worker = worker
        record.leased_at = now
        record.last_heartbeat = now
        self._journal("leased", record)
        return record.attempts

    def heartbeat(self, campaign_id: str, now: float) -> None:
        record = self._records[campaign_id]
        record.last_heartbeat = now
        self._journal("heartbeat", record)

    @contextlib.contextmanager
    def beating(self, campaign_id: str) -> Iterator[None]:
        """Journal a heartbeat every :data:`HEARTBEAT_INTERVAL` inside the block.

        For a campaign run in this process, whose lease no worker beats:
        without it ``repro status`` calls the campaign stalled once it runs
        past ``STALE_LEASE_SECONDS``.  The beat thread is stopped and
        joined before the block's caller journals the outcome.
        """
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(HEARTBEAT_INTERVAL):
                self.heartbeat(campaign_id, time.monotonic())

        thread = threading.Thread(target=beat, daemon=True, name="heartbeat")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def complete(self, campaign_id: str) -> None:
        record = self._records[campaign_id]
        record.status = LEASE_DONE
        record.worker = None
        self._journal("completed", record)

    def requeue(self, campaign_id: str, error: str, now: float) -> str:
        """A leased attempt failed (or was lost); decide its future.

        Returns ``"retry"`` (re-queued with exponential backoff) or
        :data:`LEASE_QUARANTINED` (budget exhausted — surrender it).
        """
        record = self._records[campaign_id]
        record.last_error = error
        record.worker = None
        if record.attempts > self.max_retries:
            record.status = LEASE_QUARANTINED
            self._journal("quarantined", record)
            return LEASE_QUARANTINED
        record.status = LEASE_PENDING
        record.next_eligible = now + retry_delay(self.backoff, record.attempts)
        self._journal("requeued", record)
        return "retry"

    def settle(
        self, record: CampaignRecord, now: float
    ) -> Optional[CampaignRecord]:
        """Decide a finished attempt's outcome: the one place that does.

        Returns ``record`` when it succeeded (its lease completes), the
        quarantined record (:func:`quarantine_record`) once the retry
        budget is spent, and ``None`` when the campaign is re-queued.
        """
        if record.ok:
            self.complete(record.campaign_id)
            return record
        disposition = self.requeue(record.campaign_id, record.error, now)
        if disposition == LEASE_QUARANTINED:
            return quarantine_record(record)
        return None

    # -- journal -------------------------------------------------------

    def _journal(self, event: str, record: LeaseRecord) -> None:
        # Mirror lease transitions onto the telemetry bus (a no-op while
        # telemetry is off).  Heartbeats are skipped: they dominate event
        # volume while carrying no per-campaign story the sidecar needs.
        if event != "heartbeat":
            _telemetry_counter(
                f"lease.{event}",
                campaign=record.campaign_id,
                attempt=record.attempts,
                worker=record.worker,
            )
        if self.journal_path is None:
            return
        payload = {
            "kind": "lease_event",
            "event": event,
            "id": record.campaign_id,
            "status": record.status,
            "attempt": record.attempts,
            "worker": record.worker,
            "wall": time.time(),
        }
        if record.last_error and event in ("requeued", "quarantined"):
            payload["error"] = record.last_error
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        with self._journal_lock:
            with self.journal_path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(payload, sort_keys=True) + "\n")
                handle.flush()

    @staticmethod
    def read_events(path: Union[str, Path]) -> List[dict]:
        """Parse a journal back into its event dicts (truncation-tolerant).

        Tolerant of a journal cut at *any* byte offset — including inside
        the first line, and inside a multi-byte UTF-8 character (which
        used to raise ``UnicodeDecodeError`` before a single line was
        parsed).  :func:`repro.telemetry.events.iter_jsonl_payloads`
        handles both by decoding with ``errors="replace"`` and skipping
        lines that no longer parse.
        """
        return [
            payload
            for payload in iter_jsonl_payloads(path)
            if payload.get("kind") == "lease_event"
        ]


def quarantine_record(record: CampaignRecord) -> CampaignRecord:
    """Stamp a terminally-failed record with its retry history.

    The sweep completes around it (graceful degradation); the prefix makes
    quarantined failures greppable in stores and reports.
    """
    return replace(
        record,
        status=STATUS_FAILED,
        error=(
            f"{RetryExhausted.__name__}: gave up after {record.attempts} "
            f"attempt(s); last error: {record.error or 'worker lost'}"
        ),
    )


def _lost_record(spec: CampaignSpec, attempts: int, error: str) -> CampaignRecord:
    """The record for an attempt that died without reporting back."""
    return CampaignRecord(
        spec=spec, status=STATUS_FAILED, error=error, attempts=attempts
    )


# -- worker side -------------------------------------------------------


def _dispatch_worker(
    worker_id: int,
    conn,
    fault_plan,
    telemetry: bool = False,
    profile_dir: Optional[str] = None,
) -> None:
    """Worker main loop: lease in, heartbeat while busy, result out.

    One duplex pipe to the parent carries everything; a lock serialises
    sends because the daemon heartbeat thread and the main thread share it.
    The worker never exits on its own — only a ``None`` sentinel (orderly
    shutdown) or parent death (pipe EOF) ends the loop, so an EOF in the
    *parent* always means the worker died.

    Every attempt gets the sweep's ``fault_plan`` and ``profile_dir`` as
    arguments, and ``in_worker=True``: only here do process-killing faults
    really kill.  The worker builds an application at its first campaign,
    as an inline sweep does, unless it inherited it from the parent
    (``fork``).  With ``telemetry`` on, the worker installs a
    :class:`~repro.telemetry.events.PipeEmitter` over the same ``send``
    before any campaign — its events, application lookups included, ride
    the dispatch pipe home and the parent merges them into the one
    ``.telemetry`` sidecar, stamped with this worker's ID.
    """
    from repro.campaigns.runner import execute_campaign
    from repro.telemetry.events import PipeEmitter, set_emitter

    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):  # parent gone; die quietly
                os._exit(0)

    if telemetry:
        set_emitter(PipeEmitter(send, worker_id))

    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            send(("heartbeat", worker_id))

    threading.Thread(target=beat, daemon=True, name="heartbeat").start()

    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break  # parent died; nothing left to work for
        if task is None:
            break
        index, spec, attempt = task
        send(("started", worker_id, spec.campaign_id))
        record = execute_campaign(
            spec, attempt=attempt, fault_plan=fault_plan,
            profile_dir=profile_dir, in_worker=True,
        )
        send(("result", worker_id, index, record))
    stop.set()


# -- parent side -------------------------------------------------------


@dataclass
class _Worker:
    """Parent-side view of one worker process."""

    wid: int
    process: object
    conn: object
    lease: Optional[Tuple[int, CampaignSpec, int]] = None  # (index, spec, n)

    @property
    def busy(self) -> bool:
        return self.lease is not None


class Dispatcher:
    """Leases campaigns to worker processes and survives their failure.

    The execution half of the dispatch layer (state lives in the
    :class:`TaskLedger`).  :meth:`run` yields ``(index, record)`` terminal
    outcomes exactly like the runner's old pool path, so the runner's
    store/progress plumbing is untouched — but underneath, every campaign
    is a lease that is heartbeat-monitored, reclaimed on worker death or
    task timeout, retried with exponential backoff, and finally
    quarantined rather than allowed to kill the sweep.

    Args:
        jobs: maximum concurrent worker processes.
        ledger: the (freshly constructed) lease ledger; owns retry policy.
        task_timeout: seconds a lease may run before the worker is presumed
            hung, killed, and the campaign re-queued (None/0 disables).
            Workers beat every :data:`HEARTBEAT_INTERVAL` seconds; silence
            for :data:`HEARTBEAT_GRACE` is treated as a lost worker even if
            the process looks alive.
        fault_plan / profile_dir: handed to every attempt a worker runs.
    """

    def __init__(
        self,
        jobs: int,
        ledger: TaskLedger,
        *,
        task_timeout: Optional[float] = None,
        fault_plan=None,
        telemetry: bool = False,
        profile_dir: Optional[str] = None,
    ):
        if jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {jobs}")
        if task_timeout is not None and task_timeout <= 0:
            task_timeout = None
        self.jobs = jobs
        self.ledger = ledger
        self.task_timeout = task_timeout
        self.fault_plan = fault_plan
        self.telemetry = telemetry
        self.profile_dir = profile_dir
        self._workers: Dict[int, _Worker] = {}
        self._next_wid = 0
        self._specs: Dict[str, Tuple[int, CampaignSpec]] = {}
        # Terminal records produced outside _poll (lease-time worker loss).
        self._orphans: List[Tuple[int, CampaignRecord]] = []

    # -- public entry point --------------------------------------------

    def run(
        self, pending: Sequence[Tuple[int, CampaignSpec]]
    ) -> Iterator[Tuple[int, CampaignRecord]]:
        """Dispatch every pending campaign; yield terminal outcomes.

        Retried attempts are internal — only a success or a quarantined
        failure leaves this generator, so the runner checkpoints exactly
        one record per campaign.
        """
        self._specs = {
            spec.campaign_id: (index, spec) for index, spec in pending
        }
        for _, spec in pending:
            self.ledger.register(spec.campaign_id)
        self._ctx = _pool_context()
        try:
            while self.ledger.unfinished():
                self._lease_eligible(time.monotonic())
                yield from self._poll(time.monotonic())
        finally:
            self._shutdown()

    # -- leasing -------------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        wid = self._next_wid
        self._next_wid += 1
        process = self._ctx.Process(
            target=_dispatch_worker,
            args=(
                wid,
                child_conn,
                self.fault_plan,
                self.telemetry,
                self.profile_dir,
            ),
            daemon=True,
            name=f"repro-dispatch-{wid}",
        )
        process.start()
        # The parent must drop its copy of the child end, or a dead worker
        # never reads as EOF here.
        child_conn.close()
        worker = _Worker(wid=wid, process=process, conn=parent_conn)
        self._workers[wid] = worker
        return worker

    def _idle_worker(self) -> Optional[_Worker]:
        for worker in self._workers.values():
            if not worker.busy:
                return worker
        if len(self._workers) < self.jobs:
            return self._spawn_worker()
        return None

    def _lease_eligible(self, now: float) -> None:
        for campaign_id in self.ledger.eligible(now):
            worker = self._idle_worker()
            if worker is None:
                return
            index, spec = self._specs[campaign_id]
            attempt = self.ledger.lease(campaign_id, worker.wid, now)
            worker.lease = (index, spec, attempt)
            try:
                worker.conn.send((index, spec, attempt))
            except (BrokenPipeError, OSError):
                # Died between spawn/idle and lease; reclaim immediately.
                # A quarantine here is stashed for _poll to emit.
                released = self._release(
                    worker,
                    now,
                    worker_lost_message(
                        f"while being leased campaign {campaign_id}"
                    ),
                )
                self._reap(worker)
                self._orphans.extend(released)

    # -- polling -------------------------------------------------------

    def _poll_timeout(self, now: float) -> float:
        candidates = [now + 0.25]
        wakeup = self.ledger.next_eligible_at()
        if wakeup is not None:
            candidates.append(wakeup)
        for worker in self._workers.values():
            if not worker.busy:
                continue
            record = self.ledger.record(worker.lease[1].campaign_id)
            if self.task_timeout is not None and record.leased_at is not None:
                candidates.append(record.leased_at + self.task_timeout)
            if record.last_heartbeat is not None:
                candidates.append(record.last_heartbeat + HEARTBEAT_GRACE)
        return min(0.25, max(0.02, min(candidates) - now))

    def _poll(self, now: float) -> List[Tuple[int, CampaignRecord]]:
        outcomes: List[Tuple[int, CampaignRecord]] = list(self._orphans)
        self._orphans = []
        timeout = self._poll_timeout(now)
        connections = [w.conn for w in self._workers.values()]
        if connections:
            ready = _connection_wait(connections, timeout)
        else:
            time.sleep(timeout)
            ready = []
        by_conn = {w.conn: w for w in self._workers.values()}
        for conn in ready:
            worker = by_conn.get(conn)
            if worker is None or worker.wid not in self._workers:
                continue
            self._drain(worker, outcomes)
        self._check_liveness(outcomes)
        return outcomes

    def _drain(
        self, worker: _Worker, outcomes: List[Tuple[int, CampaignRecord]]
    ) -> None:
        """Consume every queued message from one worker, EOF-tolerantly."""
        while worker.wid in self._workers:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError, pickle.UnpicklingError):
                self._on_worker_lost(worker, outcomes)
                return
            self._on_message(worker, message, outcomes)

    def _on_message(
        self,
        worker: _Worker,
        message,
        outcomes: List[Tuple[int, CampaignRecord]],
    ) -> None:
        now = time.monotonic()
        kind = message[0]
        if kind == "heartbeat":
            if worker.busy:
                self.ledger.heartbeat(worker.lease[1].campaign_id, now)
        elif kind == "started":
            self.ledger.heartbeat(message[2], now)
        elif kind == "telemetry":
            # A worker's bus event arriving over its pipe: stamp the
            # worker ID and merge it into the parent's sidecar.
            _, wid, payload = message
            payload.setdefault("worker", wid)
            active = _telemetry_emitter()
            if active.enabled:
                active.emit_payload(payload)
        elif kind == "result":
            _, _, index, record = message
            worker.lease = None
            settled = self.ledger.settle(record, now)
            if settled is not None:
                outcomes.append((index, settled))

    # -- failure handling ----------------------------------------------

    def _check_liveness(
        self, outcomes: List[Tuple[int, CampaignRecord]]
    ) -> None:
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if worker.wid not in self._workers:
                continue
            if not worker.process.is_alive():
                # Drain parting messages (a result may have made it out
                # before death), then treat what remains as lost.
                self._drain(worker, outcomes)
                if worker.wid in self._workers:
                    self._on_worker_lost(worker, outcomes)
                continue
            if not worker.busy:
                continue
            _, spec, attempt = worker.lease
            lease = self.ledger.record(spec.campaign_id)
            if (
                self.task_timeout is not None
                and lease.leased_at is not None
                and now - lease.leased_at > self.task_timeout
            ):
                self._expire(
                    worker,
                    f"{CampaignTimeout.__name__}: campaign "
                    f"{spec.campaign_id} exceeded the {self.task_timeout}s "
                    f"task timeout on attempt {attempt} (lease reclaimed, "
                    f"worker {worker.wid} killed)",
                    outcomes,
                )
            elif (
                lease.last_heartbeat is not None
                and now - lease.last_heartbeat > HEARTBEAT_GRACE
            ):
                self._expire(
                    worker,
                    worker_lost_message(
                        f"(no heartbeat for {HEARTBEAT_GRACE:.1f}s) "
                        f"while executing campaign {spec.campaign_id} "
                        f"(attempt {attempt})"
                    ),
                    outcomes,
                )

    def _expire(
        self,
        worker: _Worker,
        error: str,
        outcomes: List[Tuple[int, CampaignRecord]],
    ) -> None:
        """Kill a hung/silent worker and reclaim its lease."""
        try:
            worker.process.kill()
        except (OSError, AttributeError):  # pragma: no cover - already gone
            pass
        worker.process.join(5)
        self._reap(worker)
        outcomes.extend(self._release(worker, time.monotonic(), error))

    def _on_worker_lost(
        self, worker: _Worker, outcomes: List[Tuple[int, CampaignRecord]]
    ) -> None:
        context = "while idle"
        if worker.busy:
            _, spec, attempt = worker.lease
            context = (
                f"while executing campaign {spec.campaign_id} "
                f"(attempt {attempt})"
            )
        self._reap(worker)
        outcomes.extend(
            self._release(worker, time.monotonic(), worker_lost_message(context))
        )

    def _release(
        self, worker: _Worker, now: float, error: str
    ) -> List[Tuple[int, CampaignRecord]]:
        """Requeue (or quarantine) whatever lease a gone worker held."""
        if not worker.busy:
            return []
        index, spec, attempt = worker.lease
        worker.lease = None
        settled = self.ledger.settle(_lost_record(spec, attempt, error), now)
        return [] if settled is None else [(index, settled)]

    def _reap(self, worker: _Worker) -> None:
        """Remove a dead worker from the fleet and release its resources."""
        self._workers.pop(worker.wid, None)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        worker.process.join(0)

    # -- shutdown ------------------------------------------------------

    def _shutdown(self) -> None:
        for worker in self._workers.values():
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers.values():
            worker.process.join(2)
            if worker.process.is_alive():
                try:
                    worker.process.kill()
                except OSError:  # pragma: no cover
                    pass
                worker.process.join(2)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._workers.clear()
