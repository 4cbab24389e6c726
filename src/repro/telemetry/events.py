"""The telemetry event bus: typed JSONL spans, counters, and gauges.

Every instrumented site in the stack — the match executor's round play
path, the campaign runner's lifecycle and its application LRU's
``app_cache.hit``/``app_cache.miss`` counters, the dispatcher's lease
protocol, the fault injector — funnels through :func:`emit_event` here.
The bus has exactly one hot-path cost when telemetry is off (the
default): reading one module-global ``enabled`` flag.  Nothing is
formatted, allocated, or written until an operator opts in, which is how
the layer keeps the ARM-MTE lesson — overhead claims are only credible
when the measurement layer itself is near-zero-cost.

Emitters:

* :class:`NullEmitter` — the default; ``enabled`` is False and every site
  short-circuits before building an event.
* :class:`JsonlEmitter` — appends events to a ``<store>.telemetry``
  sidecar, one JSON object per line, flushed per event (the same
  crash-tolerant journal discipline as the dispatch ledger).
* :class:`PipeEmitter` — the worker side: forwards each event payload over
  the worker's existing dispatch pipe; the parent merges every worker's
  stream into the one sidecar, stamping worker IDs.
* :class:`BufferEmitter` — in-memory capture for tests and in-process
  inspection.

Events are plain JSON (``kind="telemetry"``), so a sidecar can be replayed
into a metrics registry or the status view by any process, any time —
no live sweep required.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

PathLike = Union[str, Path]

#: The ``kind`` discriminator telemetry lines carry in a JSONL sidecar
#: (lease events use ``"lease_event"``, campaign results
#: ``"campaign_record"`` — one namespace, three writers).
EVENT_KIND = "telemetry"

#: Event types the bus carries.
TYPE_SPAN = "span"
TYPE_COUNTER = "counter"
TYPE_GAUGE = "gauge"


@dataclass(frozen=True)
class TelemetryEvent:
    """One bus event, as journaled.

    ``value`` is the event's one number: elapsed seconds for a span, the
    increment for a counter, the level for a gauge.  ``campaign`` /
    ``attempt`` tie execution events to the sweep's unit of work;
    ``worker`` is stamped by the parent when merging a worker's stream.
    ``fields`` carries low-cardinality context (a phase label, a fault
    kind, a game count) — never anything results depend on.
    """

    name: str
    type: str = TYPE_COUNTER
    value: float = 1.0
    wall: float = 0.0
    pid: int = 0
    worker: Optional[int] = None
    campaign: Optional[str] = None
    attempt: Optional[int] = None
    fields: Dict[str, object] = field(default_factory=dict)

    def to_payload(self) -> dict:
        """One JSONL line's worth of plain JSON."""
        payload: Dict[str, object] = {
            "kind": EVENT_KIND,
            "name": self.name,
            "type": self.type,
            "value": self.value,
            "wall": self.wall,
            "pid": self.pid,
        }
        if self.worker is not None:
            payload["worker"] = self.worker
        if self.campaign is not None:
            payload["campaign"] = self.campaign
        if self.attempt is not None:
            payload["attempt"] = self.attempt
        if self.fields:
            payload["fields"] = dict(self.fields)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "TelemetryEvent":
        """Rebuild an event written by :meth:`to_payload`."""
        return cls(
            name=str(payload["name"]),
            type=str(payload.get("type", TYPE_COUNTER)),
            value=float(payload.get("value", 1.0)),
            wall=float(payload.get("wall", 0.0)),
            pid=int(payload.get("pid", 0)),
            worker=payload.get("worker"),
            campaign=payload.get("campaign"),
            attempt=payload.get("attempt"),
            fields=dict(payload.get("fields") or {}),
        )


# -- emitters ----------------------------------------------------------


class NullEmitter:
    """The disabled bus: every instrumented site short-circuits on it."""

    enabled = False

    def emit_payload(self, payload: dict) -> None:  # pragma: no cover
        """Never called — sites check ``enabled`` first."""

    def close(self) -> None:
        pass


class JsonlEmitter:
    """Appends events to a JSONL journal, one flushed line per event.

    The handle stays open for the emitter's lifetime (a sweep), so the
    per-event cost is one ``json.dumps`` + one buffered write + flush —
    the same discipline as the dispatch ledger's journal.
    """

    enabled = True

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")

    def emit_payload(self, payload: dict) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class PipeEmitter:
    """The worker side of the bus: events ride the dispatch pipe home.

    ``send`` is the worker's one serialised pipe sender (shared with the
    heartbeat thread); each event becomes a ``("telemetry", worker_id,
    payload)`` message the parent merges into the sidecar.  A worker
    SIGKILLed mid-send loses at most the event in flight — the sidecar's
    truncation-tolerant reader skips any partial line.
    """

    enabled = True

    def __init__(self, send: Callable[[tuple], None], worker_id: int):
        self._send = send
        self._worker_id = worker_id

    def emit_payload(self, payload: dict) -> None:
        self._send(("telemetry", self._worker_id, payload))

    def close(self) -> None:
        pass


class BufferEmitter:
    """In-memory event capture (tests, in-process inspection)."""

    enabled = True

    def __init__(self) -> None:
        self.payloads: List[dict] = []

    def emit_payload(self, payload: dict) -> None:
        self.payloads.append(payload)

    def events(self) -> List[TelemetryEvent]:
        return [TelemetryEvent.from_payload(p) for p in self.payloads]

    def close(self) -> None:
        pass


#: The one shared disabled emitter (identity-compared by reset logic).
NULL_EMITTER = NullEmitter()

_EMITTER = NULL_EMITTER


def set_emitter(new_emitter) -> object:
    """Install the process's bus emitter; returns the previous one.

    The runner installs a :class:`JsonlEmitter` for a telemetry-enabled
    sweep and restores the previous emitter afterwards; dispatch workers
    install a :class:`PipeEmitter` at bring-up.
    """
    global _EMITTER
    previous = _EMITTER
    _EMITTER = new_emitter if new_emitter is not None else NULL_EMITTER
    return previous


def emitter():
    """The active bus emitter (the :data:`NULL_EMITTER` when disabled)."""
    return _EMITTER


def telemetry_enabled() -> bool:
    """The one flag every instrumented site checks before doing anything."""
    return _EMITTER.enabled


def emit_event(
    name: str,
    *,
    type: str = TYPE_COUNTER,
    value: float = 1.0,
    campaign: Optional[str] = None,
    attempt: Optional[int] = None,
    worker: Optional[int] = None,
    **fields: object,
) -> None:
    """Emit one event onto the bus (no-op while telemetry is disabled)."""
    if not _EMITTER.enabled:
        return
    payload = TelemetryEvent(
        name=name,
        type=type,
        value=float(value),
        wall=time.time(),
        pid=os.getpid(),
        worker=worker,
        campaign=campaign,
        attempt=attempt,
        fields=fields,
    ).to_payload()
    _EMITTER.emit_payload(payload)


def counter(name: str, value: float = 1.0, **kwargs: object) -> None:
    """Emit a counter increment (no-op while disabled)."""
    if not _EMITTER.enabled:
        return
    emit_event(name, type=TYPE_COUNTER, value=value, **kwargs)  # type: ignore[arg-type]


def gauge(name: str, value: float, **kwargs: object) -> None:
    """Emit a gauge level (no-op while disabled)."""
    if not _EMITTER.enabled:
        return
    emit_event(name, type=TYPE_GAUGE, value=value, **kwargs)  # type: ignore[arg-type]


@contextmanager
def span(
    name: str,
    *,
    campaign: Optional[str] = None,
    attempt: Optional[int] = None,
    **fields: object,
):
    """Time a block and emit it as a span event (no-op while disabled)."""
    if not _EMITTER.enabled:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        emit_event(
            name,
            type=TYPE_SPAN,
            value=time.perf_counter() - t0,
            campaign=campaign,
            attempt=attempt,
            **fields,  # type: ignore[arg-type]
        )


# -- reading journals back ---------------------------------------------


def iter_jsonl_payloads(path: PathLike) -> Iterator[dict]:
    """Yield the parseable dict lines of a JSONL journal, skipping damage.

    The one truncation-tolerant reader behind the telemetry sidecar, the
    dispatch ledger, and the campaign store: a journal may be cut at *any*
    byte offset — mid-line, mid-first-line, even mid-UTF-8-sequence (a
    worker SIGKILLed mid-write stops wherever the kernel stopped it) — and
    the surviving prefix of complete lines must still parse.  Reading with
    ``errors="replace"`` keeps a torn multi-byte character from raising
    ``UnicodeDecodeError`` before line splitting even starts; the mangled
    line then fails JSON parsing and is skipped like any other tear, as is
    a line nested past the JSON decoder's recursion limit.
    """
    path = Path(path)
    if not path.exists():
        return
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except (json.JSONDecodeError, RecursionError):
                continue
            if isinstance(payload, dict):
                yield payload


def read_telemetry(path: PathLike) -> List[TelemetryEvent]:
    """Parse a telemetry sidecar back into events (truncation-tolerant)."""
    return [
        TelemetryEvent.from_payload(payload)
        for payload in iter_jsonl_payloads(path)
        if payload.get("kind") == EVENT_KIND
    ]
