"""In-memory span recorder and the layer wrappers of the traced run.

The program itself carries no tracing: this module wraps the public entry
points of each layer from the outside, records one span per call (name,
start, end, parent span, run id, a few attributes) in memory, and writes
every process's spans to its own JSON file when that process ends.  Forked
worker processes inherit the wrappers; each child starts an empty buffer
and flushes it from a multiprocessing finalizer at exit.

Targets avoid code that is slated for removal (``repro.xp``,
``repro.backend``, ``core/stacked.py``, ``simulate_colocated_rounds`` and
the sharded store).  A target that no longer exists raises
:class:`MissingTarget` naming it, so a renamed layer can never read as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional


class MissingTarget(RuntimeError):
    """A layer entry point the tracer was told to wrap does not exist."""


class Tracer:
    """Per-process span buffer; one instance per traced process."""

    def __init__(self, out_dir: Path, run_id: str):
        self.out_dir = Path(out_dir)
        self.run_id = run_id
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: List[list] = []
        self.last_book = None
        self._flushed = False

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def end(self, token, name: str, attrs: Optional[dict] = None) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()
        self.spans.append(
            [sid, name, start, end, parent, threading.get_ident(), attrs]
        )

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (process start, import)."""
        self.spans.append(
            [next(self._ids), name, start, end, 0, threading.get_ident(), None]
        )

    # -- process lifecycle -----------------------------------------------

    def after_fork(self) -> None:
        """Worker side of a fork: drop the parent's spans, flush at exit."""
        self.spans = []
        self._local = threading.local()
        self._flushed = False
        multiprocessing.util.Finalize(self, Tracer.flush, args=(self,), exitpriority=100)

    def flush(self) -> Optional[Path]:
        if self._flushed:
            return None
        self._flushed = True
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        payload = {
            "run_id": self.run_id,
            "pid": os.getpid(),
            "fields": ["id", "name", "start", "end", "parent", "thread", "attrs"],
            "spans": self.spans,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.rename(path)
        return path


# -- wrapping ------------------------------------------------------------


def _span_function(tracer: Tracer, fn: Callable, name: str, attrs_of=None):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            token = tracer.begin()
            try:
                yield from fn(*args, **kwargs)
            finally:
                tracer.end(token, name)

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = tracer.begin()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.end(
                token, name,
                attrs_of(args, kwargs, result) if attrs_of is not None else None,
            )

    return wrapper


def _resolve(module: str, qualname: str):
    try:
        mod = importlib.import_module(module)
    except ImportError as exc:
        raise MissingTarget(f"{module}.{qualname}: {exc}") from None
    *owners, attr = qualname.split(".")
    owner = mod
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingTarget(f"{module}.{qualname}")
    if attr not in getattr(owner, "__dict__", {}):
        raise MissingTarget(f"{module}.{qualname}")
    return owner, attr


def wrap(tracer: Tracer, module: str, qualname: str, name: str, attrs_of=None):
    """Replace ``module.qualname`` (a function or method) by a spanning wrapper."""
    owner, attr = _resolve(module, qualname)
    original = owner.__dict__[attr]
    if isinstance(original, property):
        wrapped = property(_span_function(tracer, original.fget, name, attrs_of))
    elif inspect.isfunction(original):
        wrapped = _span_function(tracer, original, name, attrs_of)
    else:
        raise MissingTarget(f"{module}.{qualname} is not a function")
    setattr(owner, attr, wrapped)


def public_members(cls) -> List[str]:
    """Public methods and properties of ``cls``, found by introspection."""
    names = [
        name for name, value in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, property))
    ]
    names += [n for n in ("__len__", "__contains__") if n in vars(cls)]
    return sorted(names)


# -- the layer map -------------------------------------------------------


def _play_attrs(args, kwargs, reports):
    games = len(reports) if reports is not None else 0
    early = 0
    if reports is not None:
        early = sum(1 for r in reports if r.outcome.early_terminated)
    return {"label": kwargs.get("label", ""), "games": games, "early": early}


def _kernel_attrs(args, kwargs, outcomes):
    return {"games": len(outcomes) if outcomes is not None else 0}


def _tune_attrs(tracer: Tracer):
    def attrs(args, kwargs, result):
        book = tracer.last_book
        return {
            "evaluations": getattr(result, "evaluations", 0),
            "players": len(book) if book is not None else 0,
        }

    return attrs


def _http_attrs(args, kwargs, result):
    handler = args[0]
    return {"tag": handler.headers.get("X-Bench-Request", "")}


#: (module, qualified name, span name, attribute hook) of every wrapped
#: entry point, outermost layer first.  Hooks that need the tracer are
#: built in :func:`install`.
ENGINE_TARGETS = (
    ("repro.core.tournament", "DarwinGame.tune", "core.tune", "tune"),
    ("repro.core.executor", "MatchExecutor.play", "core.play", _play_attrs),
    ("repro.cloud.environment", "CloudEnvironment.run_colocated_batch",
     "cloud.kernel", _kernel_attrs),
    ("repro.cloud.environment", "CloudEnvironment.measure_choice",
     "cloud.eval", None),
    ("repro.cloud.interference", "InterferenceProcess.sample_trajectories",
     "cloud.sample", None),
    ("repro.apps.model", "ApplicationModel.true_time", "apps.surface", None),
    ("repro.apps.model", "ApplicationModel.sensitivity", "apps.surface", None),
)

SERVICE_TARGETS = (
    ("repro.campaigns.runner", "execute_campaign", "campaigns.execute", None),
    ("repro.campaigns.store.jsonl", "CampaignStore.append", "store.append", None),
    ("repro.api", "iter_results", "store.read", None),
    ("repro.api", "job_status", "store.read", None),
    ("repro.api", "fetch_report", "store.read", None),
    ("repro.service.jobs", "JobManager.render_metrics", "telemetry.replay", None),
    ("repro.service.server", "_Handler.do_GET", "http.request", _http_attrs),
    ("repro.service.server", "_Handler.do_POST", "http.request", _http_attrs),
)


def _remember_book(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def remember(self, *args, **kwargs):
        tracer.last_book = self
        return fn(self, *args, **kwargs)

    return remember


def install(tracer: Tracer, *, service: bool) -> List[str]:
    """Wrap every layer entry point; returns the wrapped names.

    ``service`` adds the campaign-runner, store, API, telemetry and HTTP
    layers (the subprocess workloads); the in-process tune workload only
    needs the engine layers.
    """
    targets = list(ENGINE_TARGETS) + (list(SERVICE_TARGETS) if service else [])
    wrapped = []
    for module, qualname, name, hook in targets:
        attrs_of = _tune_attrs(tracer) if hook == "tune" else hook
        wrap(tracer, module, qualname, name, attrs_of)
        wrapped.append(f"{module}.{qualname}")

    from repro.core.records import RecordBook

    members = public_members(RecordBook)
    if not members:
        raise MissingTarget("repro.core.records.RecordBook public methods")
    for member in members:
        wrap(tracer, "repro.core.records", f"RecordBook.{member}", "core.records")
        wrapped.append(f"repro.core.records.RecordBook.{member}")
    original = RecordBook.__dict__["__init__"]
    RecordBook.__init__ = _remember_book(tracer, original)

    # Runs inside each multiprocessing child's bootstrap, after it cleared
    # the finalizers inherited from the parent.
    multiprocessing.util.register_after_fork(tracer, Tracer.after_fork)
    return wrapped


# -- reading spans back --------------------------------------------------


def load_spans(out_dir: Path) -> Dict[int, List[dict]]:
    """Every process's spans under ``out_dir``, keyed by pid."""
    by_pid: Dict[int, List[dict]] = {}
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        payload = json.loads(path.read_text())
        keys = payload["fields"]
        by_pid[payload["pid"]] = [dict(zip(keys, row)) for row in payload["spans"]]
    return by_pid


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span run on its thread and nest, so their durations
    do not overlap and can simply be subtracted.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent in own:
            own[parent] -= s["end"] - s["start"]
    return own
