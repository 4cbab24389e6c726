"""Structured observability for fleet-scale campaign sweeps.

A 10,000-campaign sweep used to be a black box between the launch line and
the final summary table — observable only by tailing the ``.ledger``
sidecar by hand.  This package is the instrumentation layer ROADMAP item 1
calls "live progress/ETA reporting", built the way simulator-scale systems
(gem5's stats framework is the canonical exemplar) earn trust: a typed
event stream, a metrics registry replayed from it, and a live status view —
all demonstrably near-zero-cost when disabled and provably incapable of
changing results.

Four modules, one contract:

* :mod:`repro.telemetry.events` — the **event bus**: typed span/counter/
  gauge events emitted from the executor, the runner (its application
  LRU's ``app_cache.*`` counters included), and the dispatcher,
  journaled as JSONL into a ``<store>.telemetry`` sidecar.  Worker events
  ride the existing per-worker dispatch pipes and are merged by the
  parent.  Disabled (the default) the bus is a no-op emitter behind a
  single ``enabled`` flag check.
* :mod:`repro.telemetry.metrics` — the **metrics registry**: counters,
  gauges, and histograms replayed from a sidecar, dumped in text
  exposition format via ``repro report --metrics`` and ``/metrics``.
* :mod:`repro.telemetry.status` — the **live view**: fuses store + ledger
  + telemetry sidecar into done/running/queued/failed counts, throughput,
  and an EWMA-based ETA (``repro status``, ``sweep --progress``).
* :mod:`repro.telemetry.log` — the one stdlib-``logging`` configurator the
  CLI and runner route their progress/status lines through
  (``--verbose`` / ``--quiet``).
* :mod:`repro.telemetry.profiling` — the opt-in per-campaign cProfile
  hook (``sweep --profile``).

The never-affect-results contract: telemetry records wall-clock facts
*about* campaigns, never anything a campaign's outcome depends on; nothing
here touches :meth:`repro.campaigns.store.CampaignRecord.stable_payload`,
and the test suite asserts telemetry-on sweeps are byte-identical to
telemetry-off ones.
"""

from repro.telemetry.events import (
    BufferEmitter,
    JsonlEmitter,
    NullEmitter,
    PipeEmitter,
    TelemetryEvent,
    counter,
    emit_event,
    emitter,
    gauge,
    iter_jsonl_payloads,
    read_telemetry,
    set_emitter,
    span,
    telemetry_enabled,
)
from repro.telemetry.log import configure_logging, get_logger, reset_logging
from repro.telemetry.metrics import MetricsRegistry, render_store_metrics
from repro.telemetry.status import (
    LiveProgress,
    StatusSnapshot,
    render_status,
    sidecar_counts,
    snapshot,
    watch,
)

__all__ = [
    "BufferEmitter",
    "JsonlEmitter",
    "LiveProgress",
    "MetricsRegistry",
    "NullEmitter",
    "PipeEmitter",
    "StatusSnapshot",
    "TelemetryEvent",
    "configure_logging",
    "counter",
    "emit_event",
    "emitter",
    "gauge",
    "get_logger",
    "iter_jsonl_payloads",
    "read_telemetry",
    "render_status",
    "render_store_metrics",
    "reset_logging",
    "reset_telemetry",
    "set_emitter",
    "sidecar_counts",
    "snapshot",
    "span",
    "telemetry_enabled",
    "watch",
]


def reset_telemetry() -> None:
    """Restore every process-global telemetry tier to its boot state.

    The sibling of :func:`repro.campaigns.runner.clear_app_cache` for
    tests: detaches the active emitter (closing it) and de-configures CLI
    logging.
    """
    from repro.telemetry import events

    previous = events.set_emitter(events.NULL_EMITTER)
    if previous is not events.NULL_EMITTER:
        previous.close()
    reset_logging()
