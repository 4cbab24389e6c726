"""Counters, gauges, and histograms over the telemetry event stream.

The registry is the aggregating half of the observability layer: the event
bus journals *what happened*; the registry reduces it to *how much and how
fast*.  It is built by replaying ``<store>.telemetry`` sidecars
(``repro report --metrics``, the daemon's ``/metrics``), never fed while a
sweep runs, so the bus stays as cheap as its journal write.  The mapping
from events to metrics lives in exactly one place,
:meth:`MetricsRegistry.ingest`:

* ``counter`` events add their value to a counter of the same name;
* ``gauge`` events set a gauge of the same name;
* ``span`` events observe their duration into a ``<name>_seconds``
  histogram (count / sum / min / max / log-spaced buckets).

Dumps use the Prometheus text exposition format (``# TYPE`` comments, one
``name value`` sample per line, ``{label="..."}`` selectors), so the output
is both human-scannable and scrapable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Histogram bucket upper bounds (seconds) — log-spaced from fast rounds
#: to stuck campaigns; +Inf is implicit.
DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0)

Labels = Tuple[Tuple[str, str], ...]


def _labels_of(fields: Optional[dict]) -> Labels:
    """Normalise an event's fields into a deterministic label tuple.

    Only strings, bools, and ints become labels — floats are measurements
    (a round's simulated seconds), and keying a metric family per distinct
    float would mint one series per observation.  They stay in the sidecar;
    the registry just doesn't pivot on them.
    """
    if not fields:
        return ()
    items = []
    for key in sorted(fields):
        value = fields[key]
        if isinstance(value, bool):
            items.append((key, "true" if value else "false"))
        elif isinstance(value, (str, int)):
            items.append((key, str(value)))
    return tuple(items)


def _selector(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    """Compact sample formatting: integers stay integral, floats stay short."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(round(float(value), 9))


@dataclass
class Counter:
    """A monotonically increasing sum."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time level (last write wins)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Fixed-bucket distribution of observed values (span durations)."""

    bounds: Tuple[float, ...] = DEFAULT_BUCKETS
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def bucket_totals(self) -> List[Tuple[float, int]]:
        """Cumulative ``le`` buckets, Prometheus style (ends at +Inf)."""
        cumulative, out = 0, []
        for bound, n in zip((*self.bounds, math.inf), self.counts):
            cumulative += n
            out.append((bound, cumulative))
        return out


class MetricsRegistry:
    """A replay's named metrics, keyed by name+labels."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._gauges: Dict[Tuple[str, Labels], Gauge] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge ``name{labels}``, created at 0 on first use."""
        key = (name, _labels_of(labels))
        if key not in self._gauges:
            self._gauges[key] = Gauge()
        return self._gauges[key]

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- the one event -> metric mapping --------------------------------

    def ingest(self, payload: dict) -> None:
        """Fold one telemetry event payload into the registry.

        Shared verbatim by ``report --metrics`` and ``/metrics``, so the
        two views can never disagree about what an event means.
        """
        if payload.get("kind") != "telemetry":
            return
        name = str(payload.get("name", ""))
        if not name:
            return
        event_type = payload.get("type", "counter")
        value = float(payload.get("value", 1.0))
        labels = _labels_of(payload.get("fields"))
        metric_name = name.replace(".", "_")
        if event_type == "span":
            key = (metric_name + "_seconds", labels)
            if key not in self._histograms:
                self._histograms[key] = Histogram()
            self._histograms[key].observe(value)
        elif event_type == "gauge":
            key = (metric_name, labels)
            if key not in self._gauges:
                self._gauges[key] = Gauge()
            self._gauges[key].set(value)
        else:
            key = (metric_name + "_total", labels)
            if key not in self._counters:
                self._counters[key] = Counter()
            self._counters[key].inc(value)

    def replay(self, payloads) -> "MetricsRegistry":
        """Ingest an iterable of journal payloads; returns self."""
        for payload in payloads:
            self.ingest(payload)
        return self

    # -- text exposition -------------------------------------------------

    def render_text(self) -> str:
        """The registry in Prometheus text exposition format.

        Families are sorted by name, samples by label selector, so the
        same events always render the same bytes.
        """
        lines: List[str] = []

        def family(
            kind: str, store: Dict[Tuple[str, Labels], object]
        ) -> None:
            by_name: Dict[str, List[Tuple[Labels, object]]] = {}
            for (name, labels), metric in store.items():
                by_name.setdefault(name, []).append((labels, metric))
            for name in sorted(by_name):
                lines.append(f"# TYPE {name} {kind}")
                for labels, metric in sorted(by_name[name]):
                    selector = _selector(labels)
                    if kind == "histogram":
                        for bound, cumulative in metric.bucket_totals():
                            le = _selector(
                                labels + (("le", _fmt(bound)),)
                            )
                            lines.append(
                                f"{name}_bucket{le} {cumulative}"
                            )
                        lines.append(
                            f"{name}_count{selector} {metric.count}"
                        )
                        lines.append(
                            f"{name}_sum{selector} {_fmt(metric.total)}"
                        )
                        if metric.count:
                            lines.append(
                                f"{name}_min{selector} {_fmt(metric.min)}"
                            )
                            lines.append(
                                f"{name}_max{selector} {_fmt(metric.max)}"
                            )
                    else:
                        lines.append(
                            f"{name}{selector} {_fmt(metric.value)}"
                        )

        family("counter", self._counters)
        family("gauge", self._gauges)
        family("histogram", self._histograms)
        return "\n".join(lines) + ("\n" if lines else "")

    def to_payload(self) -> dict:
        """Plain-JSON snapshot (deterministic; used by tests)."""
        return {
            "counters": {
                name + _selector(labels): metric.value
                for (name, labels), metric in sorted(self._counters.items())
            },
            "gauges": {
                name + _selector(labels): metric.value
                for (name, labels), metric in sorted(self._gauges.items())
            },
            "histograms": {
                name + _selector(labels): {
                    "count": metric.count,
                    "sum": metric.total,
                }
                for (name, labels), metric in sorted(self._histograms.items())
            },
        }


def render_store_metrics(store_path) -> str:
    """Replay a store's telemetry sidecar into text exposition format.

    The engine behind ``repro report <store> --metrics``: reads
    ``<store>.telemetry`` (truncation-tolerantly), folds every event
    through :meth:`MetricsRegistry.ingest`, and dumps the result.  Returns an explanatory line instead when
    the sweep ran without telemetry.
    """
    from repro.campaigns.store import SIDECAR_TELEMETRY, open_store
    from repro.telemetry.events import iter_jsonl_payloads

    path = open_store(store_path).sidecar_path(SIDECAR_TELEMETRY)
    if not path.exists():
        return (
            f"no telemetry sidecar at {path} — run the sweep with "
            f"--telemetry to record one"
        )
    registry = MetricsRegistry().replay(iter_jsonl_payloads(path))
    if not len(registry):
        return f"telemetry sidecar {path} holds no parseable events"
    return registry.render_text()
