"""Store-backend benchmark: append throughput and resume-scan latency.

The ISSUE 8 acceptance workload: push ~10k synthetic campaign records
through each ``ResultStore`` backend, measure append throughput and the
fresh-process resume scan (``completed_ids()`` on a cold store object —
exactly what ``repro resume`` pays before it can skip done work), and
record one BENCH.jsonl row per backend.

The gate is the reason the SQLite backend exists: its ``completed_ids``
is an ID-only indexed scan, so on a store this size it must beat the
single-file JSONL backend's full-file reparse by at least 5x.

Run via ``scripts/bench.sh``, or directly::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_store.py -s
"""

import json
import os
import platform
import time

import pytest

from repro.campaigns import CampaignSpec, open_store
from repro.campaigns.store import BACKEND_NAMES
from repro.campaigns.store.record import CampaignRecord, STATUS_DONE

#: Synthetic records per backend — enough that read strategy (indexed scan
#: vs full reparse) dominates fixed costs, small enough for CI.
_RECORDS = 10_000

#: Resume-scan repetitions per backend; best-of rides out jitter.
_SCAN_ROUNDS = 3

_PATHS = {"jsonl": "bench.jsonl", "sqlite": "bench.sqlite"}


def _record(payload: dict) -> None:
    line = json.dumps(payload, sort_keys=True)
    print(f"\n[perf] {line}")
    out = os.environ.get("BENCH_JSON")
    if out:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _synthetic_records(count: int):
    """Realistically-shaped done records, cheap to mint by the thousand.

    Tuning a real campaign takes seconds; at 10k records that is the
    benchmark measuring the tuner, not the store.  Seed variation keeps
    every campaign ID distinct (IDs are content hashes of the spec).
    """
    return [
        CampaignRecord(
            spec=CampaignSpec(app="redis", seed=seed, scale="test"),
            status=STATUS_DONE,
            best_index=seed % 97,
            core_hours=1.5,
            tuning_seconds=42.0,
        )
        for seed in range(count)
    ]


def _row(backend: str, phase: str, seconds: float, count: int) -> dict:
    return {
        "benchmark": f"store_{phase}_10k",
        "date": time.strftime("%Y-%m-%d"),
        "backend": backend,
        "records": count,
        "wall_seconds": round(seconds, 4),
        "records_per_second": round(count / seconds, 1) if seconds > 0 else 0.0,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


@pytest.mark.benchmark
def test_store_backend_append_and_scan(tmp_path):
    records = _synthetic_records(_RECORDS)
    done_ids = {r.campaign_id for r in records}
    scan_seconds = {}

    for backend in BACKEND_NAMES:
        path = tmp_path / _PATHS[backend]
        store = open_store(path, backend=backend)

        start = time.perf_counter()
        for record in records:
            store.append(record)
        append_seconds = time.perf_counter() - start
        store.close()
        _record(_row(backend, "append", append_seconds, _RECORDS))

        # The resume scan: a fresh process (fresh store object, cold
        # snapshot) asking "what can I skip?".
        best = None
        for _ in range(_SCAN_ROUNDS):
            fresh = open_store(path, backend=backend)
            start = time.perf_counter()
            completed = fresh.completed_ids()
            elapsed = time.perf_counter() - start
            fresh.close()
            assert completed == done_ids
            if best is None or elapsed < best:
                best = elapsed
        scan_seconds[backend] = best
        _record(_row(backend, "resume_scan", best, _RECORDS))

    # The acceptance gate: the indexed backend must make the resume scan
    # at least 5x cheaper than reparsing the whole single-file store.
    ratio = scan_seconds["jsonl"] / scan_seconds["sqlite"]
    assert ratio >= 5.0, (
        f"sqlite completed_ids ({scan_seconds['sqlite']*1000:.1f}ms) only "
        f"{ratio:.1f}x faster than jsonl "
        f"({scan_seconds['jsonl']*1000:.1f}ms) at {_RECORDS} records; "
        f"the indexed backend must be >= 5x"
    )
