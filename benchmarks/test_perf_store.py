"""Store benchmark: append throughput and resume-scan latency.

Pushes ~10k synthetic campaign records through the JSONL campaign store,
measures append throughput and the fresh-process resume scan
(``completed_ids()`` on a cold store object — exactly what ``repro
resume`` pays before it can skip done work), and records one BENCH.jsonl
row per phase.  There is no gate: the rows track the store's cost on a
store far larger than any documented workflow writes.

Run via ``scripts/bench.sh``, or directly::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_store.py -s
"""

import json
import os
import platform
import time

import pytest

from repro.campaigns import CampaignSpec, open_store
from repro.campaigns.store.record import CampaignRecord, STATUS_DONE

#: Synthetic records — enough that the full-file parse dominates fixed
#: costs, small enough for CI.
_RECORDS = 10_000

#: Resume-scan repetitions; best-of rides out jitter.
_SCAN_ROUNDS = 3


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


def _row(phase: str, seconds: float, count: int) -> dict:
    return {
        "benchmark": f"store_{phase}_10k",
        "date": time.strftime("%Y-%m-%d"),
        # Kept so these rows stay comparable with the trajectory's earlier
        # jsonl rows (bench.sh matches rows on every non-measured field).
        "backend": "jsonl",
        "records": count,
        "wall_seconds": round(seconds, 4),
        "records_per_second": round(count / seconds, 1) if seconds > 0 else 0.0,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


@pytest.mark.benchmark
def test_store_append_and_scan(tmp_path):
    records = _synthetic_records(_RECORDS)
    done_ids = {r.campaign_id for r in records}
    path = tmp_path / "bench.jsonl"
    store = open_store(path)

    start = time.perf_counter()
    for record in records:
        store.append(record)
    _record(_row("append", time.perf_counter() - start, _RECORDS))

    # The resume scan: a fresh process (fresh store object, cold
    # snapshot) asking "what can I skip?".
    best = None
    for _ in range(_SCAN_ROUNDS):
        fresh = open_store(path)
        start = time.perf_counter()
        completed = fresh.completed_ids()
        elapsed = time.perf_counter() - start
        assert completed == done_ids
        if best is None or elapsed < best:
            best = elapsed
    _record(_row("resume_scan", best, _RECORDS))
