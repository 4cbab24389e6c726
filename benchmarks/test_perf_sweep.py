"""Sweep-throughput benchmark: the Table-1 grid through the campaign runner.

The ISSUE 2 acceptance workload: run the Table 1 applications (test scale,
two seeds each — 8 campaigns) serially and with ``--jobs 2``, three
alternating runs each, assert every run reproduces serial results bit for
bit, and record campaigns-per-minute of each side's median run in the
BENCH.jsonl perf trajectory (each entry carries its ``jobs`` and the
visible core count).

The parallel speedup assertion is conditional on the machine actually
having more than one visible core — on a single-core runner a process pool
can only add overhead, so there we only bound that overhead.

Run via ``scripts/bench.sh``, or directly::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_sweep.py -s
"""

import json
import os
import platform
import time

import pytest

from repro.campaigns import (
    CampaignRunner,
    SweepOptions,
    default_jobs,
    summarise,
)
from repro.campaigns.runner import clear_app_cache
from repro.experiments.table1 import table1_grid
from repro.telemetry import read_telemetry, reset_telemetry

_JOBS = 2

#: Interleaved repetitions for the telemetry off-vs-on comparison; best-of
#: keeps the row honest on a noisy shared machine.
_ROUNDS = 3

#: Alternating serial/parallel runs behind the ``--jobs`` gate; each side
#: is timed by its median run, so one slow run cannot decide the gate.
_GATE_RUNS = 3


def _fresh_run(jobs: int, specs, telemetry=False):
    """Run the grid with a cold application cache and telemetry bus, so no
    measurement rides state an earlier one left in the process."""
    clear_app_cache()
    reset_telemetry()
    return CampaignRunner(
        SweepOptions(jobs=jobs, telemetry=telemetry),
    ).run(specs)


def _record(payload: dict) -> None:
    payload.setdefault("cores", default_jobs())
    line = json.dumps(payload, sort_keys=True)
    print(f"\n[perf] {line}")
    # An all-skipped resume (0 campaigns in ~0 wall seconds) measures
    # nothing — its throughput is 0.0 by definition, and appending it would
    # poison trajectory comparisons.  Print it, don't record it.
    if payload.get("campaigns", 0) == 0 or payload.get("wall_seconds", 0) <= 0:
        return
    out = os.environ.get("BENCH_JSON")
    if out:
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


def _payloads(records):
    return json.dumps([r.to_payload() for r in records], sort_keys=True)


def _median_run(reports):
    """The run with the median wall time (of an odd number of runs)."""
    return sorted(reports, key=lambda r: r.wall_seconds)[len(reports) // 2]


def _sweep_row(report, *, scenario: str = "steady",
               fmt: str = "darwin",
               benchmark: str = "sweep_table1_test_2seeds") -> dict:
    # Every sweep row names its scenario pack and tournament format, so
    # trajectory entries from dynamic-conditions or alternate-shape sweeps
    # are never mistaken for the baseline grid (see ROADMAP "Performance").
    return {
        "benchmark": benchmark,
        "date": time.strftime("%Y-%m-%d"),
        "jobs": report.jobs,
        "scenario": scenario,
        "format": fmt,
        "campaigns": report.executed,
        "retries": report.retries,
        "wall_seconds": round(report.wall_seconds, 3),
        "campaigns_per_minute": round(report.campaigns_per_minute, 1),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


@pytest.mark.benchmark
def test_sweep_parallel_matches_serial_and_throughput():
    grid = table1_grid(scale="test", seeds=(0, 1), eval_runs=50)
    specs = list(grid.specs())
    assert len(specs) == 8

    serial_runs, parallel_runs = [], []
    for _ in range(_GATE_RUNS):
        serial_runs.append(_fresh_run(1, specs))
        parallel_runs.append(_fresh_run(_JOBS, specs))
    serial, parallel = _median_run(serial_runs), _median_run(parallel_runs)

    # Acceptance: same campaign IDs => same results, bit for bit.
    reference = _payloads(serial.records)
    for report in serial_runs + parallel_runs:
        assert _payloads(report.records) == reference
    assert summarise(serial.records).to_json() \
        == summarise(parallel.records).to_json()

    print(f"\n[perf] median of {_GATE_RUNS} alternating runs: serial "
          f"{serial.wall_seconds:.2f}s, --jobs {_JOBS} "
          f"{parallel.wall_seconds:.2f}s")
    for report in (serial, parallel):
        _record(_sweep_row(report))

    if default_jobs() > 1:
        # With real cores available the pool must beat serial outright.
        assert parallel.wall_seconds < serial.wall_seconds, (
            f"--jobs {_JOBS} sweep (median {parallel.wall_seconds:.2f}s) not "
            f"faster than serial (median {serial.wall_seconds:.2f}s) on a "
            f"{default_jobs()}-core machine"
        )
    else:
        # Single visible core: only bound the pool's overhead.
        assert parallel.wall_seconds < 3.0 * serial.wall_seconds + 1.0, (
            f"worker-pool overhead blew up: serial median "
            f"{serial.wall_seconds:.2f}s vs --jobs {_JOBS} median "
            f"{parallel.wall_seconds:.2f}s"
        )


@pytest.mark.benchmark
def test_sweep_telemetry_overhead_within_noise(tmp_path):
    """ISSUE 7 acceptance: telemetry must observe the sweep, not slow it.

    Runs the Table-1 grid with the event bus off and on (interleaved,
    best-of), asserts the instrumented sweep is bit-identical to the plain
    one and within the 5% noise allowance, and records both rows so the
    trajectory carries the honest measured pair.
    """
    grid = table1_grid(scale="test", seeds=(0, 1), eval_runs=50)
    specs = list(grid.specs())

    off_best = on_best = None
    reference = None
    for round_index in range(_ROUNDS):
        off = _fresh_run(1, specs)
        sidecar = tmp_path / f"round{round_index}.telemetry"
        on = _fresh_run(1, specs, telemetry=sidecar)
        if reference is None:
            reference = _payloads(off.records)
        # The bus must never affect results: instrumented == plain, bit
        # for bit, and the sidecar must hold the per-campaign spans.
        assert _payloads(off.records) == reference
        assert _payloads(on.records) == reference
        spans = [e for e in read_telemetry(sidecar)
                 if e.name == "campaign.execute"]
        assert len(spans) == len(specs)
        if off_best is None or off.wall_seconds < off_best.wall_seconds:
            off_best = off
        if on_best is None or on.wall_seconds < on_best.wall_seconds:
            on_best = on

    _record(dict(_sweep_row(off_best), telemetry="off"))
    _record(dict(_sweep_row(on_best), telemetry="on"))

    # Emission is a flag check plus one JSON line per span/counter — at
    # test scale that is well under scheduler jitter, so gate with a 5%
    # noise allowance.
    assert on_best.wall_seconds <= 1.05 * off_best.wall_seconds, (
        f"telemetry-on sweep ({on_best.wall_seconds:.2f}s) slower than "
        f"telemetry-off ({off_best.wall_seconds:.2f}s) beyond noise"
    )


@pytest.mark.benchmark
def test_sweep_scenario_pack_throughput_and_determinism():
    """ISSUE 4: the scenario axis must stay in the vectorised fast path.

    Runs the Table-1 grid under the ``bursty`` pack, asserts a re-run is
    bit-identical (scenario randomness is seed-deterministic), and records
    the throughput row with its pack name so the trajectory separates
    dynamic-conditions sweeps from steady ones.
    """
    from repro.campaigns import CampaignGrid

    base = table1_grid(scale="test", seeds=(0, 1), eval_runs=50)
    grid = CampaignGrid(**{**base.to_dict(), "scenarios": ("bursty",)})
    specs = list(grid.specs())
    assert len(specs) == 8
    assert all(s.scenario == "bursty" for s in specs)

    first = _fresh_run(1, specs)
    again = _fresh_run(1, specs)
    assert _payloads(first.records) == _payloads(again.records)

    steady = _fresh_run(1, list(base.specs()))
    assert _payloads(first.records) != _payloads(steady.records)

    best = first if first.wall_seconds <= again.wall_seconds else again
    _record(_sweep_row(best, scenario="bursty",
                       benchmark="sweep_table1_test_2seeds_bursty"))

    # The scenario overlay is a vectorised level transform: it must not
    # meaningfully slow the sweep relative to the steady grid.
    assert best.wall_seconds < 1.5 * steady.wall_seconds + 1.0, (
        f"bursty-scenario sweep ({best.wall_seconds:.2f}s) blew up vs "
        f"steady ({steady.wall_seconds:.2f}s)"
    )


@pytest.mark.benchmark
def test_sweep_format_grid_throughput_and_determinism():
    """ISSUE 5: the format axis must stay in the batched fast path.

    Runs the Table-1 grid under the ``knockout`` tournament shape, asserts
    a re-run is bit-identical (the scheduler/executor engine is
    seed-deterministic under every recipe), and records the throughput row
    with its format name so alternate-shape sweeps are never compared
    against default-shape rows.
    """
    from repro.campaigns import CampaignGrid

    base = table1_grid(scale="test", seeds=(0, 1), eval_runs=50)
    grid = CampaignGrid(**{**base.to_dict(), "formats": ("knockout",)})
    specs = list(grid.specs())
    assert len(specs) == 8
    assert all(s.format == "knockout" for s in specs)

    first = _fresh_run(1, specs)
    again = _fresh_run(1, specs)
    assert _payloads(first.records) == _payloads(again.records)

    default = _fresh_run(1, list(base.specs()))
    assert _payloads(first.records) != _payloads(default.records)

    best = first if first.wall_seconds <= again.wall_seconds else again
    _record(_sweep_row(best, fmt="knockout",
                       benchmark="sweep_table1_test_2seeds_knockout"))

    # An alternate shape only swaps which scheduler emits the (few) playoff
    # rounds — it must not meaningfully slow the sweep.
    assert best.wall_seconds < 1.5 * default.wall_seconds + 1.0, (
        f"knockout-format sweep ({best.wall_seconds:.2f}s) blew up vs "
        f"darwin ({default.wall_seconds:.2f}s)"
    )


@pytest.mark.benchmark
def test_resume_after_interruption_reuses_stored_campaigns(tmp_path):
    grid = table1_grid(scale="test", seeds=(0, 1), eval_runs=50)
    specs = list(grid.specs())

    from repro.campaigns import CampaignStore

    store = CampaignStore(tmp_path / "sweep.jsonl")
    store.write_grid(grid)
    runner = CampaignRunner(SweepOptions(jobs=1), store=store)
    runner.run(specs[: len(specs) // 2])

    resumed = CampaignRunner(SweepOptions(jobs=_JOBS), store=store).run(specs)
    assert resumed.skipped == len(specs) // 2
    assert resumed.executed == len(specs) - len(specs) // 2

    fresh = CampaignRunner(SweepOptions(jobs=1)).run(specs)
    assert summarise(resumed.records).to_json() \
        == summarise(fresh.records).to_json()
