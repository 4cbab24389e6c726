"""The report views' bytes, pinned: every view's JSON and table.

``golden/report_views.json`` holds, for each view :func:`repro.api.
fetch_report` serves, the ``to_json()`` and the default-titled ``table()``
of the fixed synthetic store below (built in code; nothing is tuned).  The
records mix two applications (plus a failing third and a custom VM),
DarwinGame and BLISS, steady and bursty, and the ``darwin`` and
``knockout`` formats, and include a failed campaign, a quarantined
(``RetryExhausted:``) one with a traceback, a recovered retry, and cells
with no reference to measure a gap against (NaN gaps).  Regenerate only
when a view's bytes are meant to change:
``PYTHONPATH=src python tests/test_report_views.py``.
"""

import json
import math
from pathlib import Path

from repro import api
from repro.campaigns import CampaignRecord, CampaignSpec, CampaignStore
from repro.types import ChoiceEvaluation

GOLDEN = Path(__file__).parent / "golden" / "report_views.json"

_BASE_TIME = {"redis": 4.2, "lammps": 1180.5}

_TRACEBACK = (
    "Traceback (most recent call last):\n"
    '  File "runner.py", line 282, in execute_campaign\n'
    "    fault_plan.inject(spec.campaign_id, attempt, in_worker=in_worker)\n"
    "repro.errors.FaultInjected: injected transient fault (attempt 3)\n"
)


def _done(spec: CampaignSpec, k: int, attempts: int = 1) -> CampaignRecord:
    mean = _BASE_TIME[spec.app] * (1.0 + 0.013 * (k % 7)) + k / 7.0
    return CampaignRecord(
        spec=spec,
        status="done",
        best_index=k,
        core_hours=0.1 * k + 1.0 / 3.0,
        tuning_seconds=60.0 * k,
        evaluation=ChoiceEvaluation(
            index=k,
            mean_time=mean,
            cov_percent=1.5 + (k % 5) / 3.0,
            min_time=0.9 * mean,
            max_time=1.1 * mean,
            true_time=0.8 * mean,
            sensitivity=0.01 * k,
            runs=20,
        ),
        attempts=attempts,
    )


def golden_records() -> list:
    """The fixed record list the golden views summarise."""
    records = []
    k = 0
    for app in ("redis", "lammps"):
        for strategy in ("DarwinGame", "BLISS"):
            for scenario in ("steady", "bursty"):
                for fmt in ("darwin", "knockout"):
                    for seed in (0, 1):
                        k += 1
                        spec = CampaignSpec(
                            app=app, strategy=strategy, scale="test",
                            seed=seed, eval_runs=20, scenario=scenario,
                            format=fmt,
                        )
                        attempts = 2 if k % 9 == 8 else 1  # a few recovered
                        records.append(_done(spec, k, attempts))
    # Under diurnal, BLISS runs only the darwin format and DarwinGame only
    # round_robin_playoffs, so neither has a reference cell: each axis
    # view has a row whose gap is NaN.
    for fmt in ("darwin", "round_robin_playoffs"):
        k += 1
        strategy = "BLISS" if fmt == "darwin" else "DarwinGame"
        records.append(_done(CampaignSpec(
            app="redis", strategy=strategy, scale="test", eval_runs=20,
            scenario="diurnal", format=fmt,
        ), k))
    k += 1
    records.append(_done(CampaignSpec(
        app="redis", vm={"name": "custom-4", "vcpus": 4, "family": "m5"},
        scale="test", eval_runs=20,
    ), k))
    records.append(CampaignRecord(
        spec=CampaignSpec(app="ffmpeg", strategy="BLISS", scale="test",
                          eval_runs=20),
        status="failed",
        error="OSError: [Errno 28] No space left on device",
        traceback="Traceback (most recent call last):\n"
                  "OSError: [Errno 28] No space left on device\n",
    ))
    records.append(CampaignRecord(
        spec=CampaignSpec(app="lammps", scale="test", seed=2, eval_runs=20,
                          scenario="bursty", format="knockout"),
        status="failed",
        error=(
            "RetryExhausted: gave up after 3 attempt(s); last error: "
            "FaultInjected: injected transient fault (attempt 3)"
        ),
        traceback=_TRACEBACK,
        attempts=3,
    ))
    return records


def render_views(store) -> dict:
    """Every view of ``store``: its ``to_json()`` and default table."""
    views = {}
    for view in api.REPORT_VIEWS:
        summary = api.fetch_report(store, view=view)
        views[view] = {"json": summary.to_json(), "table": summary.table()}
    return views


def _store(directory: Path) -> CampaignStore:
    store = CampaignStore(directory / "views.jsonl")
    for record in golden_records():
        store.append(record)
    return store


def test_views_match_the_golden_bytes(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    views = render_views(_store(tmp_path))
    assert list(views) == list(golden)
    for view, want in golden.items():
        assert views[view]["json"] == want["json"], view
        assert views[view]["table"] == want["table"], view


def test_golden_covers_what_it_claims():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    payloads = {view: json.loads(golden[view]["json"]) for view in golden}
    for view, gap in (
        ("by-scenario", "vs_darwin_percent"),
        ("by-format", "vs_default_percent"),
    ):
        gaps = [row[gap] for row in payloads[view]["rows"]]
        assert any(math.isnan(g) for g in gaps), view
        assert any(g > 0 for g in gaps), view
    failures = payloads["failures"]
    assert failures["failed"] == 2 and failures["retried"] > 1
    assert [row["quarantined"] for row in failures["rows"]] == [False, True]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        views = render_views(_store(Path(scratch)))
    GOLDEN.write_text(json.dumps(views, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
