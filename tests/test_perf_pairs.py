"""The tables ``scripts/perf_pairs.py`` prints from alternating run pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "perf_pairs.py"


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(metrics, *, failed=0):
    return {
        "correct": failed == 0, "attempted": 3, "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"}
                    for name, value in metrics.items()},
    }


def _pairs(parent, change):
    """Pairs of runs from per-seed metric dicts of each side."""
    return [
        {"seed": seed, "parent": _run(p), "change": _run(c)}
        for seed, (p, c) in enumerate(zip(parent, change))
    ]


def test_end_to_end_table(perf_pairs, capsys):
    parent = [{"op_norm": v, "core_hours": 9.0} for v in (100, 110, 120, 130)]
    change = [{"op_norm": v, "core_hours": 9.0} for v in (90, 95, 100, 112)]
    change[2]["core_hours"] = 9.5
    pairs = _pairs(parent, change) + [{"seed": 4, "parent": None,
                                        "change": _run({"op_norm": 1.0})}]
    perf_pairs.report("tune_bench", pairs)
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "tune_bench: 4 complete pair(s) of 5"
    assert "parent: 0 of 12 operations failed, 1 run(s) lost, 0 incorrect" in out[2]
    header, op_norm = out[4], out[5]
    assert header.split()[-2:] == ["lower", "gap/IQR"]
    # Parent quartiles 102.5, 115, 127.5; change median 97.5: the gap of
    # -17.5 is 0.70 of the parent's interquartile range.
    assert op_norm.split()[:3] == ["op_norm", "115", "[102.5-127.5]"]
    assert op_norm.split()[3] == "97.5"
    assert op_norm.split()[-4:] == ["4", "of", "4", "-0.70"]
    assert out[6].split()[-1] == "n/a"  # core_hours: no parent spread
    assert out[-1] == "  DIFFERS: seed 2 core_hours"


def test_per_layer_table(perf_pairs, capsys):
    parent = [{"cloud.kernel.scan_self_s": v, "core.executor.games": 3491}
              for v in (0.40, 0.45)]
    change = [{"cloud.kernel.scan_self_s": v, "core.executor.games": 3491}
              for v in (0.30, 0.46)]
    perf_pairs.report("tune_bench", _pairs(parent, change))
    out = capsys.readouterr().out.splitlines()
    header, scan, games = out[4:7]
    assert "gap/IQR" not in header
    assert scan.split()[0] == "cloud.kernel.scan_self_s"
    assert scan.split()[-3:] == ["1", "of", "2"]
    assert games.split()[1:3] == ["3491", "[3491-3491]"]
    assert games.split()[-3:] == ["0", "of", "2"]
    assert len(out) == 7  # no identical-results line for layer metrics


_STATS = """\
serve_jobs.setup_s                           0.3312 s
serve_jobs.job_p50_s                          1.812 s        # median of 14
serve_jobs.job_p90_s                          1.934 s
serve_jobs.probe_loop_s                    0.00412 s        # 61 probe samples
serve_jobs.gap_pct                            3.21 %        # mean of 16 campaigns, evaluated mean time
{"correct": true, "failed": 0}
"""


def test_operations_parsed_from_the_stats_line(perf_pairs):
    assert perf_pairs.operations(_STATS) == 14
    # Other "# ... of N" comments are not the operation count.
    assert perf_pairs.operations(_STATS.replace("job_p50_s", "job_mean_s")) is None
    assert perf_pairs.operations("") is None


def test_operations_row_beside_the_medians(perf_pairs, capsys):
    pairs = _pairs([{"op_norm": v} for v in (100, 110, 120)],
                   [{"op_norm": v} for v in (90, 95, 100)])
    for pair, (parent, change) in zip(pairs, [(13, 16), (12, 15), (13, 16)]):
        pair["parent"]["operations"] = parent
        pair["change"]["operations"] = change
    perf_pairs.report("serve_jobs", pairs)
    row = capsys.readouterr().out.splitlines()[6]
    assert row.split() == [
        "operations/run", "13", "[12-13]", "16", "[15-16]", "0", "of", "3",
    ]
