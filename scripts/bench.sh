#!/usr/bin/env bash
# Run the perf-regression benchmarks and append each measurement to the
# single BENCH.jsonl perf-trajectory file in the repo root, one JSON object
# per line.  Every entry records the machine conditions it was measured
# under — the visible core count ("cores", ROADMAP's 1-core caveat made
# machine-readable) and for sweep rows the scenario pack ("scenario") — so
# trajectory rows are comparable without reading prose.  Extra arguments
# are passed through to pytest.
#
# Measurements are staged in a temp file and appended to BENCH.jsonl only
# after the whole pytest run succeeds: a failing or crashing benchmark run
# exits non-zero and appends NOTHING, so the trajectory never accumulates
# rows from broken runs.
#
#   scripts/bench.sh            # run all perf benchmarks + append
#   scripts/bench.sh -k wall    # only the tune() wall-time gate
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH.jsonl"

staging="$(mktemp "${TMPDIR:-/tmp}/bench.XXXXXX.jsonl")"
cleanup() {
    status=$?
    rm -f "$staging"
    if [ "$status" -ne 0 ]; then
        echo "bench.sh: FAILED (exit $status) — benchmark run did not" \
             "complete; nothing appended to $out" >&2
    fi
    exit "$status"
}
trap cleanup EXIT

BENCH_JSON="$staging" PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" \
    python -m pytest benchmarks/test_perf_tournament.py \
        benchmarks/test_perf_sweep.py \
        benchmarks/test_perf_store.py -q -s -m benchmark "$@"

# Before/after report: compare each fresh row against the most recent prior
# row of the same benchmark id (same benchmark + same conditions: jobs,
# scenario, format, backend...) so a perf regression or win
# is visible in the run output, not just buried in the trajectory file.
python - "$out" "$staging" <<'PYEOF'
import json, sys

MEASURED = {
    "date", "machine", "python", "wall_seconds", "records_per_second",
    "campaigns_per_minute", "core_hours", "tuning_seconds",
    "speedup_vs_seed_baseline", "retries", "winner_index", "evaluations",
}
RATES = ("campaigns_per_minute", "records_per_second")

def rows(path):
    try:
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except FileNotFoundError:
        return []

def bench_id(row):
    # New rows carry no executor or cache axis; defaulting them to the
    # process path and a cold cache keeps them comparable with historic
    # rows and never with those of the removed stacked executor or warm
    # disk cache.
    row = dict(row)
    row.setdefault("exec_mode", "process")
    row.setdefault("cache", "cold")
    return tuple(sorted((k, row[k]) for k in row if k not in MEASURED))

history = {}
for row in rows(sys.argv[1]):
    history[bench_id(row)] = row  # last same-id row wins

for row in rows(sys.argv[2]):
    prev = history.get(bench_id(row))
    conds = ", ".join(
        f"{k}={v}" for k, v in sorted(row.items())
        if k not in MEASURED and k != "benchmark"
    )
    label = row.get("benchmark", "?") + (f" [{conds}]" if conds else "")
    rate = next((k for k in RATES if k in row), None)
    if prev is None:
        print(f"  {label}: first measurement "
              f"(wall {row.get('wall_seconds', '?')}s)")
        continue
    if rate and rate in prev:
        new, old = row[rate], prev[rate]
        pct = 100.0 * (new - old) / old if old else 0.0
        print(f"  {label}: {old} -> {new} {rate.replace('_per_', '/')} "
              f"({pct:+.1f}% vs {prev.get('date', '?')})")
    else:
        new, old = row.get("wall_seconds"), prev.get("wall_seconds")
        if new is not None and old is not None:
            pct = 100.0 * (new - old) / old if old else 0.0
            print(f"  {label}: {old}s -> {new}s wall "
                  f"({pct:+.1f}% vs {prev.get('date', '?')})")
PYEOF

cat "$staging" >> "$out"
echo "perf trajectory appended to $out ($(wc -l < "$staging") row(s))"
