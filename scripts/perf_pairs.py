#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

Run from anywhere inside a checkout::

    python3 scripts/perf_pairs.py --parent REF [--pairs 10] [--seconds 30] \
        [--workloads tune_bench,sweep_cli,serve_jobs] [--trace 0|1] [--seed N]

Extracts REF's committed files into a temporary directory (``git
archive``, so nothing is registered in the repository) and runs
``perfbench/run.py`` there and in this working tree, one run at a time:
pair ``i`` runs seed ``i`` on both sides (every pair runs seed ``N`` with
``--seed N``), and which side runs first alternates from pair to pair.
For every workload and metric it prints each side's median and quartiles
and in how many pairs the change read lower (ties count for neither
side).  ``--trace 0`` (the default) reports the end-to-end metrics, each
with its median gap divided by the parent's interquartile range, and flags
every seed whose ``norm_time``, ``norm_worst`` or ``core_hours`` differ
between the sides; ``--trace 1`` reports perfbench's per-layer metrics of
traced runs the same way.  Beside them it prints how many operations each
run timed (the ``N`` of perfbench's ``<workload>.<op>_p50_s ... # median of
N`` line; for serve_jobs, the jobs served in the fixed window).  It has no gate: it reports, and the reader
judges against ``BENCHMARK.json``.  The temporary directory is removed at
the end.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tune_bench", "sweep_cli", "serve_jobs")
#: Results, not speed: a change that claims to keep them must keep them
#: per seed.
IDENTICAL = ("norm_time", "norm_worst", "core_hours")
#: The row of operations each run timed.
OPERATIONS = "operations/run"
RUN_TIMEOUT_S = 600
#: perfbench's stats line for an operation's median wall, e.g.
#: ``tune_bench.tune_p50_s   0.612 s   # median of 12``.
_OPERATIONS_LINE = re.compile(r"^\S+\.\w+_p50_s\s.*#\s*median of (\d+)\s*$")


def operations(stdout: str) -> Optional[int]:
    """How many operations a run timed, from its ``_p50_s`` stats line."""
    for line in stdout.splitlines():
        match = _OPERATIONS_LINE.match(line.strip())
        if match:
            return int(match.group(1))
    return None


def run_once(
    side: Path, workload: str, seed: int, seconds: float, trace: int = 0
) -> Optional[dict]:
    """One ``perfbench/run.py`` run; its last output line, or ``None``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            command, cwd=side, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"  {workload} seed {seed} in {side}: timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-5:]
        print(f"  {workload} seed {seed} in {side}: exit {proc.returncode}",
              *tail, sep="\n    ", file=sys.stderr)
        return None
    result["operations"] = operations(proc.stdout)
    return result


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.0f}"


def report(workload: str, pairs: List[Dict[str, Optional[dict]]]) -> None:
    """Print one workload's table of pairs.

    The table lists whatever metrics the runs report: the end-to-end ones
    of ``--trace 0`` runs (with a gap/IQR column: the change's median minus
    the parent's, over the parent's interquartile range) or the per-layer
    ones of ``--trace 1`` runs.
    """
    complete = [p for p in pairs if p["parent"] and p["change"]]
    print(f"\n{workload}: {len(complete)} complete pair(s) of {len(pairs)}")
    for side in ("parent", "change"):
        runs = [p[side] for p in pairs if p[side]]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"  {side}: {failed} of {attempted} operations failed, "
              f"{len(pairs) - len(runs)} run(s) lost, "
              f"{sum(not r['correct'] for r in runs)} incorrect")
    if not complete:
        return
    names = list(complete[0]["parent"]["metrics"])
    end_to_end = "op_norm" in names
    columns = {
        name: [[p[side]["metrics"][name]["value"] for p in complete]
               for side in ("parent", "change")]
        for name in names
    }
    counted = [[p[side].get("operations") for p in complete]
               for side in ("parent", "change")]
    if None not in counted[0] + counted[1]:
        columns[OPERATIONS] = counted
    width = max(12, *map(len, columns))
    header = (f"  {'metric':<{width}} {'parent median [q1-q3]':<30} "
              f"{'change median [q1-q3]':<30} {'change lower':<13}")
    print(header + " gap/IQR" if end_to_end else header.rstrip())
    for name, (parent, change) in columns.items():
        lower = sum(c < q for q, c in zip(parent, change))
        (p1, p_median, p3), (c1, c_median, c3) = (
            quartiles(parent), quartiles(change)
        )
        cells = [f"{_fmt(m)} [{_fmt(a)}-{_fmt(b)}]"
                 for a, m, b in ((p1, p_median, p3), (c1, c_median, c3))]
        line = (f"  {name:<{width}} {cells[0]:<30} {cells[1]:<30} "
                f"{f'{lower} of {len(complete)}':<13}")
        if end_to_end and name != OPERATIONS:
            line += (f" {(c_median - p_median) / (p3 - p1):+.2f}"
                     if p3 > p1 else " n/a")
        print(line.rstrip())
    if not end_to_end:
        return
    differing = [
        (p["seed"], name)
        for p in complete for name in IDENTICAL
        if name in p["parent"]["metrics"]
        and p["parent"]["metrics"][name]["value"]
        != p["change"]["metrics"][name]["value"]
    ]
    if differing:
        for seed, name in differing:
            print(f"  DIFFERS: seed {seed} {name}")
    else:
        print(f"  {', '.join(IDENTICAL)} identical on every seed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics of traced runs")
    parser.add_argument("--seed", type=int, default=None,
                        help="run every pair on this seed (default: pair i "
                             "runs seed i)")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown or args.pairs < 1:
        parser.error(f"unknown workload(s) {unknown}" if unknown
                     else "--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as tmp:
        parent_dir = Path(tmp)
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.parent],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive,
                       check=True)
        sides = {"parent": parent_dir, "change": ROOT}
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                seed = i if args.seed is None else args.seed
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair: Dict[str, Optional[dict]] = {"seed": seed}
                for side in order:
                    pair[side] = run_once(
                        sides[side], workload, seed, args.seconds, args.trace
                    )
                    values = (
                        {k: v["value"] for k, v in pair[side]["metrics"].items()}
                        if pair[side] else None
                    )
                    print(f"{workload} seed {seed} {side}: {values}",
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            report(workload, pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
