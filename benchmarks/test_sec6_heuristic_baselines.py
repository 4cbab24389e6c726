"""Sec. 6 framing: heuristic methods also assume a stable environment.

The related work groups genetic algorithms and simulated annealing among
the established heuristic tuning approaches, and the paper's thesis applies
to them unchanged: their fitness/acceptance tests run on noisy solo
measurements, so cloud interference corrupts their search just as it
corrupts the model-based tuners.  This bench runs both heuristics through
the standard evaluation protocol next to DarwinGame.
"""

import numpy as np

from repro.campaigns import cached_application, repeat_specs
from repro.experiments import paper_vs_measured, render_table

STRATEGIES = ("DarwinGame", "GeneticAlgorithm", "SimulatedAnnealing")
REPEATS = 3


def grid(runner):
    optimal = cached_application("redis", "bench").optimal.true_time
    rows = []
    for strategy in STRATEGIES:
        specs = repeat_specs("redis", strategy, repeats=REPEATS, seed=0)
        runs = runner.run(specs).raise_on_failure().records
        mean_time = float(np.mean([r.mean_time for r in runs]))
        rows.append({
            "strategy": strategy,
            "mean_time": mean_time,
            "gap": 100.0 * (mean_time - optimal) / optimal,
            "cov": float(np.mean([r.cov_percent for r in runs])),
        })
    return rows


def test_heuristic_baselines(once, claims_runner):
    rows = once(lambda: grid(claims_runner))
    print()
    print(render_table(
        ["strategy", "exec time (s)", "gap vs optimal %", "CoV %"],
        [(r["strategy"], r["mean_time"], r["gap"], r["cov"]) for r in rows],
        title="Sec. 6 — heuristic baselines under cloud interference (Redis)",
    ))
    by_name = {r["strategy"]: r for r in rows}
    dg = by_name["DarwinGame"]
    for name in ("GeneticAlgorithm", "SimulatedAnnealing"):
        h = by_name[name]
        print(paper_vs_measured(
            f"{name} trails DarwinGame",
            "interference-unaware heuristics are suboptimal",
            f"gap {h['gap']:.1f}% vs {dg['gap']:.1f}%, CoV {h['cov']:.1f}% vs {dg['cov']:.1f}%",
            h["gap"] > dg["gap"] and h["cov"] > dg["cov"],
        ))
        assert h["mean_time"] > dg["mean_time"]
        assert h["cov"] > dg["cov"]
