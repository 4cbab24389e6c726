"""Sec. 3.2 claim: quantile regression and Thompson sampling also fall short.

The paper's design discussion asserts that classical statistical ways of
handling variability — quantile regression and Thompson sampling — remain
"significantly less effective" than DarwinGame under cloud interference.
This bench regenerates that comparison with the same evaluation protocol as
the headline figures (execution time of the pick, CoV over 100 cloud runs).
"""

import numpy as np

from repro.experiments import (
    paper_vs_measured,
    render_table,
    run_statistical_comparison,
)

APPS = ("redis", "lammps")
REPEATS = 3
SEED = 0


def grid(runner):
    return run_statistical_comparison(
        APPS, scale="bench", repeats=REPEATS, seed=SEED, runner=runner
    )


def test_sec32_statistical_methods(once, claims_runner):
    result = once(lambda: grid(claims_runner))
    print()
    rows = []
    for app in APPS:
        for strategy in ("Optimal", "DarwinGame", "QuantileRegression",
                         "ThompsonSampling", "BLISS"):
            r = result.row(app, strategy)
            rows.append((
                app, strategy, r.mean_time, r.gap_vs_optimal_percent, r.cov_percent,
            ))
    print(render_table(
        ["app", "strategy", "exec time (s)", "gap vs optimal %", "CoV %"],
        rows,
        title="Sec. 3.2 — statistical noise-handling methods vs DarwinGame",
    ))

    dg_gaps = [result.row(app, "DarwinGame").gap_vs_optimal_percent for app in APPS]
    stat_gaps = [
        result.row(app, s).gap_vs_optimal_percent
        for app in APPS
        for s in ("QuantileRegression", "ThompsonSampling")
    ]
    print(paper_vs_measured(
        "statistical methods vs DarwinGame",
        "significantly less effective",
        f"stat-methods gap {np.mean(stat_gaps):.1f}% vs DarwinGame {np.mean(dg_gaps):.1f}%",
        np.mean(stat_gaps) > 2.0 * max(np.mean(dg_gaps), 1.0),
    ))
    # Every statistical method, on every app, must trail DarwinGame.
    for app in APPS:
        dg = result.row(app, "DarwinGame").mean_time
        for s in ("QuantileRegression", "ThompsonSampling"):
            assert result.row(app, s).mean_time > dg, f"{s} beat DarwinGame on {app}"
    # And their picks must be visibly noisier than DarwinGame's.
    dg_cov = np.mean([result.row(app, "DarwinGame").cov_percent for app in APPS])
    stat_cov = np.mean([
        result.row(app, s).cov_percent
        for app in APPS for s in ("QuantileRegression", "ThompsonSampling")
    ])
    assert dg_cov < stat_cov
