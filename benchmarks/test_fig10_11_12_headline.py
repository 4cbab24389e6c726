"""Figs. 10, 11 and 12: the headline comparison on all four applications.

The three figures share one experiment grid: every strategy tunes every
application several times; we report execution time of the chosen
configuration, its CoV over 100 cloud runs, and tuning core-hours as a
percentage of exhaustive search.  The grid runs once, through the session's
store; the later figures read it back.
"""

import numpy as np

from repro.experiments import paper_vs_measured, render_table, run_headline

APPS = ("redis", "gromacs", "ffmpeg", "lammps")
REPEATS = 3
SEED = 0


def grid(runner):
    return run_headline(
        APPS, scale="bench", repeats=REPEATS, seed=SEED, runner=runner
    )


def test_fig10_execution_time(once, claims_runner):
    result = once(lambda: grid(claims_runner))
    print()
    rows = []
    for app in APPS:
        for strategy in ("Optimal", "DarwinGame", "Exhaustive", "BLISS",
                         "OpenTuner", "ActiveHarmony"):
            r = result.row(app, strategy)
            rows.append((app, strategy, r.mean_time, r.time_low, r.time_high))
    print(render_table(
        ["app", "strategy", "exec time (s)", "low", "high"],
        rows,
        title="Fig. 10 — execution time of the chosen configuration",
    ))
    gaps, next_best_gaps = [], []
    for app in APPS:
        optimal = result.row(app, "Optimal").mean_time
        dg = result.row(app, "DarwinGame").mean_time
        others = [
            result.row(app, s).mean_time
            for s in ("Exhaustive", "BLISS", "OpenTuner", "ActiveHarmony")
        ]
        gaps.append(100 * (dg - optimal) / optimal)
        next_best_gaps.append(100 * (min(others) - optimal) / optimal)
        assert dg <= min(others) * 1.02, f"DarwinGame not best on {app}"
    print(paper_vs_measured(
        "DarwinGame vs optimal", "+4.2% on average",
        f"+{np.mean(gaps):.1f}% on average", np.mean(gaps) < 15.0,
    ))
    print(paper_vs_measured(
        "next-best tuner vs optimal", ">40% above optimal",
        f"+{np.mean(next_best_gaps):.1f}% on average", np.mean(next_best_gaps) > 10.0,
    ))


def test_fig11_cov(once, claims_runner):
    result = once(lambda: grid(claims_runner))
    print()
    rows = []
    for app in APPS:
        for strategy in ("DarwinGame", "Exhaustive", "BLISS", "OpenTuner",
                         "ActiveHarmony"):
            r = result.row(app, strategy)
            rows.append((app, strategy, r.cov_percent))
    print(render_table(
        ["app", "strategy", "CoV %"],
        rows,
        title="Fig. 11 — CoV of execution time with the chosen configuration",
    ))
    dg_covs = [result.row(app, "DarwinGame").cov_percent for app in APPS]
    other_covs = [
        result.row(app, s).cov_percent
        for app in APPS
        for s in ("Exhaustive", "BLISS", "OpenTuner", "ActiveHarmony")
    ]
    print(paper_vs_measured(
        "DarwinGame CoV", "0.46%", f"{np.mean(dg_covs):.2f}%",
        np.mean(dg_covs) < 1.5,
    ))
    print(paper_vs_measured(
        "other solutions' CoV", ">6%", f"{np.mean(other_covs):.1f}% on average",
        np.mean(other_covs) > 5.0,
    ))
    assert np.mean(dg_covs) < np.mean(other_covs) / 3.0


def test_fig12_core_hours(once, claims_runner):
    result = once(lambda: grid(claims_runner))
    print()
    rows = []
    for app in APPS:
        for strategy in ("DarwinGame", "BLISS", "OpenTuner", "ActiveHarmony"):
            r = result.row(app, strategy)
            rows.append((app, strategy, r.core_hours, r.core_hours_pct_of_exhaustive))
    print(render_table(
        ["app", "strategy", "core-hours", "% of exhaustive"],
        rows,
        title="Fig. 12 — tuning cost (core-hours, % of exhaustive search)",
    ))
    cheapest_count = 0
    for app in APPS:
        dg = result.row(app, "DarwinGame").core_hours
        others = [
            result.row(app, s).core_hours
            for s in ("BLISS", "OpenTuner", "ActiveHarmony")
        ]
        cheapest_count += dg <= min(others)
        pct = result.row(app, "DarwinGame").core_hours_pct_of_exhaustive
        assert pct < 12.0, f"DarwinGame cost on {app} is {pct:.1f}% of exhaustive"
    print(paper_vs_measured(
        "DarwinGame needs the fewest core-hours", "in most cases",
        f"cheapest on {cheapest_count} of {len(APPS)} apps", cheapest_count >= 3,
    ))
    assert cheapest_count >= 2
