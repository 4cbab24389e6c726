"""Sec. 5 resilience claim: DarwinGame's pick survives interference shifts.

The paper argues DarwinGame is resilient to "cloud interference
distribution shifts" because its tournament selects low-sensitivity
configurations.  This bench tunes under the nominal m5.8xlarge profile and
re-evaluates every strategy's pick under profiles whose mean interference
level is raised by up to 1.0 — a drastic noisy-neighbour regime change.
"""

from repro.experiments import paper_vs_measured, render_table
from repro.experiments.shift_study import run_shift_study

SHIFTS = (0.0, 0.25, 0.5, 1.0)


def test_shift_resilience(once, claims_runner):
    result = once(lambda: run_shift_study(
        "redis", shifts=SHIFTS, scale="bench", seed=0, runner=claims_runner
    ))
    print()
    rows = [
        (s, shift, result.row(s, shift).mean_time,
         result.row(s, shift).degradation_percent)
        for s in result.strategies()
        for shift in SHIFTS
    ]
    print(render_table(
        ["strategy", "level shift", "exec time (s)", "degradation %"],
        rows,
        title="Interference distribution shift (Redis, tuned at nominal level)",
    ))

    dg_worst = result.row("DarwinGame", 1.0).degradation_percent
    others_worst = min(
        result.row(s, 1.0).degradation_percent
        for s in result.strategies()
        if s != "DarwinGame"
    )
    print(paper_vs_measured(
        "DarwinGame is resilient to distribution shifts",
        "design components make it resilient",
        f"+{dg_worst:.1f}% at shift 1.0 vs best-other +{others_worst:.1f}%",
        dg_worst < others_worst / 2,
    ))
    assert dg_worst < others_worst
    assert dg_worst < 10.0
    # Degradation must be monotone in the shift for every strategy.
    for s in result.strategies():
        degr = [result.row(s, shift).degradation_percent for shift in SHIFTS]
        assert degr == sorted(degr)
