"""Sec. 5 stability claim: DarwinGame picks the same configuration repeatedly."""

from repro.experiments import paper_vs_measured, render_table, run_stability


def test_pick_stability(once, claims_runner):
    dg = once(lambda: run_stability(
        "redis", strategy="DarwinGame", scale="bench", repeats=10, seed=0,
        runner=claims_runner,
    ))
    bliss = run_stability(
        "redis", strategy="BLISS", scale="bench", repeats=10, seed=0,
        runner=claims_runner,
    )
    print()
    print(render_table(
        ["strategy", "repeats", "distinct picks", "modal pick fraction"],
        [
            (dg.strategy, dg.repeats, dg.distinct_picks, dg.modal_pick_fraction),
            (bliss.strategy, bliss.repeats, bliss.distinct_picks, bliss.modal_pick_fraction),
        ],
        title="Pick stability across repeated tuning campaigns (Redis)",
    ))
    print(paper_vs_measured(
        "DarwinGame picks the same config", "93 of 100 repeats",
        f"modal pick in {dg.modal_pick_fraction:.0%} of {dg.repeats} repeats",
        dg.modal_pick_fraction >= 0.6,
    ))
    print(paper_vs_measured(
        "next-best tuner is unstable", "42 distinct configs in 100 repeats",
        f"{bliss.distinct_picks} distinct configs in {bliss.repeats} repeats",
        bliss.distinct_picks >= dg.distinct_picks,
    ))
    assert dg.modal_pick_fraction >= 0.5
    assert bliss.distinct_picks >= dg.distinct_picks
