"""Fig. 3: existing tuners are suboptimal and inconsistent across time."""

from repro.experiments import paper_vs_measured, render_table, run_fig3


def test_fig03_tuner_instability(once):
    result = once(lambda: run_fig3("redis", scale="bench", seed=0))
    print()
    strategies = list(dict.fromkeys(c.strategy for c in result.cells))
    epochs = list(dict.fromkeys(c.epoch_label for c in result.cells))
    table = {(c.strategy, c.epoch_label): c.mean_time for c in result.cells}
    print(render_table(
        ["strategy"] + epochs + ["distinct picks"],
        [
            [s] + [table[(s, e)] for e in epochs] + [result.distinct_choices[s]]
            for s in strategies
        ],
        title="Fig. 3 — execution time when optimized at T1/T2/T3 (Redis)",
    ))
    cloud_tuners = [s for s in strategies if s != "Optimal"]
    worst_gap = max(
        (table[(s, e)] - result.optimal_time) / result.optimal_time
        for s in cloud_tuners for e in epochs
    )
    inconsistent = [s for s in cloud_tuners if result.distinct_choices[s] > 1]
    print(paper_vs_measured(
        "existing tuners far from optimal",
        ">40% above optimal somewhere", f"worst gap {100*worst_gap:.0f}%",
        worst_gap > 0.2,
    ))
    print(paper_vs_measured(
        "selected configuration changes across T1/T2/T3",
        "tuners pick different configs", f"{len(inconsistent)} of {len(cloud_tuners)} tuners inconsistent",
        len(inconsistent) >= 2,
    ))
    assert worst_gap > 0.1
    assert len(inconsistent) >= 1
