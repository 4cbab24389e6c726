"""Fig. 15: DarwinGame across VM classes and sizes (Redis)."""

from repro.experiments import paper_vs_measured, render_table, run_vm_sweep


def test_fig15_vm_sweep(once, claims_runner):
    result = once(lambda: run_vm_sweep(
        "redis", scale="bench", seed=0, runner=claims_runner
    ))
    print()
    print(render_table(
        ["VM", "vCPUs", "oracle (s)", "DarwinGame (s)", "gap %", "CoV %"],
        [
            (r.vm_name, r.vcpus, r.oracle_time, r.darwin_time,
             r.gap_percent, r.cov_percent)
            for r in result.rows
        ],
        title="Fig. 15 — DarwinGame vs Oracle across instance types (Redis)",
    ))
    print(paper_vs_measured(
        "DarwinGame within 10% of Oracle on every VM", "<=10%",
        f"worst gap {result.worst_gap_percent:.1f}%",
        result.worst_gap_percent < 15.0,
    ))
    print(paper_vs_measured(
        "CoV stays below ~0.5% on every VM", "<0.46%",
        f"worst CoV {result.worst_cov_percent:.2f}%",
        result.worst_cov_percent < 1.5,
    ))
    assert result.worst_gap_percent < 25.0
    assert result.worst_cov_percent < 3.0
