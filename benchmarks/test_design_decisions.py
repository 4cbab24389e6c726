"""Ablations of this reproduction's own design decisions (DESIGN.md).

Beyond the paper's Fig. 16 ablations, DESIGN.md calls out two choices this
implementation makes and must justify empirically:

* **interleaved regions** — region ``r`` holds every ``n_r``-th index, so a
  region spans the whole lattice.  Contiguous blocks fix the leading (major)
  parameter digits, making a region's members near-clones: early
  termination cannot fire (no work-done gaps) and the tuning cost explodes.
* **sticky per-game unfairness** — the physics term that makes one game an
  imperfect judge.  The tournament must remain accurate despite it (that is
  the whole premise); switching it off must not change the winner quality,
  only make individual games cleaner.
"""

import numpy as np

import repro.cloud.colocation as colocation
from repro.apps import make_application
from repro.campaigns import CampaignSpec, execute_campaign
from repro.cloud import CloudEnvironment
from repro.cloud.vm import DEFAULT_VM
from repro.core import DarwinGame
from repro.core.config import DarwinGameConfig
from repro.experiments import paper_vs_measured, render_table


def run_region_layouts():
    app = make_application("redis", scale="bench")
    out = {}
    for label, interleaved in (("interleaved", True), ("contiguous", False)):
        times, covs, hours = [], [], []
        for seed in (0, 1):
            env = CloudEnvironment(DEFAULT_VM, seed=seed)
            result = DarwinGame(
                DarwinGameConfig(interleaved_regions=interleaved, seed=seed)
            ).tune(app, env)
            evaluation = env.measure_choice(app, result.best_index, runs=100)
            times.append(evaluation.mean_time)
            covs.append(evaluation.cov_percent)
            hours.append(result.core_hours)
        out[label] = {
            "time": float(np.mean(times)),
            "cov": float(np.mean(covs)),
            "hours": float(np.mean(hours)),
        }
    return out


def test_interleaved_vs_contiguous_regions(once):
    result = once(run_region_layouts)
    print()
    print(render_table(
        ["region layout", "exec time (s)", "CoV %", "core-hours"],
        [
            (label, r["time"], r["cov"], r["hours"])
            for label, r in result.items()
        ],
        title="Design decision — region layout (Redis, 2 seeds)",
    ))
    inter, contig = result["interleaved"], result["contiguous"]
    saving = 100.0 * (1.0 - inter["hours"] / contig["hours"])
    print(paper_vs_measured(
        "interleaved regions cut tuning cost",
        "(design expectation: large)",
        f"{saving:.0f}% fewer core-hours at equal quality",
        saving > 30.0 and inter["time"] <= contig["time"] * 1.05,
    ))
    assert inter["hours"] < contig["hours"] * 0.7
    assert inter["time"] <= contig["time"] * 1.05


def test_unfairness_does_not_break_the_tournament(once):
    """The tournament's output quality must survive sticky per-game luck."""

    def run_with_unfairness(std):
        original = colocation._UNFAIRNESS_STD
        colocation._UNFAIRNESS_STD = std
        try:
            run = execute_campaign(
                CampaignSpec(app="redis", scale="bench", seed=3)
            )
        finally:
            colocation._UNFAIRNESS_STD = original
        return run

    noisy = once(lambda: run_with_unfairness(0.03))
    clean = run_with_unfairness(0.0)
    print()
    print(render_table(
        ["game unfairness std", "exec time (s)", "CoV %", "core-hours"],
        [
            ("0.03 (default)", noisy.mean_time, noisy.cov_percent, noisy.core_hours),
            ("0.00 (clean games)", clean.mean_time, clean.cov_percent, clean.core_hours),
        ],
        title="Design decision — sticky per-game unfairness (Redis)",
    ))
    print(paper_vs_measured(
        "tournament tolerates imperfect single games",
        "repeated games absorb per-game luck",
        f"{100 * abs(noisy.mean_time / clean.mean_time - 1):.1f}% quality delta",
        abs(noisy.mean_time / clean.mean_time - 1) < 0.05,
    ))
    assert abs(noisy.mean_time / clean.mean_time - 1) < 0.05
