"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at *bench*
scale (spaces of 1e5-3e5 points instead of millions) and prints the same
rows/series the paper reports, plus [OK]/[DIFF] paper-vs-measured lines.
Run the claims tier (every benchmark but the perf gates) with::

    PYTHONPATH=src python -m pytest benchmarks/ \
        --ignore-glob='benchmarks/test_perf_*' -s -q
"""

import pytest

from repro.campaigns import CampaignRunner, SweepOptions, open_store


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def _run(fn):
        return run_once(benchmark, fn)

    return _run


@pytest.fixture(scope="session")
def claims_runner(tmp_path_factory):
    """The runner every campaign-shaped claim runs through: two workers
    over one store, fresh each session.

    Each campaign then runs once per session, and a claim whose campaigns
    an earlier claim already ran reads them back from the store.  A test
    run alone still computes everything it needs.
    """
    store = open_store(tmp_path_factory.mktemp("claims") / "claims.jsonl")
    return CampaignRunner(SweepOptions(jobs=2), store=store)
