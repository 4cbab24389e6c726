"""Property-based tests for the co-located game physics (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.colocation import contention_level, simulate_colocated_batch
from repro.cloud.interference import InterferenceProcess
from repro.cloud.vm import PRESETS
from repro.core.executor import execution_scores_from_work
from repro.rng import ensure_rng

VM = PRESETS["m5.8xlarge"]


def run_game(true_times, sens, seed, d=None):
    return simulate_colocated_batch(
        true_times=np.asarray(true_times, dtype=float),
        sensitivities=np.asarray(sens, dtype=float),
        sizes=[len(true_times)],
        vm=VM,
        interference=InterferenceProcess(VM.interference, seed),
        start_time=0.0,
        rngs=[ensure_rng(seed + 1)],
        work_deviation=d,
        min_work_for_termination=0.25,
    )[0]


players = st.integers(2, 12)
seeds = st.integers(0, 5_000)


@st.composite
def fields(draw):
    """A random game field: matched true-time and sensitivity arrays."""
    k = draw(players)
    times = [draw(st.floats(50.0, 900.0)) for _ in range(k)]
    sens = [draw(st.floats(0.0, 0.95)) for _ in range(k)]
    return times, sens


class TestGameInvariants:
    @given(fields(), seeds)
    @settings(max_examples=60, deadline=None)
    def test_work_fractions_bounded(self, field, seed):
        times, sens = field
        out = run_game(times, sens, seed)
        assert all(0.0 <= w <= 1.0 for w in out.work)

    @given(fields(), seeds)
    @settings(max_examples=60, deadline=None)
    def test_someone_finishes_without_early_termination(self, field, seed):
        times, sens = field
        out = run_game(times, sens, seed, d=None)
        assert any(out.finished)
        assert max(out.work) >= 1.0 - 1e-9

    @given(fields(), seeds)
    @settings(max_examples=60, deadline=None)
    def test_early_termination_never_slower(self, field, seed):
        times, sens = field
        full = run_game(times, sens, seed, d=None)
        early = run_game(times, sens, seed, d=0.10)
        assert early.elapsed <= full.elapsed * 1.01

    @given(fields(), seeds)
    @settings(max_examples=60, deadline=None)
    def test_elapsed_at_least_fastest_true_time(self, field, seed):
        """Interference and contention only ever slow players down."""
        times, sens = field
        out = run_game(times, sens, seed, d=None)
        assert out.elapsed >= min(times) * 0.999

    @given(fields(), seeds)
    @settings(max_examples=60, deadline=None)
    def test_deterministic_given_seeds(self, field, seed):
        times, sens = field
        a = run_game(times, sens, seed)
        b = run_game(times, sens, seed)
        assert a.elapsed == b.elapsed
        assert a.work == b.work

    @given(st.integers(1, 64), st.integers(1, 128))
    @settings(max_examples=60, deadline=None)
    def test_contention_monotone_in_players(self, k, vcpus):
        assert contention_level(k + 1, vcpus) > contention_level(k, vcpus)


class TestExecutionScoreInvariants:
    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=32))
    @settings(max_examples=80, deadline=None)
    def test_scores_normalised(self, work):
        scores = execution_scores_from_work(work)
        assert scores.max() == 1.0
        assert np.all(scores >= 0.0)
        assert np.all(scores <= 1.0)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=32))
    @settings(max_examples=80, deadline=None)
    def test_score_order_matches_work_order(self, work):
        scores = execution_scores_from_work(work)
        assert list(np.argsort(scores)) == list(np.argsort(np.asarray(work)))
