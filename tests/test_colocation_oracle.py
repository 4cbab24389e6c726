"""The round kernel against the one-game-at-a-time oracle (Sec. 3.2, Fig. 5).

``oracle.colocation`` plays each game alone, one segment at a time, on the
same per-game generators.  Rounds here mix player counts and horizons (so
the kernel pads), mix early-terminated and finished games, need more than
one horizon, or replay a trace.  Stop decisions must be identical; work,
elapsed time and mean level agree to 1e-12 (the kernel sums work per
block, the oracle per segment).  Every outcome the kernel's array-backed
sequence builds is also the one ``oracle.reports`` builds eagerly from the
same arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle.colocation import simulate_round
from oracle.reports import eager_outcomes
from repro.cloud.colocation import simulate_colocated_batch
from repro.cloud.interference import InterferenceProcess
from repro.cloud.traces import InterferenceTrace, ReplayedInterference
from repro.cloud.vm import PRESETS, InterferenceProfile
from repro.rng import ensure_rng

VM = PRESETS["m5.8xlarge"]
SETTINGS = settings(max_examples=40, deadline=None)

# A burst in every segment, decaying over 30 s: the level settles near 6,
# far above the mean level and fast fluctuation a game's horizon is sized
# for, so sensitive games take several horizons to finish.
STORMY = InterferenceProfile(
    mean_level=0.05, fast_std=0.01, fast_tau=60.0, diurnal_amplitude=0.0,
    drift_std=0.0, burst_rate=1.0, burst_scale=1.0, burst_duration=30.0,
)


@st.composite
def rounds(draw, players=st.integers(1, 8), sens=st.floats(0.0, 0.95),
           true_time=st.floats(20.0, 2000.0), max_games=6):
    """Games of mixed sizes and speeds (so of mixed segment counts)."""
    games = []
    for _ in range(draw(st.integers(1, max_games))):
        k = draw(players)
        times = draw(st.lists(true_time, min_size=k, max_size=k))
        games.append((times, draw(st.lists(sens, min_size=k, max_size=k))))
    return games


def play_both(games, make_interference, seed, start=0.0, **settings):
    """The kernel's outcomes and the oracle's results for one round."""
    kernel = simulate_colocated_batch(
        true_times=np.array([t for times, _ in games for t in times]),
        sensitivities=np.array([s for _, sens in games for s in sens]),
        sizes=[len(times) for times, _ in games],
        vm=VM, interference=make_interference(), start_time=start,
        rngs=[ensure_rng(seed + g) for g in range(len(games))], **settings,
    )
    oracle = simulate_round(
        games, [ensure_rng(seed + g) for g in range(len(games))],
        vcpus=VM.vcpus, interference=make_interference(), start_time=start,
        **settings,
    )
    assert len(kernel) == len(oracle)
    assert list(kernel) == eager_outcomes(kernel)
    for got, want in zip(kernel, oracle):
        assert got.early_terminated == want.early_terminated
        assert got.finished == tuple(want.finished)
        assert got.elapsed == pytest.approx(want.elapsed, rel=1e-12, abs=0.0)
        assert np.allclose(got.work, want.work, rtol=0.0, atol=1e-12)
        assert got.mean_interference == pytest.approx(
            want.mean_interference, rel=1e-12, abs=0.0
        )
        assert got.start_time == start
    return kernel, oracle


def process(seed, profile=VM.interference):
    return lambda: InterferenceProcess(profile, seed)


seeds = st.integers(0, 10_000)
deviations = st.one_of(st.none(), st.floats(0.02, 0.4))


class TestAgainstOracle:
    @given(rounds(players=st.just(1)), seeds, deviations)
    @SETTINGS
    def test_single_player_games(self, games, seed, dev):
        kernel, _ = play_both(games, process(seed), seed, work_deviation=dev)
        assert not any(o.early_terminated for o in kernel)
        assert all(o.finished == (True,) for o in kernel)

    @given(rounds(), seeds, st.floats(0.0, 1e6))
    @SETTINGS
    def test_padded_rounds(self, games, seed, start):
        play_both(games, process(seed), seed, start=start)

    @given(rounds(players=st.integers(2, 8), max_games=8), seeds,
           st.floats(0.02, 0.3), st.floats(0.05, 0.5))
    @SETTINGS
    def test_early_termination(self, games, seed, dev, min_work):
        play_both(games, process(seed), seed, work_deviation=dev,
                  min_work_for_termination=min_work)

    @given(rounds(sens=st.floats(0.8, 0.95), true_time=st.floats(200.0, 240.0)),
           seeds)
    @SETTINGS
    def test_horizon_extension(self, games, seed):
        _, oracle = play_both(games, process(seed, STORMY), seed)
        assert all(r.attempts >= 2 for r in oracle)

    @given(rounds(), seeds, deviations,
           st.lists(st.floats(0.01, 4.0), min_size=1, max_size=50),
           st.floats(1.0, 600.0))
    @SETTINGS
    def test_replayed_trace(self, games, seed, dev, levels, dt):
        trace = InterferenceTrace(levels=np.array(levels), dt=dt)
        play_both(games, lambda: ReplayedInterference(trace, VM.interference),
                  seed, work_deviation=dev)

    def test_a_round_mixes_stops(self):
        """One fixed round where some games stop early and some finish."""
        meta = ensure_rng(11)
        games = [
            (meta.uniform(50.0, 900.0, k).tolist(),
             meta.uniform(0.0, 0.9, k).tolist())
            for k in (2, 8, 5, 8, 3, 1)
        ]
        kernel, _ = play_both(games, process(3), 40, work_deviation=0.08)
        early = [o.early_terminated for o in kernel]
        assert any(early) and not all(early)
