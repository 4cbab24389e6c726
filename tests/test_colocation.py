"""Unit tests for co-located game physics."""

import numpy as np
import pytest

from repro.cloud.colocation import (
    contention_level,
    simulate_colocated_batch,
    solo_observed_time,
)
from repro.cloud.interference import InterferenceProcess
from repro.cloud.vm import PRESETS
from repro.errors import CloudError
from repro.rng import ensure_rng

VM = PRESETS["m5.8xlarge"]


def game(true_times, sens, *, d=None, seed=0, min_work=0.25, start=0.0):
    return simulate_colocated_batch(
        true_times=np.asarray(true_times, dtype=float),
        sensitivities=np.asarray(sens, dtype=float),
        sizes=[len(true_times)],
        vm=VM,
        interference=InterferenceProcess(VM.interference, seed),
        start_time=start,
        rngs=[ensure_rng(seed + 1)],
        work_deviation=d,
        min_work_for_termination=min_work,
    )[0]


class TestContention:
    def test_grows_with_players(self):
        assert contention_level(32, 32) > contention_level(2, 32)

    def test_single_player_no_contention(self):
        assert contention_level(1, 32) == 0.0

    def test_invalid_players(self):
        with pytest.raises(CloudError):
            contention_level(0, 32)


class TestGamePhysics:
    def test_fastest_insensitive_player_wins(self):
        out = game([100.0, 200.0, 300.0], [0.0, 0.0, 0.0])
        assert out.winner == 0
        assert out.work[0] == pytest.approx(1.0, abs=1e-6)

    def test_work_ordering_follows_speed(self):
        out = game([100.0, 150.0, 300.0], [0.0, 0.0, 0.0])
        assert out.work[0] > out.work[1] > out.work[2]

    def test_elapsed_close_to_true_time_without_sensitivity(self):
        out = game([100.0, 400.0], [0.0, 0.0])
        assert out.elapsed == pytest.approx(100.0, rel=0.05)

    def test_sensitivity_slows_players_down(self):
        quiet = game([100.0, 100.1], [0.0, 0.0])
        noisy = game([100.0, 100.1], [0.9, 0.9])
        assert noisy.elapsed > quiet.elapsed

    def test_shared_noise_preserves_relative_order(self):
        """Equal sensitivity: the faster config wins despite heavy noise."""
        wins = 0
        for seed in range(20):
            out = game([100.0, 110.0], [0.8, 0.8], seed=seed)
            wins += out.winner == 0
        assert wins >= 18

    def test_robust_config_beats_fragile_one_under_contention(self):
        """Co-location amplifies sensitivity differences (DarwinGame's lever)."""
        true_times = [100.0] + [104.0] + [150.0] * 30
        sens = [0.9] + [0.03] + [0.5] * 30
        wins_robust = 0
        for seed in range(10):
            out = game(true_times, sens, seed=seed)
            wins_robust += out.winner == 1
        assert wins_robust >= 8

    def test_work_in_unit_range(self):
        out = game([100.0, 200.0, 500.0], [0.5, 0.2, 0.9])
        assert all(0.0 <= w <= 1.0 for w in out.work)

    def test_finished_flags(self):
        out = game([100.0, 1000.0], [0.0, 0.0])
        assert out.finished[0] and not out.finished[1]


class TestEarlyTermination:
    def test_triggers_on_large_gap(self):
        out = game([100.0, 1000.0], [0.0, 0.0], d=0.10)
        assert out.early_terminated
        assert out.elapsed < 100.0

    def test_no_trigger_for_close_race(self):
        out = game([100.0, 101.0], [0.0, 0.0], d=0.10)
        assert not out.early_terminated

    def test_min_work_respected(self):
        out = game([100.0, 1000.0], [0.0, 0.0], d=0.10, min_work=0.25)
        assert max(out.work) >= 0.25 * 0.9  # leader had done ~min_work at stop

    def test_disabled_when_none(self):
        out = game([100.0, 1000.0], [0.0, 0.0], d=None)
        assert not out.early_terminated
        assert out.work[0] == pytest.approx(1.0, abs=1e-6)

    def test_single_player_never_early_terminates(self):
        out = game([100.0], [0.0], d=0.10)
        assert not out.early_terminated


class TestValidation:
    def test_empty_game(self):
        with pytest.raises(CloudError):
            game([], [])

    def test_mismatched_arrays(self):
        with pytest.raises(CloudError):
            game([100.0, 200.0], [0.1])

    def test_nonpositive_time(self):
        with pytest.raises(CloudError):
            game([0.0], [0.1])

    def test_bad_deviation(self):
        with pytest.raises(CloudError):
            game([100.0, 200.0], [0.0, 0.0], d=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array", ["true_times", "sensitivities"])
    def test_non_finite_input_named(self, array, bad):
        """Refused up front; a NaN or infinite true time used to die in the
        horizon's bucket cast with an IndexError."""
        values = {"true_times": [100.0, 200.0], "sensitivities": [0.1, 0.2]}
        values[array][1] = bad
        with pytest.raises(CloudError, match=f"{array} must be finite"):
            game(values["true_times"], values["sensitivities"], d=0.1)

    def test_sizes_must_cover_the_players(self):
        with pytest.raises(CloudError, match="seat 3 players, got 2"):
            simulate_colocated_batch(
                true_times=np.array([100.0, 200.0]),
                sensitivities=np.array([0.1, 0.2]),
                sizes=[1, 2],
                vm=VM,
                interference=InterferenceProcess(VM.interference, 0),
                start_time=0.0,
                rngs=[ensure_rng(1), ensure_rng(2)],
            )


class TestSoloObserved:
    def test_no_noise_identity(self):
        assert solo_observed_time(
            true_time=100.0, sensitivity=0.5, level=0.0, measurement_noise=0.0
        ) == pytest.approx(100.0)

    def test_interference_slows(self):
        slow = solo_observed_time(
            true_time=100.0, sensitivity=0.5, level=0.4, measurement_noise=0.0
        )
        assert slow == pytest.approx(120.0)

    def test_insensitive_config_immune(self):
        t = solo_observed_time(
            true_time=100.0, sensitivity=0.0, level=5.0, measurement_noise=0.0
        )
        assert t == pytest.approx(100.0)

    def test_invalid_time(self):
        with pytest.raises(CloudError):
            solo_observed_time(
                true_time=0.0, sensitivity=0.1, level=0.1, measurement_noise=0.0
            )
