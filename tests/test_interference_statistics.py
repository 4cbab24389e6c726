"""Statistical properties of the simulated cloud that the paper relies on."""

import numpy as np
import pytest

from repro.cloud.interference import InterferenceProcess
from repro.cloud.vm import PRESETS
from repro.rng import ensure_rng


@pytest.fixture(scope="module")
def process():
    return InterferenceProcess(PRESETS["m5.8xlarge"].interference, seed=0)


class TestQuietWindows:
    def test_quiet_moments_exist(self, process):
        """Diurnal troughs + fluctuation produce near-zero interference runs.

        These quiet windows are what make interference-unaware argmin picks
        fragile: a sensitive configuration sampled at the right moment looks
        perfect.
        """
        ts = np.linspace(0, 30 * 86400, 20000)
        levels = process.sample_run_means(ts, 300.0, ensure_rng(1))
        assert (levels < 0.05).mean() > 0.01

    def test_busy_moments_exist(self, process):
        ts = np.linspace(0, 30 * 86400, 20000)
        levels = process.sample_run_means(ts, 300.0, ensure_rng(2))
        assert (levels > 2.0 * process.profile.mean_level).mean() > 0.02

    def test_epochs_weeks_apart_differ(self, process):
        """Campaigns at T1/T2/T3 must see genuinely different environments."""
        day = 86400.0
        week_means = []
        for week in range(4):
            ts = np.linspace(week * 7 * day, week * 7 * day + day, 500)
            week_means.append(float(process.epoch_mean(ts).mean()))
        assert np.ptp(week_means) > 0.02


class TestSharedNoiseFairness:
    def test_colocated_players_see_identical_trajectory(self):
        """DarwinGame's core trick: one trajectory per game, not per player."""
        from repro.cloud.colocation import simulate_colocated_batch

        vm = PRESETS["m5.8xlarge"]
        process = InterferenceProcess(vm.interference, seed=3)
        # Two identical configurations: their work must track closely even
        # under violent noise, because the noise is shared.
        out = simulate_colocated_batch(
            true_times=np.array([200.0, 200.0]),
            sensitivities=np.array([0.9, 0.9]),
            sizes=[2],
            vm=vm,
            interference=process,
            start_time=0.0,
            rngs=[ensure_rng(4)],
            work_deviation=None,
        )[0]
        assert abs(out.work[0] - out.work[1]) < 0.08

    def test_solo_runs_of_identical_configs_differ_much_more(self):
        """Solo sampling at different times breaks the comparison."""
        process = InterferenceProcess(PRESETS["m5.8xlarge"].interference, seed=5)
        rng = ensure_rng(6)
        t_a = process.sample_run_means(np.array([1000.0]), 200.0, rng)
        t_b = process.sample_run_means(np.array([40 * 3600.0]), 200.0, rng)
        # Same configuration, two moments: observed times can diverge by the
        # full interference swing.
        observed = 200.0 * (1 + 0.9 * np.array([t_a[0], t_b[0]]))
        assert abs(observed[0] - observed[1]) / observed.min() > 0.02


class TestAttenuation:
    @pytest.mark.parametrize("duration", [30.0, 300.0, 3000.0])
    def test_mean_unbiased_across_durations(self, process, duration):
        levels = process.sample_run_means(
            np.linspace(0, 20 * 86400, 6000), duration, ensure_rng(7)
        )
        assert abs(levels.mean() - process.profile.mean_level) < 0.12
