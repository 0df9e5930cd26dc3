import numpy as np
import pytest
from numpy.testing import assert_allclose

from avgdyn.signals import (AMPLITUDE_FLOOR_EPS, at_rounding_floor, dft_resolution,
                            dominant_frequency, lowpass_series)


class TestDominantFrequency:
    def test_pure_tone_within_one_percent(self):
        freq = 0.045
        dt = 0.5
        n = int(10 * 2 * np.pi / freq / dt)  # ten periods
        t = dt * np.arange(n)
        got = dominant_frequency(np.cos(freq * t), dt)
        assert abs(got - freq) / freq < 0.01

    def test_constant_signal_reports_zero(self):
        assert dominant_frequency(np.full(128, 3.7), 0.1) == 0.0

    def test_two_tone_picks_the_larger(self):
        dt = 0.1
        t = dt * np.arange(4096)
        signal = 10.0 * np.sin(0.9 * t) + 1.0 * np.sin(2.6 * t)
        got = dominant_frequency(signal, dt)
        assert abs(got - 0.9) < dft_resolution(4096, dt)

    def test_interpolation_beats_raw_resolution(self):
        dt = 0.2
        n = 2048
        t = dt * np.arange(n)
        freq = 1.2345  # deliberately off-bin
        got = dominant_frequency(np.cos(freq * t + 0.3), dt)
        assert abs(got - freq) < dft_resolution(n, dt)

    def test_peak_at_bin_one_ignores_rounding_noise(self):
        # 1.4 periods in the window put the peak at bin 1, next to the DC
        # bin that the mean subtraction leaves at rounding noise
        dt, n = 0.01, 20001
        t = dt * np.arange(n)
        x = 0.5 * np.cos(2 * np.pi * 1.4 / (n * dt) * t) + 0.3
        want = dominant_frequency(x, dt)
        assert want == dft_resolution(n, dt)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert dominant_frequency(x + 1e-15 * rng.standard_normal(n), dt) == want

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="samples"):
            dominant_frequency(np.ones(10), 0.1)

    def test_two_dimensional_signal_rejected(self):
        with pytest.raises(ValueError, match="signal must be one-dimensional"):
            dominant_frequency(np.ones((64, 2)), 0.1)


def bin_frequency(k, n, dt):
    """Frequency of DFT bin k, an integer number of cycles over the window."""
    return 2 * np.pi * k / (n * dt)


class TestLowpassSeries:
    def test_removes_fast_tone_keeps_slow(self):
        dt = 0.05
        n = 8192
        t = dt * np.arange(n)
        slow = 0.8 * np.cos(bin_frequency(30, n, dt) * t)
        fast = 0.5 * np.cos(bin_frequency(300, n, dt) * t)
        filtered = lowpass_series(slow + fast, dt, 1.0)
        assert np.abs(filtered - slow).max() < 1e-12

    def test_in_band_signal_unchanged(self):
        dt = 0.1
        n = 4096
        t = dt * np.arange(n)
        x = np.sin(bin_frequency(33, n, dt) * t) + 0.2
        assert_allclose(lowpass_series(x, dt, 2.0), x, atol=1e-12)

    def test_leakage_of_offbin_tone_is_suppressed_not_removed(self):
        # a tone with a fractional cycle count leaks across the cutoff;
        # filtering wipes most of it but leaves edge artifacts
        dt = 0.1
        t = dt * np.arange(4096)
        fast = np.cos(3.0 * t + 0.2)
        filtered = lowpass_series(fast, dt, 1.0)
        assert np.abs(filtered).max() < 0.1
        assert np.sqrt(np.mean(filtered**2)) < 0.01

    def test_identical_filtering_is_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(512)
        a = lowpass_series(x, 0.1, 1.5)
        b = lowpass_series(x, 0.1, 1.5)
        assert np.array_equal(a, b)

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError, match="positive"):
            lowpass_series(np.ones(64), 0.1, 0.0)


class TestRoundingFloor:
    @pytest.mark.parametrize("n", [64, 10001, 200001])
    @pytest.mark.parametrize("level", [1e-3, 0.5, 0.7, 1e3])
    def test_constant_plus_rounding_noise_is_at_the_floor(self, n, level):
        rng = np.random.default_rng(n)
        x = level + rng.integers(-2, 3, n) * np.spacing(level)
        y = lowpass_series(x, 0.01, 0.5)
        swing = (y.max() - y.min()) / 2.0
        assert at_rounding_floor(swing, y)
        # well inside the floor: the measurement behind AMPLITUDE_FLOOR_EPS
        assert swing <= AMPLITUDE_FLOOR_EPS / 8 * np.finfo(float).eps * np.abs(y).max()

    def test_in_band_swing_above_the_floor(self):
        t = 0.01 * np.arange(10001)
        y = lowpass_series(0.5 + 1e-12 * np.cos(0.1 * t), 0.01, 0.5)
        assert not at_rounding_floor((y.max() - y.min()) / 2.0, y)

    def test_zero_series(self):
        assert at_rounding_floor(0.0, np.zeros(64))
