"""Spectral helpers for trajectory comparison.

The dominant-frequency estimator is a DFT peak with quadratic
interpolation on the log magnitude, between two non-DC neighbours only;
its raw resolution before interpolation is 2*pi/(N*dt).  The low-pass
filter zeroes every bin at or above the cutoff, the sampled-signal
analogue of the ideal averaging kernel applied to operator Fourier sums.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dominant_frequency", "lowpass_series", "dft_resolution"]

MIN_SAMPLES = 64


def dft_resolution(n_samples: int, dt: float) -> float:
    """Raw DFT bin spacing in rad/time."""
    return 2.0 * np.pi / (n_samples * dt)


def dominant_frequency(values, dt) -> float:
    """Frequency (rad/time) of the strongest spectral line of a real signal.

    The signal should already be detrended; the mean is removed here so a
    constant input cleanly reports 0.  Requires at least 64 samples.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("signal must be one-dimensional")
    if x.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {x.size}")
    scale = max(float(np.abs(x).max()), 1.0)
    x = x - x.mean()
    mag = np.abs(np.fft.rfft(x))
    # anything at the rounding floor of the mean subtraction is no signal
    if mag.max() <= 4.0 * x.size * np.finfo(float).eps * scale:
        return 0.0
    k = int(np.argmax(mag[1:])) + 1
    delta = 0.0
    # bin 0 holds only the rounding noise of the mean subtraction, so a
    # peak at bin 1 is not interpolated against it
    if 2 <= k < mag.size - 1:
        lm = np.log(np.maximum(mag[k - 1:k + 2], 1e-300))
        denom = lm[0] - 2.0 * lm[1] + lm[2]
        if denom != 0.0:
            delta = 0.5 * (lm[0] - lm[2]) / denom
            delta = float(np.clip(delta, -0.5, 0.5))
    return 2.0 * np.pi * (k + delta) / (x.size * dt)


def lowpass_series(values, dt, cutoff) -> np.ndarray:
    """Ideal low-pass of a sampled real signal: bins at |freq| >= cutoff are
    zeroed in the DFT domain."""
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    x = np.asarray(values, dtype=float)
    spectrum = np.fft.rfft(x)
    freqs = 2.0 * np.pi * np.fft.rfftfreq(x.size, dt)
    spectrum[freqs >= cutoff] = 0.0
    return np.fft.irfft(spectrum, x.size)
