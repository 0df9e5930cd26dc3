"""Bloch 4-vector reduction of the averaged three-level Raman dynamics.

Two drives h_1 = (O1/2)|3><1| e^{-i w1 t} and h_2 = (O2/2)|3><2| e^{-i w2 t}
leave the averaged state's (x, y, z, w) Bloch components in a closed
linear system dr/dt = A(theta) r with theta = (w1 - w2) t and

    alpha = (O1^2/w1 - O2^2/w2) / 4
    beta  = (O1 O2 / 2) * (1/w1 + 1/w2) / 2
    gamma = sqrt(3) (O1 O2 / 2) * (1/w1 - 1/w2) / 2

In the frame co-rotating at theta the system becomes autonomous,
dr/dt = M r: d/dt d = Omega x d - r_w * gvec and d/dt r_w = -gvec . d,
with torque Omega = (beta, 0, alpha + w1 - w2) and gvec = (0, gamma, 0).
M satisfies M^3 = -omega^2 M with

    omega^2 = -tr(M^2) / 2 = |Omega|^2 - gamma^2,

so in the oscillatory regime |Omega|^2 > gamma^2 the motion is an ellipse
at omega, and the squared Bloch length (the state's purity, up to affine
constants) oscillates — at 2*omega when the rotating-frame w component
has no DC part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid, propagate_linear

__all__ = [
    "RamanParams",
    "OverdampedError",
    "raman_coefficients",
    "bloch_matrix",
    "integrate_bloch",
    "RotatingSolution",
    "purity_rate",
]


class OverdampedError(ValueError):
    """Raised when |Omega|^2 <= gamma^2: no oscillatory closed form exists."""


@dataclass(frozen=True)
class RamanParams:
    """Rabi frequencies and detunings of the two Raman drives (rad/time)."""

    Omega1: float
    Omega2: float
    omega1: float
    omega2: float

    def __post_init__(self):
        if not (self.omega1 > 0 and self.omega2 > 0):
            raise ValueError("detunings omega1, omega2 must be positive")


def raman_coefficients(params: RamanParams) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, theta_rate) for the given drive parameters."""
    o1, o2 = params.Omega1, params.Omega2
    w1, w2 = params.omega1, params.omega2
    alpha = 0.25 * (o1 * o1 / w1 - o2 * o2 / w2)
    beta = 0.5 * o1 * o2 * 0.5 * (1.0 / w1 + 1.0 / w2)
    gamma = math.sqrt(3.0) * 0.5 * o1 * o2 * 0.5 * (1.0 / w1 - 1.0 / w2)
    return alpha, beta, gamma, w1 - w2


def bloch_matrix(params: RamanParams, theta) -> np.ndarray:
    """The 4x4 coefficient matrix A(theta) of dr/dt = A r; a 1-D array of
    angles gives the (len(theta), 4, 4) stack."""
    a, b, g, _ = raman_coefficients(params)
    s, c = np.sin(theta), np.cos(theta)
    zero = np.zeros_like(s)
    m = np.array([
        [zero, np.full_like(s, -a), -b * s, -g * s],
        [np.full_like(s, a), zero, -b * c, -g * c],
        [b * s, b * c, zero, zero],
        [-g * s, -g * c, zero, zero],
    ])
    return np.moveaxis(m, (0, 1), (-2, -1))


def integrate_bloch(params: RamanParams, r0, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 integration of dr/dt = A(theta) r on the given grid.

    Returns (times, trajectory) with trajectory shape (n_samples, 4).
    Works in every regime, including the overdamped one rejected by the
    analytic solution.
    """
    rate = raman_coefficients(params)[3]
    r0 = np.asarray(r0, dtype=float)
    out = propagate_linear(lambda ts: bloch_matrix(params, rate * ts), r0, grid)
    return grid.times(), out


@dataclass(frozen=True)
class RotatingSolution:
    """Closed-form rotating-frame solution of the reduced Raman system.

    With M the co-rotating matrix, M^3 = -omega^2 M gives the three-term
    exponential

        r(t) = r0 + (sin(omega t)/omega) M r0 + ((1 - cos(omega t))/omega^2) M^2 r0

    ``r_w_center`` is the w entry of r0 + M^2 r0 / omega^2: the DC part of
    the rotating-frame w component.
    """

    omega: float
    gamma: float
    r0: np.ndarray
    m_r0: np.ndarray
    m2_r0: np.ndarray

    @classmethod
    def fit(cls, params: RamanParams, init) -> "RotatingSolution":
        _, _, gamma, rate = raman_coefficients(params)
        m = bloch_matrix(params, 0.0)
        # the co-rotating frame adds its rate to the torque's z component
        m[1, 0] += rate
        m[0, 1] -= rate
        m2 = m @ m
        omega_sq = -0.5 * float(np.trace(m2))  # |Omega|^2 - gamma^2
        if omega_sq <= 0.0:
            raise OverdampedError(
                f"non-oscillatory regime: |Omega|^2={omega_sq + gamma**2:.3e} <= "
                f"gamma^2={gamma**2:.3e}"
            )
        r0 = np.asarray(init, dtype=float)
        return cls(math.sqrt(omega_sq), gamma, r0, m @ r0, m2 @ r0)

    @property
    def r_w_center(self) -> float:
        return float(self.r0[3] + self.m2_r0[3] / self.omega ** 2)

    def sample(self, times) -> np.ndarray:
        """Rotating-frame rows (r_x, r_y, r_z, r_w), one per entry of ``times``."""
        ph = self.omega * np.asarray(times, dtype=float)[..., None]
        return (self.r0 + (np.sin(ph) / self.omega) * self.m_r0
                + ((1.0 - np.cos(ph)) / self.omega ** 2) * self.m2_r0)

    def bloch_length_sq(self, t):
        """Squared length of the 3-vector part (purity up to affine constants)."""
        d = self.sample(t)[..., :3]
        return np.sum(d * d, axis=-1)


def purity_rate(sol: RotatingSolution, t):
    """Closed-form d/dt of the squared Bloch length, -2 gamma r_w r_y: the
    torque term Omega x d is orthogonal to d, so the length is constant
    when gamma vanishes."""
    r = sol.sample(t)
    return -2.0 * sol.gamma * r[..., 3] * r[..., 1]
