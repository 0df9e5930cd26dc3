"""Bloch 4-vector reduction of the averaged three-level Raman dynamics.

Two drives h_1 = (O1/2)|3><1| e^{-i w1 t} and h_2 = (O2/2)|3><2| e^{-i w2 t}
leave the averaged state's (x, y, z, w) Bloch components in a closed
linear system dr/dt = A(theta) r with theta = (w1 - w2) t and

    alpha = (O1^2/w1 - O2^2/w2) / 4
    beta  = (O1 O2 / 2) * (1/w1 + 1/w2) / 2
    gamma = sqrt(3) (O1 O2 / 2) * (1/w1 - 1/w2) / 2

In the frame co-rotating at theta the system becomes autonomous:
d/dt d = Omega x d - r_w * gvec and d/dt r_w = -gvec . d, with torque
Omega = (beta, 0, alpha + w1 - w2) and gvec = (0, gamma, 0).  In the
oscillatory regime |Omega|^2 > gamma^2 the motion is an ellipse at

    omega = sqrt(|Omega|^2 - gamma^2)

and the squared Bloch length (the state's purity, up to affine
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
    "BlochState",
    "OverdampedError",
    "raman_coefficients",
    "bloch_matrix",
    "bloch_rhs",
    "corotate",
    "integrate_bloch",
    "RotatingSolution",
    "raman_analytic",
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


@dataclass(frozen=True)
class BlochState:
    """(r_x, r_y, r_z, r_w) components of the averaged state.

    The spectator coherences to the third level (x_a, y_a, x_b, y_b
    components) evolve independently and may optionally be carried along
    unchanged.
    """

    r_x: float
    r_y: float
    r_z: float
    r_w: float
    spectator: tuple[float, float, float, float] | None = None

    def as_array(self) -> np.ndarray:
        return np.array([self.r_x, self.r_y, self.r_z, self.r_w])

    @classmethod
    def from_array(cls, arr, spectator=None) -> "BlochState":
        arr = np.asarray(arr, dtype=float).reshape(-1)
        if arr.size != 4:
            raise ValueError(f"expected 4 components, got {arr.size}")
        return cls(*arr, spectator=spectator)


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


def bloch_rhs(params: RamanParams, state, t):
    """d r / dt at time t.  Accepts a BlochState or a length-4 array and
    returns the same kind; spectator components never feed back."""
    theta = (params.omega1 - params.omega2) * t
    if isinstance(state, BlochState):
        dr = bloch_matrix(params, theta) @ state.as_array()
        return BlochState.from_array(dr)
    return bloch_matrix(params, theta) @ np.asarray(state, dtype=float)


def corotate(state, theta):
    """Rotate the (x, y) block by theta; identity on (z, w).

    corotate(corotate(r, theta), -theta) == r and the Euclidean norm is
    preserved.  Accepts a BlochState, a length-4 array, or an (n, 4)
    batch of rows.
    """
    c, s = math.cos(theta), math.sin(theta)
    if isinstance(state, BlochState):
        return BlochState(
            c * state.r_x - s * state.r_y,
            s * state.r_x + c * state.r_y,
            state.r_z,
            state.r_w,
            spectator=state.spectator,
        )
    arr = np.asarray(state, dtype=float)
    out = arr.copy()
    out[..., 0] = c * arr[..., 0] - s * arr[..., 1]
    out[..., 1] = s * arr[..., 0] + c * arr[..., 1]
    return out


def integrate_bloch(params: RamanParams, r0, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 integration of dr/dt = A(theta) r on the given grid.

    Returns (times, trajectory) with trajectory shape (n_samples, 4).
    Works in every regime, including the overdamped one rejected by the
    analytic solution.
    """
    rate = raman_coefficients(params)[3]
    state = r0 if isinstance(r0, BlochState) else BlochState.from_array(r0)
    out = propagate_linear(lambda ts: bloch_matrix(params, rate * ts), state.as_array(), grid)
    return grid.times(), out


@dataclass(frozen=True)
class RotatingSolution:
    """Closed-form rotating-frame solution of the reduced Raman system.

    The motion is resolved on the orthonormal triad (e_omega, e_gamma,
    e_p = e_omega x e_gamma):

        d(t)   = d_omega e_omega - (gamma/big_omega) r_w_center e_p
               + amplitude (e_gamma cos(omega t + phase)
                            + e_p (big_omega/omega) sin(omega t + phase))
        r_w(t) = r_w_center - amplitude (gamma/omega) sin(omega t + phase)

    ``r_w_center`` is the DC part of the rotating-frame w component and
    equals r_w(0) in the zero-phase gauge; fitting ``phase`` from general
    initial conditions extends that gauge-fixed form.
    """

    omega: float
    big_omega: float
    gamma: float
    d_omega: float
    amplitude: float
    r_w_center: float
    phase: float
    e_omega: np.ndarray
    e_gamma: np.ndarray
    e_p: np.ndarray

    @classmethod
    def fit(cls, params: RamanParams, init) -> "RotatingSolution":
        alpha, beta, gamma, rate = raman_coefficients(params)
        torque = np.array([beta, 0.0, alpha + rate])
        big_omega = float(np.linalg.norm(torque))
        if big_omega ** 2 <= gamma ** 2:
            raise OverdampedError(
                f"non-oscillatory regime: |Omega|^2={big_omega**2:.3e} <= "
                f"gamma^2={gamma**2:.3e}"
            )
        omega = math.sqrt(big_omega ** 2 - gamma ** 2)
        e_omega = torque / big_omega
        e_gamma = np.array([0.0, 1.0, 0.0])
        e_p = np.cross(e_omega, e_gamma)
        r = init.as_array() if isinstance(init, BlochState) else np.asarray(init, float)
        d0, r_w0 = r[:3], float(r[3])
        d_omega = float(d0 @ e_omega)
        cos_part = float(d0 @ e_gamma)
        sin_part = (big_omega * float(d0 @ e_p) + gamma * r_w0) / omega
        amplitude = math.hypot(cos_part, sin_part)
        phase = math.atan2(sin_part, cos_part)
        r_w_center = r_w0 + (gamma / omega) * sin_part
        return cls(omega, big_omega, gamma, d_omega, amplitude, r_w_center,
                   phase, e_omega, e_gamma, e_p)

    def _components(self, t):
        ph = self.omega * np.asarray(t, dtype=float) + self.phase
        d_gamma = self.amplitude * np.cos(ph)
        d_p = (-(self.gamma / self.big_omega) * self.r_w_center
               + self.amplitude * (self.big_omega / self.omega) * np.sin(ph))
        r_w = self.r_w_center - self.amplitude * (self.gamma / self.omega) * np.sin(ph)
        return d_gamma, d_p, r_w

    def evaluate(self, t) -> BlochState:
        """Rotating-frame Bloch state at a single time."""
        d_gamma, d_p, r_w = self._components(float(t))
        d = self.d_omega * self.e_omega + d_gamma * self.e_gamma + d_p * self.e_p
        return BlochState(d[0], d[1], d[2], float(r_w))

    def sample(self, times) -> np.ndarray:
        """Rotating-frame trajectory rows (r_x, r_y, r_z, r_w) at many times."""
        d_gamma, d_p, r_w = self._components(np.asarray(times, dtype=float))
        d = (self.d_omega * self.e_omega[:, None]
             + d_gamma[None, :] * self.e_gamma[:, None]
             + d_p[None, :] * self.e_p[:, None])
        return np.vstack([d, r_w[None, :]]).T

    def bloch_length_sq(self, t):
        """Squared length of the 3-vector part (purity up to affine constants)."""
        d_gamma, d_p, _ = self._components(t)
        return self.d_omega ** 2 + d_gamma ** 2 + d_p ** 2


def raman_analytic(params: RamanParams, init, t) -> BlochState:
    """Rotating-frame solution at time t for the given initial state (the
    lab and rotating frames coincide at t = 0)."""
    return RotatingSolution.fit(params, init).evaluate(t)


def purity_rate(sol: RotatingSolution, t):
    """Closed-form d/dt of the squared Bloch length:

        (gamma^2/omega) R^2 sin(2(omega t + phase))
        - 2 gamma R r_w_center cos(omega t + phase)

    Identically zero when gamma vanishes.
    """
    ph = sol.omega * np.asarray(t, dtype=float) + sol.phase
    r = sol.amplitude
    return ((sol.gamma ** 2 / sol.omega) * r * r * np.sin(2.0 * ph)
            - 2.0 * sol.gamma * r * sol.r_w_center * np.cos(ph))
