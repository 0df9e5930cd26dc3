"""Fixed-step propagation of exact and averaged density-matrix dynamics.

The exact equation i d(rho)/dt = [H(t), rho], the averaged master
equation of an :class:`~avgdyn.harmonic.EffectiveGenerator` and the Raman
Bloch system are all linear, dv/dt = L(t) v: :func:`propagate_linear`
integrates each with one chunked, fixed-step classical RK4, giving
deterministic trajectories suitable for golden-file comparisons.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .harmonic import EffectiveGenerator, HarmonicHamiltonian
from .linalg import POSITIVITY_TOL, require_density, vectorize

__all__ = ["TimeGrid", "Trajectory", "propagate_linear", "propagate_exact",
           "propagate_effective"]

logger = logging.getLogger(__name__)

MAX_STEPS = 10_000_000
TRACE_RENORM_TOL = 1e-12
# Bytes per chunk stack of generator or increment matrices: bounds the
# memory of a propagation independently of its length.
CHUNK_BYTES = 256 * 1024
# Largest dt * ||L(t)|| a grid may have.  Classical RK4 is stable for
# eigenvalues of dt * L(t) on the imaginary axis up to |dt * lambda| = 2*sqrt(2),
# and on the whole closed left half disk up to radius ~2.6; the margin 0.9
# (about 2.55) keeps that half disk inside the stability region.
RK4_STEP_LIMIT = 0.9 * 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid from t0 to t_max with step dt (at most 10^7 steps)."""

    t0: float
    t_max: float
    dt: float

    def __post_init__(self):
        if not self.t_max > self.t0:
            raise ValueError("t_max must exceed t0")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if (self.t_max - self.t0) / self.dt > MAX_STEPS:
            raise ValueError(f"grid exceeds {MAX_STEPS} steps")

    @property
    def n_steps(self) -> int:
        n = int(np.floor((self.t_max - self.t0) / self.dt + 1e-9))
        return max(n, 1)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """Sampled density-matrix trajectory on a uniform grid."""

    times: np.ndarray
    states: np.ndarray  # shape (n_samples, d, d)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def entry(self, i, j) -> np.ndarray:
        return self.states[:, i, j]

    # computed once: a run reads each diagnostic for its CSV and its report
    @cached_property
    def purity(self) -> np.ndarray:
        return np.einsum("tij,tji->t", self.states, self.states).real

    @cached_property
    def min_eigenvalues(self) -> np.ndarray:
        # symmetrized in place: one states-sized temporary
        sym = self.states.conj().transpose(0, 2, 1)
        sym += self.states
        sym /= 2.0
        return np.linalg.eigvalsh(sym)[:, 0]


def _steps_per_chunk(size, dtype) -> int:
    """Steps k per chunk, so that the chunk's 2k+1 generator matrices fit in CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // (2 * size * size * np.dtype(dtype).itemsize))


def propagate_linear(generators, v0, grid: TimeGrid) -> np.ndarray:
    """Integrate dv/dt = L(t) v with fixed-step classical RK4.

    ``generators(times)`` returns the stack of L matrices at a 1-D array
    of times; it is called once per chunk of steps, at the chunk's grid and
    half-step times.  Each step's increment matrix X = P - I (the RK4
    transfer matrix minus the identity) is built with batched products, so
    only v <- v + X v runs step by step.  Returns the (n_steps + 1, len(v0))
    trajectory in the dtype of ``v0``, or raises ValueError if it diverged.
    """
    v = np.array(v0)
    n, dt = grid.n_steps, grid.dt
    out = np.empty((n + 1, v.size), dtype=v.dtype)
    out[0] = v
    chunk = _steps_per_chunk(v.size, v.dtype)
    # a diverging solution overflows: it is reported below, once
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, chunk):
            k = min(chunk, n - start)
            half_steps = np.arange(2 * start, 2 * (start + k) + 1)
            hl = dt * generators(grid.t0 + (0.5 * dt) * half_steps)
            hl_mid = hl[1::2]
            # RK4 stages as matrices acting on the step's initial state, with
            # the identity left out so that rounding stays at the size of X
            k1 = hl[:-1:2]
            k2 = hl_mid + 0.5 * (hl_mid @ k1)
            k3 = hl_mid + 0.5 * (hl_mid @ k2)
            k4 = hl[2::2] + hl[2::2] @ k3
            increments = (k1 + 2.0 * (k2 + k3) + k4) / 6.0
            for j, x in enumerate(increments, start + 1):
                v = v + x @ v
                out[j] = v
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise ValueError(f"propagation diverged at t={grid.t0 + dt * finite.argmin():.6g}")
    return out


def _renormalize_traces(states, grid: TimeGrid) -> None:
    """Renormalize in place, with a logged warning, each state whose trace
    drifted beyond TRACE_RENORM_TOL since the last renormalization.

    The equation is linear, so renormalizing a state during propagation
    divides every later state by the same trace.  Scanning one window at a
    time keeps the cost linear even when renormalization is frequent.
    """
    traces = np.einsum("tii->t", states)
    window = _steps_per_chunk(states.shape[1] ** 2, states.dtype)
    events, scales = [0], [1.0]
    k = 1
    while k < len(traces):
        drift = np.abs(traces[k:k + window] / scales[-1] - 1.0)
        over = np.flatnonzero(drift > TRACE_RENORM_TOL)
        if over.size:
            j = k + over[0]
            logger.warning("trace drifted by %.3e at t=%.6g; renormalizing",
                           drift[over[0]], grid.t0 + grid.dt * j)
            events.append(j)
            scales.append(traces[j])
            k = j + 1
        else:
            k += window
    if len(events) > 1:
        states /= np.repeat(scales, np.diff(events + [len(traces)]))[:, None, None]


def _propagate_density(generators, dim, rho0, grid: TimeGrid) -> Trajectory:
    """Propagate a dim-level density matrix, column-stacked; renormalize its trace."""
    rho = require_density(rho0)
    d = rho.shape[0]
    if dim != d:
        raise ValueError(f"Hamiltonian dim {dim} != state dim {d}")
    vecs = propagate_linear(generators, vectorize(rho), grid)
    # row t of vecs is vec(rho_t), which is rho_t.T in row-major order
    states = vecs.reshape(-1, d, d).transpose(0, 2, 1)
    _renormalize_traces(states, grid)
    return Trajectory(grid.times(), states)


def propagate_exact(hamiltonian: HarmonicHamiltonian, rho0, grid: TimeGrid) -> Trajectory:
    """Integrate i d(rho)/dt = [H(t), rho] with fixed-step RK4.

    H(t) is Hermitian by construction of the HarmonicHamiltonian; the trace
    is renormalized (and logged) only if it drifts beyond 1e-12.
    """
    return _propagate_density(hamiltonian.liouvillian.evaluate, hamiltonian.dim, rho0, grid)


def propagate_effective(generator: EffectiveGenerator, rho0, grid: TimeGrid) -> Trajectory:
    """Integrate the averaged master equation with fixed-step RK4.

    The averaged equation is not guaranteed completely positive, so the
    minimum eigenvalue is monitored along the trajectory and excursions
    below -POSITIVITY_TOL are logged as warnings, never clamped.
    """
    traj = _propagate_density(generator.liouvillian_matrix, generator.dim, rho0, grid)
    min_eig = traj.min_eigenvalues.min()
    if min_eig < -POSITIVITY_TOL:
        logger.warning("averaged evolution dipped to min eigenvalue %.3e", min_eig)
    return traj
