"""Fixed-step propagation of exact and averaged density-matrix dynamics.

The exact equation i d(rho)/dt = [H(t), rho], the averaged master
equation of an :class:`~avgdyn.harmonic.EffectiveGenerator` and the Raman
Bloch system are all linear, dv/dt = L(t) v: :func:`propagate_linear`
integrates each with one chunked, fixed-step classical RK4, giving
deterministic trajectories suitable for golden-file comparisons.  Density
matrices are propagated as their real Hermitian coordinates, in which the
Liouvillian is real: each chunk evaluates it in real arithmetic, as cos/sin
weights times one real coefficient table (:meth:`FourierOperator.evaluate_real`),
and a time-independent one is evaluated once and stepped with one increment.
Nothing here logs: a trajectory carries its diagnostics, for the caller to word.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fourier import FourierOperator
from .harmonic import EffectiveGenerator, HarmonicHamiltonian
from .linalg import hermitian_coordinates, unvectorize, validate_density, vectorize

__all__ = ["TimeGrid", "Trajectory", "propagate_linear", "propagate_exact",
           "propagate_effective"]

MAX_STEPS = 10_000_000
# Smallest dt, in units in the last place of the largest |t| on a grid: the
# times t0 + k * dt then carry each step to a relative rounding of ~1e-6.
MIN_STEP_ULPS = 2 ** 20
TRACE_RENORM_TOL = 1e-12
# Bytes per chunk stack of generator matrices: bounds a propagation's memory
# independently of its length.
CHUNK_BYTES = 128 * 1024
# Largest dt * ||L(t)|| a grid may have.  Classical RK4 is stable for
# eigenvalues of dt * L(t) on the imaginary axis up to |dt * lambda| = 2*sqrt(2),
# and on the whole closed left half disk up to radius ~2.6; the margin 0.9
# (about 2.55) keeps that half disk inside the stability region.
RK4_STEP_LIMIT = 0.9 * 2.0 * math.sqrt(2.0)
# Largest imaginary part of a real-coordinate Liouvillian, relative to its largest
# coefficient, dropped as rounding: 800 random ones (d = 2-4) reached 3.2e-16.
HERMITICITY_TOL = 1e-13


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
        if (span := self.t_max - self.t0) / self.dt > MAX_STEPS:
            raise ValueError(f"grid exceeds {MAX_STEPS} steps")
        if self.n_steps < 1:
            raise ValueError(f"dt {self.dt!r} exceeds the span t_max - t0 = {span!r}")
        t_abs = max(abs(self.t0), abs(self.t_max))
        if self.dt < (least := MIN_STEP_ULPS * math.ulp(t_abs)):
            raise ValueError(f"dt {self.dt:g} is lost to rounding at |t| = {t_abs:g}; "
                             f"it must be at least {least:.3g}")

    @property
    def n_steps(self) -> int:
        return int(np.floor((self.t_max - self.t0) / self.dt + 1e-9))

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """Density matrices sampled on a uniform grid, held as the real coordinates x they
    were propagated in, and the (t, trace drift) of each renormalization of their trace.

    Purity, and the minimum eigenvalue of a 2-level state, are read off x; complex
    states are built only for the minimum eigenvalue at d != 2 (and by callers,
    such as the d = 3 Bloch columns)."""

    times: np.ndarray
    coords: np.ndarray  # shape (n_samples, d**2)
    renormalized: tuple[tuple[float, float], ...] = ()

    @property
    def dim(self) -> int:
        return math.isqrt(self.coords.shape[1])

    @property
    def states(self) -> np.ndarray:
        """The (n_samples, d, d) states, exactly Hermitian, copied from x on each access:
        uncached, they are held together with x only while a diagnostic reads them."""
        to_vec, _ = hermitian_coordinates(self.dim)
        flat = np.zeros((len(self.coords), len(to_vec)), dtype=complex)
        for part, units in ((flat.real, to_vec.real), (flat.imag, to_vec.imag)):
            for row, k in zip(*np.nonzero(units)):  # each unit 1 or -1
                part[:, row] = units[row, k] * self.coords[:, k]
        return unvectorize(flat)

    # computed once: a run reads each diagnostic for its CSV and its report
    @cached_property
    def purity(self) -> np.ndarray:
        """tr(rho^2) = sum_i rho_ii^2 + 2 sum_(i<j) |rho_ij|^2."""
        diagonal, off = self.coords[:, :self.dim], self.coords[:, self.dim:]
        return np.einsum("ti,ti->t", diagonal, diagonal) + 2.0 * np.einsum("ti,ti->t", off, off)

    @cached_property
    def min_eigenvalues(self) -> np.ndarray:
        if self.dim != 2:
            return np.linalg.eigvalsh(self.states)[:, 0].copy()  # not a view pinning all d columns
        # (a + b)/2 - |((a - b)/2, Re c, Im c)| of [[a, c], [c*, b]]
        a, b, re, im = self.coords.T
        return 0.5 * (a + b) - np.hypot(0.5 * (a - b), np.hypot(re, im))


def _steps_per_chunk(size, dtype) -> int:
    """Steps k per chunk: its 2k+1 generator matrices fit in CHUNK_BYTES, its R stack in ~half."""
    return max(1, CHUNK_BYTES // (2 * size * size * np.dtype(dtype).itemsize))


def _increments(hl) -> np.ndarray:
    """The RK4 increments X = P - I of the steps whose dt * L matrices at their grid and
    half-step times are the (2k+1)-stack ``hl``: the stages as matrices acting on a
    step's initial state, with the identity left out so that rounding stays at the
    size of X."""
    hl_mid = hl[1::2]
    k1 = hl[:-1:2]
    k2 = hl_mid + 0.5 * (hl_mid @ k1)
    k3 = hl_mid + 0.5 * (hl_mid @ k2)
    k4 = hl[2::2] + hl[2::2] @ k3
    return (k1 + 2.0 * (k2 + k3) + k4) / 6.0


def _block_products(x, m) -> np.ndarray:
    """R_i = X_i + R_(i-1) + X_i R_(i-1) = P_i...P_1 - I, i = 1..m, of each block of m
    steps with increments ``x``, the last block padded with X = 0."""
    size = x.shape[-1]
    r = np.zeros((-(-len(x) // m), m, size, size), dtype=x.dtype)
    r.reshape(-1, size, size)[:len(x)] = x
    for i in range(1, m):
        r[:, i] += r[:, i - 1] + r[:, i] @ r[:, i - 1]
    return r


def propagate_linear(generators, v0, grid: TimeGrid) -> np.ndarray:
    """Integrate dv/dt = L(t) v with fixed-step classical RK4.

    ``generators(times)`` returns the stack of L matrices at a 1-D array of
    times; it is called once per chunk of k steps, at the chunk's grid and
    half-step times.  Batched products build each step's increment X = P - I
    (the RK4 transfer matrix minus the identity), then, in blocks of
    m = isqrt(k) steps (the last padded with X = 0), R_i = X_i + R_(i-1) +
    X_i R_(i-1) = P_i...P_1 - I and each block's states s + R_i s from its
    start state s: about 2 sqrt(k) Python steps per chunk.

    For a time-independent equation, ``generators`` is the one (D, D) matrix L
    instead: X is built once, and R_1..R_m once per distinct block length m,
    with the same products, so the trajectory is bit-identical to that of a
    callable returning L at every time.  Returns the (n_steps + 1, len(v0))
    trajectory in the dtype of ``v0``, or raises ValueError if it diverged.
    """
    v = np.array(v0)
    n, dt = grid.n_steps, grid.dt
    out = np.empty((n + 1, v.size), dtype=v.dtype)
    out[0] = v
    chunk = _steps_per_chunk(v.size, v.dtype)
    constant = not callable(generators)
    products = {}  # block length m -> R_1..R_m of a time-independent equation
    # a diverging solution overflows: it is reported below, once
    with np.errstate(over="ignore", invalid="ignore"):
        if constant:
            # one step's three stage times, all at the one matrix
            x = _increments(dt * np.broadcast_to(generators, (3, v.size, v.size)))
        for start in range(0, n, chunk):
            k = min(chunk, n - start)
            m = math.isqrt(k)
            if constant:
                if m not in products:
                    products[m] = _block_products(np.broadcast_to(x, (m, v.size, v.size)), m)[0]
                r = itertools.repeat(products[m])  # every block of the chunk
            else:
                half_steps = np.arange(2 * start, 2 * (start + k) + 1)
                hl = dt * generators(grid.t0 + (0.5 * dt) * half_steps)
                r = _block_products(_increments(hl), m)
            for first, block in zip(range(start + 1, start + k + 1, m), r):
                rows = out[first:min(first + m, start + k + 1)]
                rows[:] = v + block[:len(rows)] @ v
                v = rows[-1]
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise ValueError(f"propagation diverged at t={grid.t0 + dt * finite.argmin():.6g}")
    return out


def _renormalize_traces(x, d, grid: TimeGrid) -> tuple[tuple[float, float], ...]:
    """Renormalize in place each state of ``x`` whose trace, its first d coordinates'
    sum, drifted beyond TRACE_RENORM_TOL since the last renormalization, and return
    the (t, drift) of each one.

    The equation is linear, so renormalizing a state during propagation
    scales every later state by the same reciprocal trace.  Scanning one
    window at a time keeps the cost linear even when renormalization is frequent.
    """
    traces = x[:, :d].sum(axis=1)
    window = _steps_per_chunk(x.shape[1], x.dtype)
    events, scales, renormalized = [0], [1.0], []
    k = 1
    while k < len(traces):
        drift = np.abs(traces[k:k + window] * (1.0 / scales[-1]) - 1.0)
        over = np.flatnonzero(drift > TRACE_RENORM_TOL)
        if over.size:
            j = k + over[0]
            renormalized.append((grid.t0 + grid.dt * j, float(drift[over[0]])))
            events.append(j)
            scales.append(traces[j])
            k = j + 1
        else:
            k += window
    if len(events) > 1:
        x *= np.repeat(1.0 / np.array(scales), np.diff(events + [len(traces)]))[:, None]
    return tuple(renormalized)


def _propagate_density(liouvillian: FourierOperator, rho0, grid: TimeGrid) -> Trajectory:
    """Propagate a density matrix as its real coordinates x, in which ``liouvillian``
    must be real (:func:`~avgdyn.linalg.hermitian_coordinates`); renormalize its trace."""
    if failures := validate_density(rho0):
        raise ValueError("not a density matrix: " + "; ".join(failures))
    if liouvillian.dim != np.size(rho0):
        raise ValueError(f"Hamiltonian dim {math.isqrt(liouvillian.dim)} != state dim {len(rho0)}")
    to_vec, from_vec = hermitian_coordinates(len(rho0))
    real = FourierOperator.constant(from_vec) @ liouvillian @ FourierOperator.constant(to_vec)
    conj = FourierOperator(real.dim, [(c.conj(), -nu, p) for c, nu, p in real.terms])
    if (imag := (real - conj).max_abs() / 2.0) > HERMITICITY_TOL * real.max_abs():
        raise ValueError(f"generator not Hermiticity-preserving: imaginary part {imag:.3e}")
    generators = real.evaluate_real
    if all(nu == 0.0 and p == 0 for _, nu, p in real.terms):  # time-independent
        generators = real.evaluate_real(np.array([grid.t0]))[0]
    x = propagate_linear(generators, (from_vec @ vectorize(rho0)).real, grid)
    return Trajectory(grid.times(), x, _renormalize_traces(x, len(rho0), grid))


def propagate_exact(hamiltonian: HarmonicHamiltonian, rho0, grid: TimeGrid) -> Trajectory:
    """Integrate i d(rho)/dt = [H(t), rho] with fixed-step RK4.

    H(t) is Hermitian by construction of the HarmonicHamiltonian; the trace
    is renormalized only if it drifts beyond 1e-12, and each renormalization
    is listed in ``Trajectory.renormalized``.
    """
    return _propagate_density(hamiltonian.liouvillian, rho0, grid)


def propagate_effective(generator: EffectiveGenerator, rho0, grid: TimeGrid) -> Trajectory:
    """Integrate the averaged master equation with fixed-step RK4.

    The averaged equation is not guaranteed completely positive: the state
    is never clamped, and ``Trajectory.min_eigenvalues`` measures its dip.
    """
    return _propagate_density(generator.liouvillian, rho0, grid)
