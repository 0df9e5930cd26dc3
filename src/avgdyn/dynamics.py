"""Fixed-step propagation of exact and averaged density-matrix dynamics.

The exact equation i d(rho)/dt = [H(t), rho], the averaged master
equation of an :class:`~avgdyn.harmonic.EffectiveGenerator` and the Raman
Bloch system are all linear, dv/dt = L(t) v: :func:`propagate_linear`
integrates each with one chunked, fixed-step classical RK4, giving
deterministic trajectories suitable for golden-file comparisons.  Density
matrices are propagated as their real Hermitian coordinates, in which the
Liouvillian is real.  Where a diagonal frame makes it a constant K (f = 0 if it is
time-independent), the one step is e^(dt K) to rounding, RK4 scaled and squared;
else each chunk evaluates it in real arithmetic (:meth:`FourierOperator.evaluate_real`).
Nothing here logs: a trajectory carries its diagnostics, for the caller to word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fourier import FREQUENCY_MERGE_TOL, FourierOperator
from .harmonic import EffectiveGenerator, HarmonicHamiltonian
from .linalg import hermitian_coordinates, validate_density, vectorize

__all__ = ["TimeGrid", "Trajectory", "propagate_linear", "propagate_exact",
           "propagate_effective"]

MAX_STEPS = 10_000_000
# Smallest dt, in units in the last place of the largest |t| on a grid: the
# times t0 + k * dt then carry each step to a relative rounding of ~1e-6.
MIN_STEP_ULPS = 2 ** 20
# Largest |tr(rho) - 1| a run accepts without a warning: every generator here
# annihilates the trace, so a propagated trace moves only by rounding.
TRACE_TOL = 1e-12
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
# Halvings of a framed model's step before its RK4 increment is squared back up: they shrink
# RK4's error 2^-64-fold, below rounding while dt * ||K|| is up to about 10.
HALVINGS = 16


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
    were propagated in.

    Trace drift, purity, and the minimum eigenvalue of a 2-level state are read off
    x; complex states are built only for the minimum eigenvalue at d != 2."""

    times: np.ndarray
    coords: np.ndarray  # shape (n_samples, d**2)

    @property
    def dim(self) -> int:
        return math.isqrt(self.coords.shape[1])

    @property
    def states(self) -> np.ndarray:
        """The (n_samples, d, d) states, assigned from x and so exact and exactly Hermitian;
        uncached, held with x only while the d != 2 minimum eigenvalue reads them."""
        d, x = self.dim, self.coords
        i, j = np.triu_indices(d, 1)  # the pairs' order in x
        rho = np.zeros((len(x), d, d), dtype=complex)
        rho.real[:, range(d), range(d)] = x[:, :d]
        rho.real[:, i, j] = rho.real[:, j, i] = x[:, d::2]
        rho.imag[:, i, j], rho.imag[:, j, i] = x[:, d + 1::2], -x[:, d + 1::2]
        return rho

    # computed once: a run reads each diagnostic for its CSV and its report
    @cached_property
    def trace_drift(self) -> np.ndarray:
        """|tr(rho) - 1| = |sum_i rho_ii - 1|, never corrected."""
        return np.abs(self.coords[:, :self.dim].sum(axis=1) - 1.0)

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
    """Steps k per chunk: its 2k+1 generator matrices fit in CHUNK_BYTES, its R stack in half
    that, and each doubling round's two temporaries in CHUNK_BYTES again."""
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


def propagate_linear(step, v0, grid: TimeGrid) -> np.ndarray:
    """Integrate dv/dt = L(t) v with fixed-step classical RK4.

    ``step(times)`` returns the stack of L matrices at a 1-D array of
    times; it is called once per chunk of k steps, at the chunk's grid and
    half-step times.  Batched products build each step's increment X = P - I
    (the RK4 transfer matrix minus the identity), then the chunk's prefix products
    R_i = P_i...P_1 - I by doubling, R <- R' + R + R'R for the product P'P of the
    adjacent spans, in ceil(log2 k) rounds, and its states s + R_i s from its start
    state s.  ``step`` may instead be the increment X of a constant step: rows
    [j, 2j) are then rows [0, j) stepped by R = (I + X)^j - I, j = 1, 2, 4, ....
    Returns the (n_steps + 1, len(v0)) trajectory in the dtype of ``v0``, or raises
    ValueError if it diverged.
    """
    v = np.array(v0)
    n, dt = grid.n_steps, grid.dt
    out = np.empty((n + 1, v.size), dtype=v.dtype)
    out[0] = v
    # a diverging solution overflows: it is reported below, once
    with np.errstate(over="ignore", invalid="ignore"):
        if not callable(step):
            r, j = step, 1
            while j <= n:
                rows = out[j:2 * j]
                np.matmul(out[:len(rows)], r.T, out=rows)
                rows += out[:len(rows)]
                r, j = r + (r + r @ r), 2 * j
        else:
            for start in range(0, n, chunk := _steps_per_chunk(v.size, v.dtype)):
                k = min(chunk, n - start)
                half_steps = np.arange(2 * start, 2 * (start + k) + 1)
                r, j = _increments(dt * step(grid.t0 + (0.5 * dt) * half_steps)), 1
                while j < k:
                    r[j:] += r[:-j] + r[j:] @ r[:-j]
                    j *= 2
                out[start + 1:start + k + 1] = out[start] + r @ out[start]
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise ValueError(f"propagation diverged at t={grid.t0 + dt * finite.argmin():.6g}")
    return out


def _frame(liouvillian: FourierOperator):
    """The diagonal f (f_0 = 0, |f_i| <= FREQUENCY_MERGE_TOL snapped to 0) of a frame e^(iFt)
    where the vec-basis ``liouvillian`` is constant: f_i - f_j - f_k + f_l = -nu for each
    entry (i + d j, k + d l) != 0 of each term (C, nu, 0), within that tolerance; else None."""
    d, terms = math.isqrt(liouvillian.dim), liouvillian.terms
    term, a, b = np.nonzero(np.reshape([c for c, *_ in terms], (-1, d * d, d * d)))
    eqs = ((unit := np.eye(d))[a % d] - unit[a // d] - unit[b % d] + unit[b // d])[:, 1:]
    rhs = -np.array([nu for _, nu, _ in terms])[term]
    # least squares by conjugate gradients (exact in d - 1 steps): lstsq maps 0.5 MB of LAPACK
    m, f, r = eqs.T @ eqs, np.zeros(d - 1), (s := eqs.T @ rhs)
    for _ in range(d - 1):
        if not (q := s @ m @ s):  # the residual r, and so the direction s, is zero
            break
        f, r, rr = f + (r @ r / q) * s, r - (r @ r / q) * (m @ s), r @ r
        s = r + (r @ r / rr) * s
    if any(p > 0 for *_, p in terms) or np.abs(eqs @ f - rhs).max(initial=0) > FREQUENCY_MERGE_TOL:
        return None
    return np.insert(np.where(np.abs(f) <= FREQUENCY_MERGE_TOL, 0.0, f), 0, 0.0)


def _turned(x, theta) -> np.ndarray:
    """(Rot - I) x on the last axis, Rot turning the pairs (Re, Im) rho_ij that end it by
    ``theta``: from -2 sin^2(theta/2) and sin(theta), so that rounding stays at its size."""
    c1, s = -2.0 * np.sin(0.5 * theta) ** 2, np.sin(theta)
    first = x.shape[-1] - 2 * np.shape(theta)[-1]  # column of the first pair: none if no pairs
    re, im, out = x[..., first::2], x[..., first + 1::2], np.zeros(x.shape)
    out[..., first::2], out[..., first + 1::2] = c1 * re - s * im, s * re + c1 * im
    return out


def _propagate_density(liouvillian: FourierOperator, rho0, grid: TimeGrid) -> Trajectory:
    """Propagate a density matrix as its real coordinates x, in which ``liouvillian``
    must be real (:func:`~avgdyn.linalg.hermitian_coordinates`)."""
    if failures := validate_density(rho0):
        raise ValueError("not a density matrix: " + "; ".join(failures))
    if liouvillian.dim != np.size(rho0):
        raise ValueError(f"Hamiltonian dim {math.isqrt(liouvillian.dim)} != state dim {len(rho0)}")
    to_vec, from_vec = hermitian_coordinates(len(rho0))
    real = FourierOperator.constant(from_vec) @ liouvillian @ FourierOperator.constant(to_vec)
    conj = FourierOperator(real.dim, [(c.conj(), -nu, p) for c, nu, p in real.terms])
    if (imag := (real - conj).max_abs() / 2.0) > HERMITICITY_TOL * real.max_abs():
        raise ValueError(f"generator not Hermiticity-preserving: imaginary part {imag:.3e}")
    v0 = (from_vec @ vectorize(rho0)).real
    if (f := _frame(liouvillian)) is None:  # stepped per chunk, in the lab frame
        return Trajectory(grid.times(), propagate_linear(real.evaluate_real, v0, grid))
    # y = Rot(t - t0) x, pairs rho_ij turned by (f_i - f_j)(t - t0), obeys dy/dt = K y with
    # K = L(t0) + W, W turning each pair at f_i - f_j: its step e^(dt K) - I is the RK4
    # increment of K over dt / 2^HALVINGS, doubled HALVINGS times
    rates, dt = (f[:, None] - f)[np.triu_indices(len(f), 1)], grid.dt
    gen = real.evaluate_real(np.array([grid.t0]))[0]
    gen[len(f):, len(f):] += np.kron(np.diag(rates), [[0.0, -1.0], [1.0, 0.0]])  # W: the pairs
    with np.errstate(over="ignore", invalid="ignore"):
        step = _increments(np.broadcast_to(dt / 2 ** HALVINGS * gen, (3,) + gen.shape))[0]
        for _ in range(HALVINGS):
            step = step + (step + step @ step)
    y = propagate_linear(step, v0, grid)
    if rates.any():  # back to the lab frame, each row turned by -(f_i - f_j) k dt
        for start in range(0, len(y), rows := max(1, CHUNK_BYTES // y[0].nbytes)):
            part = y[start:start + rows]  # CHUNK_BYTES at a time
            k = np.arange(start, start + len(part))
            part += _turned(part, -np.multiply.outer(dt * k, rates))
    return Trajectory(grid.times(), y)


def propagate_exact(hamiltonian: HarmonicHamiltonian, rho0, grid: TimeGrid) -> Trajectory:
    """Integrate i d(rho)/dt = [H(t), rho]: exactly in its drives' frame, else by RK4.

    H(t) is Hermitian by construction of the HarmonicHamiltonian; the trace
    is never rescaled, and ``Trajectory.trace_drift`` measures how far it moved.
    """
    return _propagate_density(hamiltonian.liouvillian, rho0, grid)


def propagate_effective(generator: EffectiveGenerator, rho0, grid: TimeGrid) -> Trajectory:
    """Integrate the averaged master equation: exactly in its drives' frame, else by RK4.

    The averaged equation is not guaranteed completely positive: the state
    is never clamped, and ``Trajectory.min_eigenvalues`` measures its dip.
    """
    return _propagate_density(generator.liouvillian, rho0, grid)
