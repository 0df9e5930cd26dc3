import logging
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from avgdyn import (
    EffectiveGenerator,
    FourierOperator,
    HarmonicHamiltonian,
    RamanParams,
    TimeGrid,
    bloch_rhs,
    integrate_bloch,
    propagate_effective,
    propagate_exact,
)
from avgdyn.dynamics import TRACE_RENORM_TOL, _steps_per_chunk
from util import random_density, random_harmonic, random_hermitian


def reference_rk4(rhs, y0, grid, renormalize):
    """Per-step classical RK4 on rhs(y, t), renormalizing the trace of a
    density matrix wherever it drifts beyond TRACE_RENORM_TOL.  This is
    the loop the chunked propagator replaced, kept as its reference.
    Returns the trajectory and the times at which it renormalized."""
    y = np.array(y0)
    dt = grid.dt
    out, renormalized = [y], []
    for k in range(grid.n_steps):
        t = grid.t0 + k * dt
        k1 = rhs(y, t)
        k2 = rhs(y + (0.5 * dt) * k1, t + 0.5 * dt)
        k3 = rhs(y + (0.5 * dt) * k2, t + 0.5 * dt)
        k4 = rhs(y + dt * k3, t + dt)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if renormalize and abs(y.trace() - 1.0) > TRACE_RENORM_TOL:
            renormalized.append(f"{t + dt:.6g}")
            y = y / y.trace()
        out.append(y)
    return np.array(out), renormalized


def commutator_rhs(hamiltonian):
    def rhs(rho, t):
        h = hamiltonian.evaluate(t)
        return -1j * (h @ rho - rho @ h)
    return rhs


def renormalized_times(caplog):
    return [re.search(r"at t=(\S+);", r.getMessage()).group(1)
            for r in caplog.records if r.getMessage().startswith("trace drifted")]


class LeakyGenerator(EffectiveGenerator):
    """Averaged generator plus uniform decay rho' -= leak * rho, so the
    trace drifts by about leak * dt per step."""

    leak = 3.5e-11

    def master_rhs(self, rho, t):
        return super().master_rhs(rho, t) - self.leak * np.asarray(rho)

    def liouvillian_matrix(self, t):
        return super().liouvillian_matrix(t) - self.leak * np.eye(self.dim ** 2)


def ac_stark_fourier(omega_rabi=0.3, delta=1.0):
    h = np.zeros((2, 2), dtype=complex)
    h[1, 0] = omega_rabi / 2
    return HarmonicHamiltonian(np.zeros((2, 2)), ((h, delta),)).as_fourier()


PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="t_max"):
            TimeGrid(1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="dt"):
            TimeGrid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="steps"):
            TimeGrid(0.0, 1e9, 1e-2)

    def test_times_span_grid(self):
        grid = TimeGrid(0.5, 2.5, 0.25)
        ts = grid.times()
        assert ts[0] == 0.5 and ts[-1] == pytest.approx(2.5)
        assert len(ts) == grid.n_steps + 1


class TestPropagateExact:
    def test_zero_hamiltonian_is_constant(self):
        rng = np.random.default_rng(0)
        rho0 = random_density(rng, 2)
        traj = propagate_exact(FourierOperator.zero(2), rho0, TimeGrid(0, 5, 0.1))
        assert_allclose(traj.states[-1], rho0, atol=1e-15)

    def test_diagonal_hamiltonian_phase(self):
        e1, e2 = 0.7, -0.4
        h = FourierOperator.constant(np.diag([e1, e2]))
        rng = np.random.default_rng(1)
        rho0 = random_density(rng, 2)
        grid = TimeGrid(0, 20, 0.01)
        traj = propagate_exact(h, rho0, grid)
        want = rho0[0, 1] * np.exp(-1j * (e1 - e2) * traj.times)
        assert_allclose(traj.entry(0, 1), want, atol=1e-9)

    def test_ac_stark_against_rotating_frame_exponential(self):
        omega_rabi, delta = 0.3, 1.0
        grid = TimeGrid(0.0, 50.0, 0.01)
        traj = propagate_exact(ac_stark_fourier(omega_rabi, delta), PLUS, grid)
        number_op = np.diag([0.0, 1.0])
        x_block = np.array([[0.0, 1.0], [1.0, 0.0]])
        h_rot = omega_rabi / 2 * x_block - delta * number_op
        for idx in (1000, 3333, 5000):
            t = traj.times[idx]
            v = expm(1j * delta * t * number_op)
            u = expm(-1j * h_rot * t)
            want = v.conj().T @ (u @ PLUS @ u.conj().T) @ v
            assert_allclose(traj.states[idx], want, atol=1e-8)

    def test_purity_conserved(self):
        rng = np.random.default_rng(2)
        ham = random_harmonic(rng, 2, 2, strength=0.1)
        w_max = max(ham.frequencies())
        rho0 = random_density(rng, 2)
        traj = propagate_exact(ham.as_fourier(), rho0, TimeGrid(0, 100, 0.025 / w_max))
        purity = traj.purity()
        assert np.abs(purity - purity[0]).max() < 1e-8

    def test_trace_stays_normalized(self):
        rng = np.random.default_rng(3)
        ham = random_harmonic(rng, 3, 2, strength=0.2)
        rho0 = random_density(rng, 3)
        traj = propagate_exact(ham.as_fourier(), rho0, TimeGrid(0, 50, 0.02))
        traces = np.einsum("tii->t", traj.states)
        assert np.abs(traces - 1.0).max() < 1e-12

    def test_invalid_initial_state_rejected(self):
        with pytest.raises(ValueError, match="density"):
            propagate_exact(FourierOperator.zero(2),
                            np.array([[0.5, 0.6], [0.6, 0.5]]),
                            TimeGrid(0, 1, 0.1))

    def test_non_hermitian_hamiltonian_rejected(self):
        h = FourierOperator.constant(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            propagate_exact(h, np.eye(2, dtype=complex) / 2, TimeGrid(0, 1, 0.1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            propagate_exact(FourierOperator.zero(3), PLUS, TimeGrid(0, 1, 0.1))


class TestPropagateEffective:
    def test_zero_generator_is_constant(self):
        rng = np.random.default_rng(4)
        rho0 = random_density(rng, 2)
        gen = EffectiveGenerator(HarmonicHamiltonian(np.zeros((2, 2))))
        traj = propagate_effective(gen, rho0, TimeGrid(0, 5, 0.05))
        assert_allclose(traj.states[-1], rho0, atol=1e-15)

    def test_ac_stark_coherence_frequency(self):
        from avgdyn import dominant_frequency
        h = np.zeros((2, 2), dtype=complex)
        h[1, 0] = 0.15
        gen = EffectiveGenerator(HarmonicHamiltonian(np.zeros((2, 2)), ((h, 1.0),)))
        traj = propagate_effective(gen, PLUS, TimeGrid(0, 2000, 0.05))
        freq = dominant_frequency(traj.entry(0, 1).real, 0.05)
        assert abs(freq - 0.045) < 2 * np.pi / 2000

    def test_trajectory_diagnostics_shapes(self):
        rng = np.random.default_rng(5)
        ham = random_harmonic(rng, 3, 2, strength=0.2)
        rho0 = random_density(rng, 3)
        grid = TimeGrid(0, 10, 0.05)
        traj = propagate_effective(EffectiveGenerator(ham), rho0, grid)
        n = grid.n_steps + 1
        assert traj.states.shape == (n, 3, 3)
        assert traj.purity().shape == (n,)
        assert traj.min_eigenvalues().shape == (n,)
        assert traj.min_eigenvalues().min() > -1e-9

    def test_matches_exact_for_commuting_static_hamiltonian(self):
        # with no drive the averaged equation is the exact one
        rng = np.random.default_rng(6)
        h0 = random_hermitian(rng, 2, 0.3)
        rho0 = random_density(rng, 2)
        grid = TimeGrid(0, 20, 0.01)
        exact = propagate_exact(FourierOperator.constant(h0), rho0, grid)
        eff = propagate_effective(
            EffectiveGenerator(HarmonicHamiltonian(h0)), rho0, grid
        )
        assert_allclose(eff.states[-1], exact.states[-1], atol=1e-12)


def chunk_lengths(size, dtype):
    chunk = _steps_per_chunk(size, dtype)
    return [1, chunk, chunk + 1]


def grid_with_steps(n, dt):
    grid = TimeGrid(0.3, 0.3 + dt * n, dt)
    assert grid.n_steps == n
    return grid


class TestAgainstPerStepLoop:
    """The chunked propagator against the per-step loop it replaced, for
    one step, exactly one chunk, and one chunk plus a step."""

    @pytest.mark.parametrize("n", chunk_lengths(9, complex))
    def test_exact(self, n):
        rng = np.random.default_rng(10)
        ham = random_harmonic(rng, 3, 2, strength=0.2).as_fourier()
        rho0 = random_density(rng, 3)
        grid = grid_with_steps(n, 0.02)
        want, _ = reference_rk4(commutator_rhs(ham), rho0, grid, renormalize=True)
        assert np.abs(propagate_exact(ham, rho0, grid).states - want).max() < 1e-13

    @pytest.mark.parametrize("n", chunk_lengths(9, complex))
    def test_effective(self, n):
        rng = np.random.default_rng(11)
        gen = EffectiveGenerator(random_harmonic(rng, 3, 2, strength=0.2))
        rho0 = random_density(rng, 3)
        grid = grid_with_steps(n, 0.02)
        want, _ = reference_rk4(gen.master_rhs, rho0, grid, renormalize=True)
        assert np.abs(propagate_effective(gen, rho0, grid).states - want).max() < 1e-13

    @pytest.mark.parametrize("n", chunk_lengths(4, float))
    def test_bloch(self, n):
        params = RamanParams(0.1, 0.1, 1.0, 1.02)
        r0 = np.array([0.3, 0.2, 0.4, 0.1])
        grid = grid_with_steps(n, 0.5)
        want, _ = reference_rk4(lambda r, t: bloch_rhs(params, r, t), r0, grid,
                                renormalize=False)
        _, rows = integrate_bloch(params, r0, grid)
        assert rows.dtype == np.float64
        assert np.abs(rows - want).max() < 1e-13

    def test_leaking_trace_renormalized_at_the_same_steps(self, caplog):
        rng = np.random.default_rng(12)
        gen = LeakyGenerator(random_harmonic(rng, 2, 2, strength=0.2))
        rho0 = random_density(rng, 2)
        grid = grid_with_steps(2 * _steps_per_chunk(4, complex) + 7, 0.01)
        want, want_times = reference_rk4(gen.master_rhs, rho0, grid, renormalize=True)
        with caplog.at_level(logging.WARNING, logger="avgdyn.dynamics"):
            traj = propagate_effective(gen, rho0, grid)
        assert len(want_times) > grid.n_steps // 4
        assert renormalized_times(caplog) == want_times
        assert np.abs(traj.states - want).max() < 1e-13


def test_non_hermitian_only_at_half_steps_rejected():
    # A sin(pi t / dt) vanishes at the grid points, not between them
    dt = 0.1
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    nu = np.pi / dt
    h = FourierOperator(2, [(a / 2j, nu, 0), (-a / 2j, -nu, 0)])
    grid = TimeGrid(0.0, 1.0, dt)
    assert max(np.abs(h.evaluate(t)).max() for t in grid.times()) < 1e-12
    with pytest.raises(ValueError, match=r"not Hermitian at t=0\.05"):
        propagate_exact(h, np.eye(2, dtype=complex) / 2, grid)
