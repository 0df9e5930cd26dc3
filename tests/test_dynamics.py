import itertools
import json
import types
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from avgdyn.dynamics import (
    TRACE_TOL,
    TimeGrid,
    Trajectory,
    _frame,
    _increments,
    _propagate_density,
    _steps_per_chunk,
    _turned,
    propagate_effective,
    propagate_exact,
    propagate_linear,
)
from avgdyn.fourier import FourierOperator
from avgdyn.harmonic import EffectiveGenerator, HarmonicHamiltonian
from avgdyn.linalg import hermitian_coordinates, unvectorize, vectorize
from avgdyn.raman import RamanParams, bloch_matrix, integrate_bloch, raman_coefficients
from avgdyn.scenarios import build_record, load_scenario, scenario_from_dict
from avgdyn.signals import dominant_frequency
from util import random_density, random_harmonic, random_hermitian


def reference_rk4(rhs, y0, grid):
    """Per-step classical RK4 on rhs(y, t): the loop the chunked propagator
    replaced, kept as its reference.  Returns the trajectory."""
    y = np.array(y0)
    dt = grid.dt
    out = [y]
    for k in range(grid.n_steps):
        t = grid.t0 + k * dt
        k1 = rhs(y, t)
        k2 = rhs(y + (0.5 * dt) * k1, t + 0.5 * dt)
        k3 = rhs(y + (0.5 * dt) * k2, t + 0.5 * dt)
        k4 = rhs(y + dt * k3, t + dt)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def commutator_rhs(hamiltonian):
    def rhs(rho, t):
        h = hamiltonian.evaluate(t)
        return -1j * (h @ rho - rho @ h)
    return rhs


class LeakyGenerator(EffectiveGenerator):
    """Averaged generator plus uniform decay rho' -= leak * rho, so the
    trace drifts by about leak * dt per step."""

    leak = 3.5e-11

    def master_rhs(self, rho, t):
        return super().master_rhs(rho, t) - self.leak * np.asarray(rho)

    @cached_property
    def liouvillian(self):
        return super().liouvillian - self.leak * FourierOperator.identity(self.dim ** 2)


def ac_stark(omega_rabi=0.3, delta=1.0):
    h = np.zeros((2, 2), dtype=complex)
    h[1, 0] = omega_rabi / 2
    return HarmonicHamiltonian(np.zeros((2, 2)), ((h, delta),))


PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError, match="t_max"):
            TimeGrid(1.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="dt"):
            TimeGrid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="steps"):
            TimeGrid(0.0, 1e9, 1e-2)
        with pytest.raises(ValueError, match="rounding"):
            TimeGrid(1e17, 1e17 + 2048, 1e-2)
        with pytest.raises(ValueError, match=r"^dt 2\.0 exceeds the span t_max - t0 = 1\.0$"):
            TimeGrid(0.0, 1.0, 2.0)
        # the span 0.3 - 0.1 rounds to 0.19999999999999998: still one step
        assert TimeGrid(0.1, 0.3, 0.2).n_steps == 1

    def test_times_span_grid(self):
        grid = TimeGrid(0.5, 2.5, 0.25)
        ts = grid.times()
        assert ts[0] == 0.5 and ts[-1] == pytest.approx(2.5)
        assert len(ts) == grid.n_steps + 1


class TestPropagateExact:
    def test_zero_hamiltonian_is_constant(self):
        rng = np.random.default_rng(0)
        rho0 = random_density(rng, 2)
        traj = propagate_exact(HarmonicHamiltonian(np.zeros((2, 2))), rho0, TimeGrid(0, 5, 0.1))
        assert_allclose(traj.states[-1], rho0, atol=1e-15)

    def test_diagonal_hamiltonian_phase(self):
        e1, e2 = 0.7, -0.4
        h = HarmonicHamiltonian(np.diag([e1, e2]))
        rng = np.random.default_rng(1)
        rho0 = random_density(rng, 2)
        grid = TimeGrid(0, 20, 0.01)
        traj = propagate_exact(h, rho0, grid)
        want = rho0[0, 1] * np.exp(-1j * (e1 - e2) * traj.times)
        assert_allclose(traj.states[:, 0, 1], want, atol=1e-9)

    def test_ac_stark_against_rotating_frame_exponential(self):
        omega_rabi, delta = 0.3, 1.0
        grid = TimeGrid(0.0, 50.0, 0.01)
        traj = propagate_exact(ac_stark(omega_rabi, delta), PLUS, grid)
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
        w_max = max(w for _, w in ham.terms)
        rho0 = random_density(rng, 2)
        traj = propagate_exact(ham, rho0, TimeGrid(0, 100, 0.025 / w_max))
        purity = traj.purity
        assert np.abs(purity - purity[0]).max() < 1e-8

    def test_trace_stays_normalized(self):
        rng = np.random.default_rng(3)
        ham = random_harmonic(rng, 3, 2, strength=0.2)
        rho0 = random_density(rng, 3)
        traj = propagate_exact(ham, rho0, TimeGrid(0, 50, 0.02))
        traces = np.einsum("tii->t", traj.states)
        assert np.abs(traces - 1.0).max() < 1e-12

    def test_invalid_initial_state_rejected(self):
        with pytest.raises(ValueError, match="^not a density matrix: minimum eigenvalue"):
            propagate_exact(HarmonicHamiltonian(np.zeros((2, 2))),
                            np.array([[0.5, 0.6], [0.6, 0.5]]),
                            TimeGrid(0, 1, 0.1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            propagate_exact(HarmonicHamiltonian(np.zeros((3, 3))), PLUS, TimeGrid(0, 1, 0.1))


class TestPropagateEffective:
    def test_zero_generator_is_constant(self):
        rng = np.random.default_rng(4)
        rho0 = random_density(rng, 2)
        gen = EffectiveGenerator(HarmonicHamiltonian(np.zeros((2, 2))))
        traj = propagate_effective(gen, rho0, TimeGrid(0, 5, 0.05))
        assert_allclose(traj.states[-1], rho0, atol=1e-15)

    def test_ac_stark_coherence_frequency(self):
        h = np.zeros((2, 2), dtype=complex)
        h[1, 0] = 0.15
        gen = EffectiveGenerator(HarmonicHamiltonian(np.zeros((2, 2)), ((h, 1.0),)))
        traj = propagate_effective(gen, PLUS, TimeGrid(0, 2000, 0.05))
        freq = dominant_frequency(traj.states[:, 0, 1].real, 0.05)
        assert abs(freq - 0.045) < 2 * np.pi / 2000

    def test_trajectory_diagnostics_shapes(self):
        rng = np.random.default_rng(5)
        ham = random_harmonic(rng, 3, 2, strength=0.2)
        rho0 = random_density(rng, 3)
        grid = TimeGrid(0, 10, 0.05)
        traj = propagate_effective(EffectiveGenerator(ham), rho0, grid)
        n = grid.n_steps + 1
        assert traj.states.shape == (n, 3, 3)
        assert traj.purity.shape == (n,)
        assert traj.min_eigenvalues.shape == (n,)
        assert traj.min_eigenvalues.min() > -1e-9

    def test_matches_exact_for_commuting_static_hamiltonian(self):
        # with no drive the averaged equation is the exact one
        rng = np.random.default_rng(6)
        h0 = random_hermitian(rng, 2, 0.3)
        rho0 = random_density(rng, 2)
        grid = TimeGrid(0, 20, 0.01)
        exact = propagate_exact(HarmonicHamiltonian(h0), rho0, grid)
        eff = propagate_effective(
            EffectiveGenerator(HarmonicHamiltonian(h0)), rho0, grid
        )
        assert_allclose(eff.states[-1], exact.states[-1], atol=1e-12)


def chunk_lengths(size, dtype):
    # a last chunk of 7 steps takes 3 doubling rounds, the last of them over 3 of its steps
    chunk = _steps_per_chunk(size, dtype)
    return [1, chunk, chunk + 1, chunk + 7]


def grid_with_steps(n, dt):
    grid = TimeGrid(0.3, 0.3 + dt * n, dt)
    assert grid.n_steps == n
    return grid


class TestAgainstPerStepLoop:
    """The chunked, doubling propagator against the per-step loop it replaced,
    for one step, exactly one chunk, one chunk plus a step, and a last chunk
    whose length is not a power of 2.  Density matrices are propagated
    in float64 coordinates, so their chunks are float64 chunks."""

    @pytest.mark.parametrize("n", chunk_lengths(9, float))
    def test_exact(self, n):
        rng = np.random.default_rng(10)
        ham = random_harmonic(rng, 3, 2, strength=0.2)
        rho0 = random_density(rng, 3)
        grid = grid_with_steps(n, 0.02)
        want = reference_rk4(commutator_rhs(ham.as_fourier()), rho0, grid)
        assert np.abs(propagate_exact(ham, rho0, grid).states - want).max() < 1e-13

    @pytest.mark.parametrize("n", chunk_lengths(9, float))
    def test_effective(self, n):
        rng = np.random.default_rng(11)
        gen = EffectiveGenerator(random_harmonic(rng, 3, 2, strength=0.2))
        rho0 = random_density(rng, 3)
        grid = grid_with_steps(n, 0.02)
        want = reference_rk4(gen.master_rhs, rho0, grid)
        assert np.abs(propagate_effective(gen, rho0, grid).states - want).max() < 1e-13

    @pytest.mark.parametrize("n", chunk_lengths(4, float))
    def test_bloch(self, n):
        params = RamanParams(0.1, 0.1, 1.0, 1.02)
        r0 = np.array([0.3, 0.2, 0.4, 0.1])
        rate = raman_coefficients(params)[3]
        grid = grid_with_steps(n, 0.5)
        want = reference_rk4(lambda r, t: bloch_matrix(params, rate * t) @ r, r0, grid)
        _, rows = integrate_bloch(params, r0, grid)
        assert rows.dtype == np.float64
        assert np.abs(rows - want).max() < 1e-13

    def test_leaking_trace_is_measured_not_rescaled(self):
        rng = np.random.default_rng(12)
        gen = LeakyGenerator(random_harmonic(rng, 2, 2, strength=0.2))
        rho0 = random_density(rng, 2)
        grid = grid_with_steps(2 * _steps_per_chunk(4, float) + 7, 0.01)
        want = reference_rk4(gen.master_rhs, rho0, grid)
        traj = propagate_effective(gen, rho0, grid)
        assert np.abs(traj.states - want).max() < 1e-13
        want_drift = np.abs(np.einsum("tii->t", want).real - 1.0)
        assert want_drift[-1] > 100 * TRACE_TOL  # leaked far past the warning bound
        assert_allclose(traj.trace_drift, want_drift, rtol=0, atol=1e-13)


@pytest.mark.parametrize("propagate", ["exact", "effective", "leaky"])
def test_states_are_exactly_hermitian(propagate):
    rng = np.random.default_rng(13)
    ham = random_harmonic(rng, 3, 2, strength=0.2)
    rho0 = random_density(rng, 3)
    grid = TimeGrid(0.0, 20.0, 0.02)
    if propagate == "exact":
        traj = propagate_exact(ham, rho0, grid)
    else:
        gen = (LeakyGenerator if propagate == "leaky" else EffectiveGenerator)(ham)
        traj = propagate_effective(gen, rho0, grid)
    assert np.array_equal(traj.states, traj.states.conj().transpose(0, 2, 1))
    assert np.all(np.einsum("tii->ti", traj.states).imag == 0.0)
    assert build_record(traj).data[:, 1:10].tobytes() == traj.coords.tobytes()


class ImaginaryLeakGenerator(LeakyGenerator):
    """rho' -= 1e-3j * rho: maps Hermitian states to non-Hermitian ones."""

    leak = 1e-3j


def test_generator_that_breaks_hermiticity_is_rejected():
    rng = np.random.default_rng(14)
    gen = ImaginaryLeakGenerator(random_harmonic(rng, 2, 2, strength=0.2))
    with pytest.raises(ValueError, match=r"^generator not Hermiticity-preserving: "
                                         r"imaginary part 1\.000e-03$"):
        propagate_effective(gen, random_density(rng, 2), TimeGrid(0.0, 1.0, 0.1))


def test_h0_hermitian_within_tolerance_runs_as_its_hermitian_part():
    # an anti-Hermitian part of 2e-13, accepted as Hermitian, is dropped rather
    # than rejected in real coordinates, where it would be 1e-10 of the largest term
    ham = HarmonicHamiltonian(np.array([[1e-3, 4e-13j], [0.0, -1e-3]]))
    assert np.array_equal(ham.h0, [[1e-3, 2e-13j], [-2e-13j, -1e-3]])
    traj = propagate_exact(ham, PLUS, TimeGrid(0.0, 1.0, 0.1))
    assert np.array_equal(traj.states, traj.states.conj().transpose(0, 2, 1))


def test_overflow_is_reported_at_the_first_non_finite_sample():
    # the first RK4 stage already overflows: one error, no numpy warnings,
    # for a callable and for the increment of a constant step
    def generators(times):
        return np.full((len(times), 1, 1), 1e200)

    for generator in (generators, np.full((1, 1), np.inf)):
        with pytest.raises(ValueError, match=r"^propagation diverged at t=0\.6$"):
            propagate_linear(generator, np.array([1.0]), TimeGrid(0.5, 2.0, 0.1))


@pytest.mark.parametrize("size", [1, 4, 9])
@pytest.mark.parametrize("steps", ["one", "whole chunks", "3 chunks + 7", "zero generator"])
def test_time_independent_matrix_steps_as_its_callable(size, steps):
    # the constant step doubles over the whole grid, rows [j, 2j) from rows [0, j), through a
    # last round that fills only part of its rows; the callable is scanned per chunk.  Both
    # are (I + X)^k v0 at every row k
    chunk = _steps_per_chunk(size, float)
    n = {"one": 1, "whole chunks": 2 * chunk, "3 chunks + 7": 3 * chunk + 7,
         "zero generator": chunk + 7}[steps]
    rng = np.random.default_rng(size)
    a = rng.standard_normal((size, size))
    generator = np.zeros((size, size)) if steps == "zero generator" else a - a.T - 0.1 * np.eye(size)
    v0 = rng.standard_normal(size)
    grid = grid_with_steps(n, 0.01)
    increment = _increments(grid.dt * np.stack([generator] * 3))[0]
    want = [np.linalg.matrix_power(np.eye(size) + increment, k) @ v0 for k in range(n + 1)]
    assert np.abs(propagate_linear(increment, v0, grid) - want).max() <= 1e-13

    def generators(times):
        return np.repeat(generator[None], len(times), axis=0)

    assert np.abs(propagate_linear(generators, v0, grid) - want).max() <= 1e-13


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = ("ac_stark", "raman", "raman_equal_detuning")


def lab_frame(liouvillian, rho0, grid):
    """The real coordinates stepped per chunk in the lab frame, as a model without a frame."""
    to_vec, from_vec = hermitian_coordinates(len(rho0))
    real = FourierOperator.constant(from_vec) @ liouvillian @ FourierOperator.constant(to_vec)
    return propagate_linear(real.evaluate_real, (from_vec @ vectorize(rho0)).real, grid)


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_models_evaluate_their_generator_once(monkeypatch, name):
    # every shipped model is constant in its drives' frame: its generator is read once, at t0,
    # never per chunk, on grids of 10 000 to 20 000 steps
    cfg = load_scenario(CONFIGS / f"{name}.json")
    evaluate_real = FourierOperator.evaluate_real
    for propagate, model in ((propagate_exact, cfg.hamiltonian),
                             (propagate_effective, cfg.generator)):
        calls = []
        monkeypatch.setattr(FourierOperator, "evaluate_real",
                            lambda self, t: calls.append(len(t)) or evaluate_real(self, t))
        traj = propagate(model, cfg.initial, cfg.grid)
        assert calls == [1]
        assert len(traj.coords) == cfg.grid.n_steps + 1 > _steps_per_chunk(9, float)


@pytest.mark.parametrize("name, exact, averaged", [
    ("ac_stark", [0.0, 1.0], [0.0, 0.0]),
    ("raman", [0.0, -0.02, 1.0], [0.0, -0.02, 0.0]),
    ("raman_equal_detuning", [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]),
])
def test_frames_of_the_shipped_models(name, exact, averaged):
    cfg = load_scenario(CONFIGS / f"{name}.json")
    for model, want in ((cfg.hamiltonian, exact), (cfg.generator, averaged)):
        f = _frame(model.liouvillian)
        assert_allclose(f, want, rtol=0, atol=1e-15)
        assert np.array_equal(f == 0.0, np.array(want) == 0.0)  # zeros snapped exactly


def test_models_without_a_frame():
    # random drives (d = 2-4, 1-3 of them): no exact model has a frame, and the averaged
    # model has one only with one drive, where it is time-independent (f = 0)
    for d, n_freq, seed in itertools.product((2, 3, 4), (1, 2, 3), range(20)):
        ham = random_harmonic(np.random.default_rng(seed), d, n_freq)
        assert _frame(ham.liouvillian) is None
        f = _frame(EffectiveGenerator(ham).liouvillian)
        assert (f is None) if n_freq > 1 else not f.any()
    # a drive with a diagonal entry; two frequencies on one transition
    h = np.array([[0.05, 0.0], [0.1, 0.0]])
    assert _frame(HarmonicHamiltonian(np.zeros((2, 2)), ((h, 1.0),)).liouvillian) is None
    h[0, 0] = 0.0
    two = HarmonicHamiltonian(np.zeros((2, 2)), ((h, 1.0), (h, 1.3)))
    assert _frame(two.liouvillian) is None and _frame(EffectiveGenerator(two).liouvillian) is None
    # a term that grows with t
    assert _frame(FourierOperator(4, [(np.eye(4), 0.0, 1)])) is None
    # a driven 1x1 model, two drives: on one level every superoperator is a scalar and
    # the decoherence bracket vanishes, so both Liouvillians are exactly zero (no terms
    # of rounding size) and both have the frame f = 0
    for seed in range(1, 6):
        ham = random_harmonic(np.random.default_rng(seed), 1, 2, strength=0.3)
        for model in (ham, EffectiveGenerator(ham)):
            assert model.liouvillian.terms == ()
            assert np.array_equal(_frame(model.liouvillian), [0.0])


def test_frame_of_no_terms_is_zero():
    for d in (1, 3):
        assert np.array_equal(_frame(FourierOperator(d * d)), np.zeros(d))


def test_turned_is_the_rotation_minus_identity_of_the_trailing_pairs():
    # with no pairs nothing turns (a d = 1 model's frame); with one, the last two columns
    assert np.array_equal(_turned(np.ones((3, 1)), np.zeros((3, 0))), np.zeros((3, 1)))
    rng = np.random.default_rng(16)
    x, theta = rng.standard_normal((4, 3)), rng.uniform(-np.pi, np.pi, (4, 1))
    c, s = np.cos(theta[:, 0]), np.sin(theta[:, 0])
    rot = np.zeros((4, 3, 3))
    rot[:, 0, 0], rot[:, 1, 1], rot[:, 1, 2], rot[:, 2, 1], rot[:, 2, 2] = 1.0, c, -s, s, c
    assert_allclose(_turned(x, theta), np.einsum("tij,tj->ti", rot - np.eye(3), x),
                    rtol=0, atol=1e-15)


def framed_cases():
    cases = [pytest.param(load_scenario(CONFIGS / f"{name}.json"), id=name) for name in SHIPPED]
    raman = json.loads((CONFIGS / "raman.json").read_text(encoding="utf-8"))
    cases.append(pytest.param(scenario_from_dict(dict(raman, t0=-37.3)), id="raman_t0_-37.3"))
    far = dict(raman, t0=1e5, t_max=1e5 + raman["t_max"])
    cases.append(pytest.param(scenario_from_dict(far), id="raman_t0_1e5"))
    long_grid = {"kind": "ac_stark", "b": 0.3, "t_max": 2000, "dt": 0.01}
    cases.append(pytest.param(scenario_from_dict(long_grid), id="ac_stark_200000_steps"))
    # a 5-level ladder, drive k on the transition k -> k + 1: four unknowns in each frame
    ladder = [[[0.05 * (k + 1) if (i, j) == (k + 1, k) else 0 for j in range(5)] for i in range(5)]
              for k in range(4)]
    cases.append(pytest.param(scenario_from_dict({
        "kind": "custom_harmonic", "h0": np.diag(np.linspace(0.0, 0.1, 5)).tolist(),
        "terms": [{"h": h, "omega": 1.0 + 0.05 * k} for k, h in enumerate(ladder)],
        "initial": np.diag([1.0, 0, 0, 0, 0]).tolist(), "t_max": 100, "dt": 0.01}), id="ladder"))
    # a time-independent 3-level model, the frame f = 0 of both its generators
    rng = np.random.default_rng(15)
    ham = HarmonicHamiltonian(random_hermitian(rng, 3, 0.3))
    static = types.SimpleNamespace(hamiltonian=ham, generator=EffectiveGenerator(ham),
                                   initial=random_density(rng, 3), grid=TimeGrid(0.2, 30.0, 0.01))
    return cases + [pytest.param(static, id="static_3_level")]


def frame_exponential(liouvillian, rho0, grid, samples):
    """The lab-frame states at grid indices ``samples`` from expm of the vec-basis frame
    generator G = L(t0) + i(I (x) F - F^T (x) I): e^(-iF tau) unvec(e^(tau G) vec rho0) e^(iF tau),
    tau = t - t0."""
    f = _frame(liouvillian)
    eye, frame = np.eye(len(f)), np.diag(f)
    g = liouvillian.evaluate(np.array([grid.t0]))[0]
    g = g + 1j * (np.kron(eye, frame) - np.kron(frame, eye))
    states = []
    for tau in grid.dt * np.asarray(samples):
        phase = np.exp(-1j * f * tau)
        states.append(phase[:, None] * unvectorize(expm(tau * g) @ vectorize(rho0)) * phase.conj())
    return np.array(states)


@pytest.mark.parametrize("cfg", framed_cases())
def test_framed_trajectory_is_the_lab_frame_one(cfg):
    # the framed step is e^(dt K) to rounding, so a framed trajectory is the lab frame's exact
    # one: at 201 samples it is the frame generator's exponential turned back, within 1e-13,
    # and within 1e-12 on the 200 000-step grid
    bound = 1e-12 if cfg.grid.n_steps > 100_000 else 1e-13
    samples = np.linspace(0, cfg.grid.n_steps, 201).round().astype(int)
    for liouvillian in (cfg.hamiltonian.liouvillian, cfg.generator.liouvillian):
        assert _frame(liouvillian) is not None
        got = _propagate_density(liouvillian, cfg.initial, cfg.grid).states[samples]
        want = frame_exponential(liouvillian, cfg.initial, cfg.grid, samples)
        assert np.abs(got - want).max() <= bound


def test_lab_frame_rk4_converges_to_the_framed_trajectory_at_fourth_order():
    # the exact raman.json model stepped per chunk in the lab frame, at dt = 0.04, 0.02 and
    # 0.01: each halving cuts its gap to the framed (exact) trajectory by about 2^4
    raman = json.loads((CONFIGS / "raman.json").read_text(encoding="utf-8"))
    gaps = []
    for dt in (0.04, 0.02, 0.01):
        cfg = scenario_from_dict(dict(raman, t_max=100, dt=dt))
        liouvillian = cfg.hamiltonian.liouvillian
        framed = _propagate_density(liouvillian, cfg.initial, cfg.grid).coords
        gaps.append(np.abs(lab_frame(liouvillian, cfg.initial, cfg.grid) - framed).max())
    assert 14 <= gaps[0] / gaps[1] <= 18 and 14 <= gaps[1] / gaps[2] <= 18


def diagnostic_states(d, kind):
    """Five d-level states of one kind: pure, mixed, maximally mixed (degenerate
    spectrum) or diagonal."""
    rng = np.random.default_rng(d)
    if kind == "pure":
        kets = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        return np.einsum("ti,tj->tij", kets, kets.conj())
    if kind == "mixed":
        return np.stack([random_density(rng, d) for _ in range(5)])
    if kind == "maximally mixed":
        return np.repeat(np.eye(d, dtype=complex)[None] / d, 5, axis=0)
    weights = rng.random((5, d))
    return np.stack([np.diag(w / w.sum()).astype(complex) for w in weights])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["pure", "mixed", "maximally mixed", "diagonal"])
def test_diagnostics_match_their_matrix_definitions(d, kind):
    states = diagnostic_states(d, kind)
    _, from_vec = hermitian_coordinates(d)
    coords = (states.transpose(0, 2, 1).reshape(len(states), d * d) @ from_vec.T).real
    traj = Trajectory(np.arange(len(states), dtype=float), coords)
    want_purity = np.einsum("tij,tji->t", states, states).real
    assert np.abs(traj.purity - want_purity).max() <= 1e-15
    assert np.abs(traj.min_eigenvalues - np.linalg.eigvalsh(states)[:, 0]).max() <= 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_diagnostics_and_record_build_complex_states_only_for_eigenvalues(monkeypatch, d):
    # the d = 3 Bloch columns are read off the coordinates: only eigvalsh needs states
    if d == 2:
        traj = propagate_exact(ac_stark(), PLUS, TimeGrid(0.0, 5.0, 0.01))
    else:
        rng = np.random.default_rng(3)
        traj = propagate_exact(random_harmonic(rng, d, 2, strength=0.3),
                               random_density(rng, d), TimeGrid(0.0, 5.0, 0.01))
    built, states = [], Trajectory.states.fget

    def counted(self):
        built.append(self)
        return states(self)

    monkeypatch.setattr(Trajectory, "states", property(counted))
    assert traj.trace_drift.shape == traj.purity.shape == traj.min_eigenvalues.shape == (501,)
    assert build_record(traj).data.shape == (501, {2: 7, 3: 20}[d])
    assert len(built) == (d == 3)
