import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from avgdyn.averaging import generator_series
from avgdyn.dynamics import TimeGrid, propagate_effective
from avgdyn.harmonic import (
    EffectiveGenerator,
    HarmonicHamiltonian,
    default_filter,
)
from avgdyn.linalg import gellmann_basis, superop, unvectorize, vectorize
from avgdyn.raman import RamanParams, bloch_matrix
from util import random_complex, random_density, random_harmonic, random_hermitian


def ketbra(i, j, d=3):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def ac_stark(omega_rabi=0.3, delta=1.0):
    h = np.zeros((2, 2), dtype=complex)
    h[1, 0] = omega_rabi / 2
    return HarmonicHamiltonian(np.zeros((2, 2)), ((h, delta),))


def raman(o1, o2, w1, w2):
    return HarmonicHamiltonian(
        np.zeros((3, 3)),
        ((o1 / 2 * ketbra(2, 0), w1), (o2 / 2 * ketbra(2, 1), w2)),
    )


class TestConstruction:
    def test_non_hermitian_h0_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HarmonicHamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            HarmonicHamiltonian(np.zeros((2, 2)), ((np.eye(2), 0.0),))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            HarmonicHamiltonian(np.zeros((2, 2)), ((np.eye(3), 1.0),))

    @pytest.mark.parametrize("h0, drives, message", [
        (np.zeros((2, 3)), (), r"h0 must be a square matrix, got shape \(2, 3\)"),
        (np.diag([np.nan, 0.0]), (), "h0 contains non-finite entries"),
        (np.zeros((2, 2)), ((np.eye(2), 1.0), (np.diag([np.inf, 0.0]), 2.0)),
         "drive operator 1 contains non-finite entries"),
    ], ids=["non_square_h0", "nan_h0", "inf_drive"])
    def test_invalid_operators_rejected(self, h0, drives, message):
        with pytest.raises(ValueError, match=message):
            HarmonicHamiltonian(h0, drives)

    def test_as_fourier_roundtrip(self):
        rng = np.random.default_rng(0)
        ham = random_harmonic(rng, 2, 2, strength=0.3)
        hf = ham.as_fourier()
        for t in (0.0, 0.8, 3.5):
            direct = ham.h0 + sum(
                h * np.exp(-1j * w * t) + h.conj().T * np.exp(1j * w * t)
                for h, w in ham.terms
            )
            assert_allclose(hf.evaluate(t), direct, atol=1e-15)


class TestEffectiveHamiltonian:
    def test_ac_stark_closed_form(self):
        gen = EffectiveGenerator(ac_stark(0.3, 1.0))
        want = -(0.3**2 / 4.0) * np.diag([-1.0, 1.0])
        got = gen.effective_hamiltonian(0.0)
        assert np.abs(got - want).max() < 1e-14
        # time independent: single drive frequency
        assert_allclose(gen.effective_hamiltonian(17.3), got, atol=0)

    def test_raman_three_block_form(self):
        o1, o2, w1, w2 = 0.1, 0.14, 1.0, 1.1
        gen = EffectiveGenerator(raman(o1, o2, w1, w2))
        half_sum = 0.5 * (1 / w1 + 1 / w2)
        delta = w1 - w2
        for t in (0.0, 2.7):
            want = (
                -(o1**2 / (4 * w1)) * (ketbra(2, 2) - ketbra(0, 0))
                - (o2**2 / (4 * w2)) * (ketbra(2, 2) - ketbra(1, 1))
                + (o1 * o2 / 4) * half_sum * (
                    ketbra(0, 1) * np.exp(1j * delta * t)
                    + ketbra(1, 0) * np.exp(-1j * delta * t)
                )
            )
            assert_allclose(gen.effective_hamiltonian(t), want, atol=1e-15)

    def test_no_drive_returns_h0(self):
        rng = np.random.default_rng(1)
        h0 = random_hermitian(rng, 3, 0.5)
        gen = EffectiveGenerator(HarmonicHamiltonian(h0))
        assert_allclose(gen.effective_hamiltonian(1.1), h0, atol=0)

    def test_hermitian_at_random_times(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            ham = random_harmonic(rng, 3, 2, strength=0.3)
            gen = EffectiveGenerator(ham)
            for t in rng.uniform(0, 50, 20):
                h = gen.effective_hamiltonian(t)
                assert np.abs(h - h.conj().T).max() < 1e-12


class TestDecoherenceSuperop:
    def test_single_frequency_exactly_zero(self):
        rng = np.random.default_rng(3)
        ham = random_harmonic(rng, 4, 1, strength=0.2)
        gen = EffectiveGenerator(ham)
        assert np.linalg.norm(gen.decoherence_superop(0.9)) == 0.0

    def test_equal_frequencies_distinct_indices_zero(self):
        rng = np.random.default_rng(4)
        w = 1.3
        # equal, and unequal but within FREQUENCY_MERGE_TOL
        for w2 in (w, w + 5e-13):
            ham = HarmonicHamiltonian(
                np.zeros((3, 3)),
                ((random_complex(rng, 3, 0.1), w), (random_complex(rng, 3, 0.1), w2)),
            )
            gen = EffectiveGenerator(ham)
            assert np.linalg.norm(gen.decoherence_superop(2.2)) == 0.0

    def test_raman_bracket_structure(self):
        o1, o2, w1, w2 = 0.1, 0.12, 1.0, 1.08
        gen = EffectiveGenerator(raman(o1, o2, w1, w2))
        half_diff = 0.5 * (1 / w1 - 1 / w2)
        coeff = o1 * o2 / 4 * half_diff
        delta = w1 - w2
        rng = np.random.default_rng(5)
        rho = random_density(rng, 3)
        for t in (0.0, 1.9, 6.0):
            phase = np.exp(-1j * delta * t)
            # direct construction of the expected bracket on rho
            a_part = (ketbra(1, 0) @ rho + rho @ ketbra(1, 0)
                      - 2 * rho[0, 1] * ketbra(2, 2)
                      - 2 * rho[2, 2] * ketbra(1, 0)) * phase
            b_part = (ketbra(0, 1) @ rho + rho @ ketbra(0, 1)
                      - 2 * rho[1, 0] * ketbra(2, 2)
                      - 2 * rho[2, 2] * ketbra(0, 1)) * np.conj(phase)
            want = coeff * (a_part - b_part)
            got = unvectorize(gen.decoherence_superop(t) @ vectorize(rho))
            assert_allclose(got, want, atol=1e-15)

    def test_periodicity_in_beat_phase(self):
        gen = EffectiveGenerator(raman(0.1, 0.1, 1.0, 1.25))
        period = 2 * np.pi / 0.25
        assert_allclose(
            gen.decoherence_superop(0.7),
            gen.decoherence_superop(0.7 + period),
            atol=1e-13,
        )

    def test_trace_annihilation_and_hermiticity(self):
        rng = np.random.default_rng(6)
        ham = random_harmonic(rng, 3, 2, strength=0.3)
        gen = EffectiveGenerator(ham)
        rho = random_density(rng, 3)
        for t in (0.2, 3.3):
            out = unvectorize(gen.decoherence_superop(t) @ vectorize(rho))
            assert abs(np.trace(out)) < 1e-11
            img = out / 1j
            assert np.abs(img - img.conj().T).max() < 1e-11


class TestLiouvillianMatrix:
    def test_stack_matches_per_time_superoperators(self):
        rng = np.random.default_rng(11)
        gen = EffectiveGenerator(random_harmonic(rng, 3, 3, strength=0.3))
        ts = np.linspace(0.0, 60.0, 13)
        one = np.eye(3)
        for t, got in zip(ts, gen.liouvillian_matrix(ts)):
            h = gen.effective_hamiltonian(t)
            want = -1j * (superop(h, one) - superop(one, h) + gen.decoherence_superop(t))
            assert np.abs(got - want).max() <= 1e-15


class TestMasterRhs:
    def test_stationary_state_of_static_hamiltonian(self):
        h0 = np.diag([0.3, 0.1, -0.2])
        gen = EffectiveGenerator(HarmonicHamiltonian(h0))
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)  # commutes with h0
        assert np.linalg.norm(gen.master_rhs(rho, 1.4)) == 0.0

    def test_traceless_hermitian_output(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ham = random_harmonic(rng, 3, 2, strength=0.3)
            gen = EffectiveGenerator(ham)
            rho = random_density(rng, 3)
            out = gen.master_rhs(rho, float(rng.uniform(0, 10)))
            assert abs(np.trace(out)) < 1e-11
            assert np.abs(out - out.conj().T).max() < 1e-11

    def test_dimension_mismatch(self):
        gen = EffectiveGenerator(ac_stark())
        with pytest.raises(ValueError, match="dim"):
            gen.master_rhs(np.eye(3) / 3, 0.0)

    def test_ac_stark_coherence_rotation_against_expm(self):
        gen = EffectiveGenerator(ac_stark(0.3, 1.0))
        rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        grid = TimeGrid(0.0, 40.0, 0.02)
        traj = propagate_effective(gen, rho0, grid)
        h_eff = gen.effective_hamiltonian(0.0)
        for idx in (500, 1400, 2000):
            t = traj.times[idx]
            u = expm(-1j * h_eff * t)
            want = u @ rho0 @ u.conj().T
            assert_allclose(traj.states[idx], want, atol=1e-10)
        # coherence rotates at the effective gap 0.045
        phase = np.angle(traj.states[:, 0, 1])
        assert_allclose(phase[1000], -0.045 * traj.times[1000], atol=1e-6)

    def test_matches_generator_series_through_second_order(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            ham = random_harmonic(rng, 3, 2, strength=0.25)
            gen = EffectiveGenerator(ham)
            series = generator_series(
                ham.as_fourier(), default_filter(ham), 0.0, 2
            )
            for t in rng.uniform(0, 15, 4):
                lhs = -1j * (series.maps[1].evaluate(t) + series.maps[2].evaluate(t))
                assert np.linalg.norm(lhs - gen.liouvillian_matrix(t)) < 1e-10


class TestRamanJacobianStructure:
    def test_bloch_blocks_decouple_and_match_coefficient_matrix(self):
        params = RamanParams(0.1, 0.12, 1.0, 1.07)
        gen = EffectiveGenerator(raman(0.1, 0.12, 1.0, 1.07))
        basis = gellmann_basis()
        for t in (0.0, 3.7, 9.2):
            jac = np.empty((8, 8))
            for col, gb in enumerate(basis):
                out = gen.master_rhs(gb, t)
                for row, ga in enumerate(basis):
                    jac[row, col] = np.trace(out @ ga).real / 2
            theta = (params.omega1 - params.omega2) * t
            assert_allclose(jac[:4, :4], bloch_matrix(params, theta), atol=1e-14)
            assert np.abs(jac[:4, 4:]).max() < 1e-14
            assert np.abs(jac[4:, :4]).max() < 1e-14

    def test_identity_component_is_invariant(self):
        gen = EffectiveGenerator(raman(0.1, 0.12, 1.0, 1.07))
        assert np.linalg.norm(gen.master_rhs(np.eye(3, dtype=complex) / 3, 2.4)) < 1e-16


class TestPurityConservation:
    def test_single_frequency_purity_constant(self):
        rng = np.random.default_rng(12)
        ham = random_harmonic(rng, 3, 1, strength=0.1)
        gen = EffectiveGenerator(ham)
        rho0 = random_density(rng, 3)
        w = ham.terms[0][1]
        traj = propagate_effective(gen, rho0, TimeGrid(0.0, 100.0, 0.05 / w))
        purity = traj.purity
        assert np.abs(purity - purity[0]).max() < 1e-9


@settings(database=None, derandomize=True, max_examples=100, deadline=None)
@given(d=st.integers(2, 4), n_drives=st.integers(1, 3), one_frequency=st.booleans(),
       seed=st.integers(0, 2**32 - 1), strength=st.floats(0.01, 3.0),
       t=st.floats(-100.0, 100.0))
def test_liouvillians_preserve_trace_and_hermiticity(d, n_drives, one_frequency, seed,
                                                     strength, t):
    # both Liouvillians annihilate the trace and map Hermitian rho to Hermitian
    # output; the decoherence is exactly zero when all drives share one frequency
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, n_drives)
    if one_frequency:
        w[:] = w[0]
    ham = HarmonicHamiltonian(random_hermitian(rng, d, strength),
                              tuple((random_complex(rng, d, strength), wk) for wk in w))
    gen = EffectiveGenerator(ham)
    trace = vectorize(np.eye(d))
    rho = random_hermitian(rng, d)
    for liouvillian in (ham.liouvillian.evaluate(t), gen.liouvillian_matrix(t)):
        scale = np.abs(liouvillian).max()
        assert np.abs(trace @ liouvillian).max() <= 1e-14 * scale
        out = unvectorize(liouvillian @ vectorize(rho))
        assert np.abs(out - out.conj().T).max() <= 1e-13 * scale
    decoherence = gen.decoherence_superop(t)
    if one_frequency or n_drives == 1:
        assert not decoherence.any()
    else:
        assert decoherence.any()
