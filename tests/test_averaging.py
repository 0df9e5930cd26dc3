import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from avgdyn.averaging import (
    SuperoperatorSeries,
    dyson_terms,
    forward_series,
    generator_series,
    inverse_series,
    validity_ratio,
)
from avgdyn.fourier import FourierOperator, commutator, lowpass_average
from avgdyn.harmonic import HarmonicHamiltonian, default_filter
from avgdyn.linalg import superop
from util import (
    adjoint,
    random_complex,
    random_density,
    random_harmonic,
    random_hermitian,
    series_reference,
)

T0 = 0.3


def series_norm_at(fop, t):
    return np.linalg.norm(fop.evaluate(t))


class TestDysonTerms:
    def test_constant_hamiltonian_first_term(self):
        rng = np.random.default_rng(0)
        h0 = random_hermitian(rng, 2, 0.4)
        u1 = dyson_terms(FourierOperator.constant(h0), T0, 1)[0]
        for t in (0.0, 1.3, 5.0):
            assert_allclose(u1.evaluate(t), (t - T0) * h0 / 1j, atol=1e-14)

    def test_single_harmonic_matches_hand_integral(self):
        rng = np.random.default_rng(1)
        h = random_complex(rng, 2, 0.2)
        w = 1.7
        ham = HarmonicHamiltonian(np.zeros((2, 2)), ((h, w),))
        u1 = dyson_terms(ham.as_fourier(), T0, 1)[0]

        def v1(t):
            return (h * np.exp(-1j * w * t) - h.conj().T * np.exp(1j * w * t)) / w

        for t in (0.0, 0.9, 4.4):
            assert_allclose(u1.evaluate(t), v1(t) - v1(T0), atol=1e-14)

    def test_zero_hamiltonian(self):
        us = dyson_terms(FourierOperator(3), T0, 3)
        assert all(u.max_abs() == 0.0 for u in us)

    def test_orders_against_quadrature(self):
        rng = np.random.default_rng(2)
        ham = random_harmonic(rng, 2, 2, strength=0.3)
        hf = ham.as_fourier()
        us = dyson_terms(hf, T0, 3)
        t1 = 2.1
        ts = np.linspace(T0, t1, 8001)
        h_vals = np.stack([hf.evaluate(t) for t in ts])
        prev = np.broadcast_to(np.eye(2), h_vals.shape)
        for n, u_n in enumerate(us):
            integrand = np.einsum("tij,tjk->tik", h_vals, prev)
            # cumulative integral gives U_n on the whole grid for the next order
            cum = np.empty_like(integrand)
            cum[0] = 0.0
            for k in range(1, len(ts)):
                cum[k] = cum[k - 1] + 0.5 * (ts[k] - ts[k - 1]) * (
                    integrand[k] + integrand[k - 1]
                )
            quad = simpson(integrand, x=ts, axis=0)
            assert_allclose(u_n.evaluate(t1), -1j * quad, atol=1e-8,
                            err_msg=f"order {n + 1}")
            prev = -1j * cum

    def test_order_by_order_unitarity(self):
        rng = np.random.default_rng(3)
        ham = random_harmonic(rng, 3, 2, strength=0.2)
        us = [FourierOperator.identity(3)] + dyson_terms(ham.as_fourier(), T0, 3)
        uds = [adjoint(u) for u in us]
        for k in range(1, 4):
            acc = FourierOperator(3)
            for j in range(k + 1):
                acc = acc + (uds[j] @ us[k - j])
            for t in (0.4, 1.8, 6.3):
                assert series_norm_at(acc, t) < 1e-12

    @pytest.mark.parametrize("n_drives", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_terms_match_public_recursion_bit_for_bit(self, d, n_drives):
        # however a step is computed, its bytes are those of the recursion
        # spelled out in public operations, for H and for its lift [H, .]
        hf = random_harmonic(np.random.default_rng(10 * d + n_drives), d, n_drives).as_fourier()
        for h in (hf, commutator(hf)):
            prev = FourierOperator.identity(h.dim)
            for u in dyson_terms(h, T0, 3):
                g = (h @ prev).antiderivative()
                prev = (g - FourierOperator.constant(g.evaluate(T0))) * (-1j)
                for got, want in zip((u._coeffs, u._nus, u._ps),
                                     (prev._coeffs, prev._nus, prev._ps)):
                    assert (got.dtype, got.shape, got.tobytes()) == (
                        want.dtype, want.shape, want.tobytes())

    def test_polynomial_hamiltonian_rejected(self):
        f = FourierOperator(2, [(np.eye(2), 0.0, 1)])
        with pytest.raises(ValueError, match="trigonometric"):
            dyson_terms(f, 0.0, 1)

    @pytest.mark.parametrize("order", [1.0, True, "1"])
    def test_non_integer_order_rejected(self, order):
        with pytest.raises(ValueError, match=f"order must be an integer, got {order!r}"):
            dyson_terms(FourierOperator(2), 0.0, order)

    def test_unsupported_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            dyson_terms(FourierOperator(2), 0.0, 4)
        with pytest.raises(ValueError, match="order"):
            dyson_terms(FourierOperator(2), 0.0, -1)


class TestForwardSeries:
    def test_order_zero_is_identity(self):
        rng = np.random.default_rng(4)
        ham = random_harmonic(rng, 2, 1)
        fwd = forward_series(ham.as_fourier(), default_filter(ham), T0, 0)
        assert (fwd.maps[0] - FourierOperator.identity(4)).max_abs() == 0.0

    def test_first_order_closed_form(self):
        rng = np.random.default_rng(5)
        ham = random_harmonic(rng, 2, 2, strength=0.3)
        cutoff = default_filter(ham)
        fwd = forward_series(ham.as_fourier(), cutoff, T0, 1)
        u1 = dyson_terms(ham.as_fourier(), T0, 1)[0]
        u1_avg = lowpass_average(u1, cutoff)
        rho = random_density(np.random.default_rng(6), 2)
        for t in (0.0, 0.8, 3.1):
            want = u1_avg.evaluate(t) @ rho + rho @ u1_avg.evaluate(t).conj().T
            assert_allclose(fwd.apply(1, rho, t), want, atol=1e-13)

    @pytest.mark.parametrize("k", [2, 3])
    def test_order_against_term_expansion(self, k):
        rng = np.random.default_rng(7)
        ham = random_harmonic(rng, 2, 2, strength=0.3)
        cutoff = default_filter(ham)
        hf = ham.as_fourier()
        fwd = forward_series(hf, cutoff, T0, k)
        us = [FourierOperator.identity(2)] + dyson_terms(hf, T0, k)
        uds = [adjoint(u) for u in us]
        rho = random_density(rng, 2)
        for t in (0.6, 2.4):
            direct = np.zeros((2, 2), dtype=complex)
            for j in range(k + 1):
                for a, na, pa in us[k - j].terms:
                    for b, nb, pb in uds[j].terms:
                        nu = na + nb
                        if abs(nu) <= 1e-12:
                            nu = 0.0
                        if abs(nu) < cutoff:
                            direct += (a @ rho @ b) * (t ** (pa + pb) * np.exp(1j * nu * t))
            assert_allclose(fwd.apply(k, rho, t), direct, atol=1e-13)

    def test_trace_annihilated_above_order_zero(self):
        rng = np.random.default_rng(8)
        ham = random_harmonic(rng, 3, 2, strength=0.2)
        fwd = forward_series(ham.as_fourier(), default_filter(ham), T0, 3)
        rho = random_density(rng, 3)
        for k in (1, 2, 3):
            for t in (0.5, 2.7):
                assert abs(np.trace(fwd.apply(k, rho, t))) < 1e-12


class TestInverseSeries:
    def test_low_orders_match_recursion_closed_forms(self):
        rng = np.random.default_rng(9)
        ham = random_harmonic(rng, 2, 2, strength=0.3)
        fwd = forward_series(ham.as_fourier(), default_filter(ham), T0, 2)
        inv = inverse_series(fwd)
        e1, e2 = fwd.maps[1], fwd.maps[2]
        for t in (0.0, 1.1, 4.8):
            assert_allclose(inv.maps[1].evaluate(t), -e1.evaluate(t), atol=1e-14)
            want = (-e2 + e1 @ e1).evaluate(t)
            assert_allclose(inv.maps[2].evaluate(t), want, atol=1e-13)

    def test_composition_is_identity_series(self):
        rng = np.random.default_rng(10)
        ham = random_harmonic(rng, 3, 2, strength=0.25)
        fwd = forward_series(ham.as_fourier(), default_filter(ham), T0, 3)
        inv = inverse_series(fwd)
        for k in range(1, 4):
            acc = FourierOperator(9)
            for j in range(k + 1):
                acc = acc + (inv.maps[j] @ fwd.maps[k - j])
            for t in (0.3, 1.9, 7.5):
                assert series_norm_at(acc, t) < 1e-10

    def test_requires_identity_order_zero(self):
        bad = SuperoperatorSeries((FourierOperator.constant(2 * np.eye(4)),))
        with pytest.raises(ValueError, match="identity"):
            inverse_series(bad)


@pytest.mark.parametrize("n_drives", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_series_match_recursion_with_order_zero_products(d, n_drives):
    # the identity and the empty map are written out, not multiplied: every
    # map equals the full recursion's in value (bytes may differ only in the
    # sign of an exact zero), with the same frequencies and degrees
    for seed in range(3):
        ham = random_harmonic(np.random.default_rng([d, n_drives, seed]), d, n_drives,
                              strength=0.3)
        hf, cutoff = ham.as_fourier(), default_filter(ham)
        inv_ref, gen_ref = series_reference(hf, cutoff, T0, 3)
        inv = inverse_series(forward_series(hf, cutoff, T0, 3))
        gen = generator_series(hf, cutoff, T0, 3)
        for got, want in zip(inv.maps + gen.maps, inv_ref + gen_ref):
            assert got.dim == want.dim
            assert got._coeffs.dtype == want._coeffs.dtype
            assert np.array_equal(got._coeffs, want._coeffs)
            for a, b in ((got._nus, want._nus), (got._ps, want._ps)):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def l2_direct(ham, cutoff, t0, rho, t):
    """Direct evaluation of the eight second-order generator terms, with the
    sandwich averages expanded term by term on plain matrices."""
    hf = ham.as_fourier()
    u1 = dyson_terms(hf, t0, 1)[0]
    u1d = adjoint(u1)
    avg = lambda f: lowpass_average(f, cutoff)

    def avg_sandwich(left, right):
        out = np.zeros((ham.dim, ham.dim), dtype=complex)
        for a, na, pa in left.terms:
            for b, nb, pb in right.terms:
                nu = na + nb
                if abs(nu) <= 1e-12:
                    nu = 0.0
                if abs(nu) < cutoff:
                    out += (a @ rho @ b) * (t ** (pa + pb) * np.exp(1j * nu * t))
        return out

    h_avg = avg(hf).evaluate(t)
    u1_avg = avg(u1).evaluate(t)
    u1d_avg = avg(u1d).evaluate(t)
    return (avg(hf @ u1).evaluate(t) @ rho
            - h_avg @ u1_avg @ rho
            + avg_sandwich(hf, u1d)
            - h_avg @ rho @ u1d_avg
            - rho @ avg(u1d @ hf).evaluate(t)
            + rho @ u1d_avg @ h_avg
            - avg_sandwich(u1, hf)
            + u1_avg @ rho @ h_avg)


class TestGeneratorSeries:
    def test_first_order_is_commutator_with_average(self):
        rng = np.random.default_rng(11)
        ham = random_harmonic(rng, 2, 2, strength=0.3)
        cutoff = default_filter(ham)
        gen = generator_series(ham.as_fourier(), cutoff, T0, 1)
        rho = random_density(rng, 2)
        for t in (0.0, 1.6):
            want = ham.h0 @ rho - rho @ ham.h0
            assert_allclose(gen.apply(1, rho, t), want, atol=1e-14)

    def test_constant_hamiltonian_higher_orders_vanish(self):
        rng = np.random.default_rng(12)
        h0 = random_hermitian(rng, 2, 0.5)
        gen = generator_series(FourierOperator.constant(h0), 1.0, T0, 3)
        rho = random_density(rng, 2)
        assert_allclose(gen.apply(1, rho, 0.7), h0 @ rho - rho @ h0, atol=1e-14)
        for k in (2, 3):
            assert gen.maps[k].max_abs() < 1e-13

    def test_transparent_filter_collapses_higher_orders(self):
        rng = np.random.default_rng(13)
        ham = random_harmonic(rng, 2, 2, strength=0.4)
        gen = generator_series(ham.as_fourier(), np.inf, T0, 3)
        for k in (2, 3):
            for t in (0.2, 1.4, 5.0):
                assert series_norm_at(gen.maps[k], t) < 1e-12

    def test_second_order_against_term_list(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            ham = random_harmonic(rng, 2, 2, strength=0.3)
            cutoff = default_filter(ham)
            gen = generator_series(ham.as_fourier(), cutoff, T0, 2)
            rho = random_density(rng, 2)
            for t in (0.5, 2.9, 11.0):
                want = l2_direct(ham, cutoff, T0, rho, t)
                assert_allclose(gen.apply(2, rho, t), want, atol=1e-10)

    def test_single_frequency_second_order_is_effective_shift_commutator(self):
        rng = np.random.default_rng(22)
        h = random_complex(rng, 2, 0.2)
        w = 1.4
        ham = HarmonicHamiltonian(random_hermitian(rng, 2, 0.1), ((h, w),))
        gen = generator_series(ham.as_fourier(), default_filter(ham), T0, 2)
        shift = (h.conj().T @ h - h @ h.conj().T) / w
        for t in (0.0, 1.2, 5.5):
            want = superop(shift, np.eye(2)) - superop(np.eye(2), shift)
            assert_allclose(gen.maps[2].evaluate(t), want, atol=1e-14)

    def test_harmonic_second_order_independent_of_t0(self):
        rng = np.random.default_rng(15)
        ham = random_harmonic(rng, 2, 2, strength=0.3)
        cutoff = default_filter(ham)
        g_a = generator_series(ham.as_fourier(), cutoff, 0.0, 2)
        g_b = generator_series(ham.as_fourier(), cutoff, 1.7, 2)
        for t in (0.4, 3.8):
            assert_allclose(g_a.maps[2].evaluate(t), g_b.maps[2].evaluate(t), atol=1e-13)

    def test_trace_and_hermiticity_structure(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            d = int(rng.integers(2, 4))
            ham = random_harmonic(rng, d, 2, strength=0.25)
            gen = generator_series(ham.as_fourier(), default_filter(ham), T0, 3)
            rho = random_density(rng, d)
            t = float(rng.uniform(0, 5))
            for k in (1, 2, 3):
                out = gen.apply(k, rho, t)
                assert abs(np.trace(out)) < 1e-11
                img = out / 1j
                assert np.abs(img - img.conj().T).max() < 1e-11
                # secular-free: every t**p (p > 0) coefficient is at the rounding floor
                secular = max((np.abs(c).max() for c, _, p in gen.maps[k].terms if p > 0),
                              default=0.0)
                assert secular <= 1e-13 * gen.maps[k].max_abs()


class TestValidityRatio:
    def test_ac_stark_value(self):
        h = np.zeros((2, 2), dtype=complex)
        h[1, 0] = 0.15
        ham = HarmonicHamiltonian(np.zeros((2, 2)), ((h, 1.0),))
        assert_allclose(validity_ratio(ham), 0.15, rtol=1e-10)

    def test_no_drive_returns_zero(self):
        rng = np.random.default_rng(21)
        ham = HarmonicHamiltonian(random_hermitian(rng, 2, 0.7))
        assert validity_ratio(ham) == 0.0

    def test_raman_value(self):
        h1 = np.zeros((3, 3), dtype=complex)
        h1[2, 0] = 0.05
        h2 = np.zeros((3, 3), dtype=complex)
        h2[2, 1] = 0.05
        ham = HarmonicHamiltonian(np.zeros((3, 3)), ((h1, 1.0), (h2, 1.02)))
        # spectral radius sqrt(0.05^2 + 0.05^2) over min frequency 1.0
        assert_allclose(validity_ratio(ham), np.hypot(0.05, 0.05), rtol=1e-6)

    def test_matches_per_sample_loop(self):
        rng = np.random.default_rng(22)
        ham = random_harmonic(rng, 3, 2, strength=0.3)
        w_min = min(w for _, w in ham.terms)
        hf = ham.as_fourier()
        eta = 0.0
        for t in np.linspace(0.0, 2 * np.pi / w_min, 512, endpoint=False):
            h = hf.evaluate(t)
            h = (h + h.conj().T) / 2.0
            h = h - np.trace(h) / 3 * np.eye(3)
            eta = max(eta, float(np.abs(np.linalg.eigvalsh(h)).max()))
        assert abs(validity_ratio(ham) - eta / w_min) <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_energy_offset_does_not_move_the_ratio(self, d):
        # H + c*1 moves no trajectory, so it must not move the ratio either
        rng = np.random.default_rng(23 + d)
        for n_freq in (1, 2, 3):
            ham = random_harmonic(rng, d, n_freq, strength=0.3)
            ratio = validity_ratio(ham)
            assert ratio > 0.0
            for c in (-7.5, 0.4, 40.0):
                shifted = HarmonicHamiltonian(ham.h0 + c * np.eye(d), ham.terms)
                assert abs(validity_ratio(shifted) - ratio) <= 1e-12 * ratio
