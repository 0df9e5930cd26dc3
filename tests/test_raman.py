import numpy as np
import pytest
from numpy.testing import assert_allclose

from avgdyn.dynamics import TimeGrid
from avgdyn.raman import (
    OverdampedError,
    RamanParams,
    RotatingSolution,
    bloch_matrix,
    integrate_bloch,
    purity_rate,
    raman_coefficients,
)
from avgdyn.signals import dominant_frequency

P_REF = RamanParams(0.1, 0.1, 1.0, 1.2)


class TestCoefficients:
    def test_reference_values(self):
        alpha, beta, gamma, rate = raman_coefficients(P_REF)
        assert_allclose(alpha, 4.1666666666666665e-4, rtol=1e-12)
        assert_allclose(beta, 4.5833333333333334e-3, rtol=1e-12)
        assert_allclose(gamma, 7.216878364870322e-4, rtol=1e-12)
        assert rate == 1.0 - 1.2

    def test_symmetric_drives(self):
        alpha, beta, gamma, rate = raman_coefficients(RamanParams(0.2, 0.2, 1.5, 1.5))
        assert alpha == 0.0 and gamma == 0.0 and rate == 0.0
        assert_allclose(beta, 0.2**2 / (2 * 1.5), rtol=1e-14)

    def test_single_beam_limit(self):
        alpha, beta, gamma, _ = raman_coefficients(RamanParams(0.3, 0.0, 1.1, 2.0))
        assert beta == 0.0 and gamma == 0.0
        assert_allclose(alpha, 0.3**2 / (4 * 1.1), rtol=1e-14)

    def test_invalid_detuning(self):
        with pytest.raises(ValueError, match="positive"):
            RamanParams(0.1, 0.1, 0.0, 1.0)


class TestBlochMatrix:
    def test_zero_state_has_zero_rate(self):
        rate = raman_coefficients(P_REF)[3]
        out = bloch_matrix(P_REF, rate * 1.3) @ np.zeros(4)
        assert np.all(out == 0.0)

    def test_z_column_at_zero_phase(self):
        _, beta, _, rate = raman_coefficients(P_REF)
        out = bloch_matrix(P_REF, rate * 0.0) @ np.array([0.0, 0.0, 1.0, 0.0])
        assert_allclose(out, [0.0, -beta, 0.0, 0.0], atol=1e-18)

    def test_growth_rate_pattern(self):
        # r . (A r) = -2 gamma r_w (r_x sin(theta) + r_y cos(theta))
        rng = np.random.default_rng(0)
        _, _, gamma, rate = raman_coefficients(P_REF)
        for _ in range(20):
            r = rng.standard_normal(4)
            t = float(rng.uniform(0, 30))
            theta = rate * t
            got = float(r @ (bloch_matrix(P_REF, theta) @ r))
            want = -2 * gamma * r[3] * (r[0] * np.sin(theta) + r[1] * np.cos(theta))
            assert_allclose(got, want, atol=1e-15)


class TestRotatingSolution:
    def test_oscillation_frequency_345(self):
        # |Omega| = 0.005, gamma = 0.003 -> omega = 0.004 by 3-4-5
        sol = RotatingSolution(
            omega=np.sqrt(0.005**2 - 0.003**2), big_omega=0.005, gamma=0.003,
            d_omega=0.0, amplitude=1.0, r_w_center=0.0, phase=0.0,
            e_omega=np.array([0.0, 0.0, 1.0]), e_gamma=np.array([0.0, 1.0, 0.0]),
            e_p=np.array([-1.0, 0.0, 0.0]),
        )
        assert_allclose(sol.omega, 0.004, rtol=1e-12)

    def test_fit_frequency_formula(self):
        alpha, beta, gamma, rate = raman_coefficients(P_REF)
        sol = RotatingSolution.fit(P_REF, np.array([0.2, 0.1, -0.3, 0.05]))
        assert_allclose(sol.omega**2,
                        (alpha + rate)**2 + beta**2 - gamma**2, rtol=1e-12)

    def test_gamma_zero_is_circular_precession(self):
        params = RamanParams(0.1, 0.1, 1.3, 1.3)  # equal detunings: gamma = 0
        sol = RotatingSolution.fit(params, np.array([0.2, 0.1, -0.3, 0.05]))
        assert sol.gamma == 0.0 and sol.omega == sol.big_omega
        ts = np.linspace(0, 200, 400)
        rows = sol.sample(ts)
        # radius about the torque axis and r_w are both constant
        d = rows[:, :3]
        axial = d @ sol.e_omega
        radial = np.linalg.norm(d - np.outer(axial, sol.e_omega), axis=1)
        assert np.abs(radial - radial[0]).max() < 1e-14
        assert np.abs(axial - axial[0]).max() < 1e-14
        assert np.abs(rows[:, 3] - rows[0, 3]).max() < 1e-14

    def test_residual_of_rotating_frame_equations(self):
        # central differences of the analytic solution satisfy
        # d(d)/dt = Omega x d - r_w gvec, d(r_w)/dt = -gvec . d
        params = RamanParams(0.1, 0.1, 1.0, 1.02)
        _, _, gamma, _ = raman_coefficients(params)
        sol = RotatingSolution.fit(params, np.array([0.3, 0.2, 0.4, 0.1]))
        torque = sol.big_omega * sol.e_omega
        gvec = gamma * np.array([0.0, 1.0, 0.0])
        h = 1e-4
        for t in (0.0, 37.0, 151.0):
            rm, r0, rp = sol.sample([t - h, t, t + h])
            deriv = (rp - rm) / (2 * h)
            want_d = np.cross(torque, r0[:3]) - r0[3] * gvec
            want_w = -gvec @ r0[:3]
            assert np.abs(deriv[:3] - want_d).max() < 1e-10
            assert abs(deriv[3] - want_w) < 1e-10

    def test_overdamped_rejected(self):
        # strongly split detunings make gamma exceed beta, and the first
        # drive's level shift cancels the beat in the torque z-component:
        # alpha + (w1 - w2) = -5e-5, beta = 0.012, gamma = sqrt(3)*0.008
        params = RamanParams(0.4, 0.01, 0.1, 0.5)
        with pytest.raises(OverdampedError):
            RotatingSolution.fit(params, np.array([0.1, 0.0, 0.0, 0.0]))

    def test_zero_phase_gauge_matches_initial_conditions(self):
        params = RamanParams(0.1, 0.1, 1.0, 1.02)
        _, _, gamma, _ = raman_coefficients(params)
        sol0 = RotatingSolution.fit(params, np.array([0.0, 0.25, 0.0, 0.0]))
        assert abs(sol0.phase) < 1e-12
        assert sol0.r_w_center == 0.0
        first = sol0.sample([0.0])[0]
        assert_allclose(first, [0.0, 0.25, 0.0, 0.0], atol=1e-15)


class TestNumericAgainstAnalytic:
    def test_integration_matches_closed_form(self):
        params = RamanParams(0.1, 0.1, 1.0, 1.02)
        _, _, _, rate = raman_coefficients(params)
        r0 = np.array([0.3, 0.2, 0.4, 0.1])
        sol = RotatingSolution.fit(params, r0)
        period = 2 * np.pi / sol.omega
        grid = TimeGrid(0.0, period, period / 20000)
        ts, rows = integrate_bloch(params, r0, grid)
        cos_t, sin_t = np.cos(rate * ts), np.sin(rate * ts)
        rotated = rows.copy()
        rotated[:, 0] = cos_t * rows[:, 0] - sin_t * rows[:, 1]
        rotated[:, 1] = sin_t * rows[:, 0] + cos_t * rows[:, 1]
        want = sol.sample(ts)
        assert np.abs(rotated - want).max() < 1e-9

    def test_overdamped_regime_still_integrates(self):
        params = RamanParams(0.4, 0.01, 0.1, 0.5)
        grid = TimeGrid(0.0, 10.0, 0.01)
        _, rows = integrate_bloch(params, np.array([0.1, 0.0, 0.0, 0.0]), grid)
        assert np.all(np.isfinite(rows))


class TestPurityRate:
    def test_gamma_zero_conserves_length(self):
        params = RamanParams(0.1, 0.1, 1.3, 1.3)
        sol = RotatingSolution.fit(params, np.array([0.2, 0.1, -0.3, 0.05]))
        for t in np.linspace(0, 300, 40):
            assert purity_rate(sol, t) == 0.0

    def test_matches_central_difference(self):
        params = RamanParams(0.1, 0.1, 1.0, 1.02)
        sol = RotatingSolution.fit(params, np.array([0.3, 0.2, 0.4, 0.1]))
        h = 1e-4
        for t in (0.0, 12.0, 93.0, 407.0):
            fd = (sol.bloch_length_sq(t + h) - sol.bloch_length_sq(t - h)) / (2 * h)
            assert abs(purity_rate(sol, t) - fd) < 1e-8

    def test_pure_double_frequency_when_centered(self):
        params = RamanParams(0.1, 0.1, 1.0, 1.02)
        _, _, gamma, _ = raman_coefficients(params)
        assert gamma != 0.0
        sol = RotatingSolution.fit(params, np.array([0.0, 0.25, 0.0, 0.0]))
        n = 4096
        period = 2 * np.pi / sol.omega
        dt = 4 * period / n
        ts = dt * np.arange(n)
        lsq = sol.bloch_length_sq(ts)
        assert np.abs(lsq - lsq.mean()).max() > 0  # it does oscillate
        freq = dominant_frequency(lsq, dt)
        assert abs(freq - 2 * sol.omega) < 2 * np.pi / (n * dt)

