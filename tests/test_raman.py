import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

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


def torque(params):
    """The rotating-frame torque Omega = (beta, 0, alpha + w1 - w2)."""
    alpha, beta, _, rate = raman_coefficients(params)
    return np.array([beta, 0.0, alpha + rate])


class TestRotatingSolution:
    def test_fit_frequency_formula(self):
        alpha, beta, gamma, rate = raman_coefficients(P_REF)
        sol = RotatingSolution.fit(P_REF, np.array([0.2, 0.1, -0.3, 0.05]))
        assert_allclose(sol.omega**2,
                        (alpha + rate)**2 + beta**2 - gamma**2, rtol=1e-12)

    def test_gamma_zero_is_circular_precession(self):
        params = RamanParams(0.1, 0.1, 1.3, 1.3)  # equal detunings: gamma = 0
        sol = RotatingSolution.fit(params, np.array([0.2, 0.1, -0.3, 0.05]))
        axis = torque(params)
        assert sol.gamma == 0.0
        assert_allclose(sol.omega, np.linalg.norm(axis), rtol=1e-15)
        axis /= np.linalg.norm(axis)
        ts = np.linspace(0, 200, 400)
        rows = sol.sample(ts)
        # radius about the torque axis and r_w are both constant
        d = rows[:, :3]
        axial = d @ axis
        radial = np.linalg.norm(d - np.outer(axial, axis), axis=1)
        assert np.abs(radial - radial[0]).max() < 1e-14
        assert np.abs(axial - axial[0]).max() < 1e-14
        assert np.abs(rows[:, 3] - rows[0, 3]).max() < 1e-14

    def test_residual_of_rotating_frame_equations(self):
        # central differences of the analytic solution satisfy
        # d(d)/dt = Omega x d - r_w gvec, d(r_w)/dt = -gvec . d
        params = RamanParams(0.1, 0.1, 1.0, 1.02)
        _, _, gamma, _ = raman_coefficients(params)
        sol = RotatingSolution.fit(params, np.array([0.3, 0.2, 0.4, 0.1]))
        gvec = gamma * np.array([0.0, 1.0, 0.0])
        h = 1e-4
        for t in (0.0, 37.0, 151.0):
            rm, r0, rp = sol.sample([t - h, t, t + h])
            deriv = (rp - rm) / (2 * h)
            want_d = np.cross(torque(params), r0[:3]) - r0[3] * gvec
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
        # d0 on the gamma axis and r_w0 = 0: the zero-phase ellipse
        #   d   = A (e_gamma cos(omega t) + e_p (|Omega|/omega) sin(omega t))
        #   r_w = -A (gamma/omega) sin(omega t),  e_p = e_Omega x e_gamma
        params = RamanParams(0.1, 0.1, 1.0, 1.02)
        _, _, gamma, _ = raman_coefficients(params)
        axis = torque(params)
        big_omega = np.linalg.norm(axis)
        e_gamma = np.array([0.0, 1.0, 0.0])
        e_p = np.cross(axis / big_omega, e_gamma)
        init = np.array([0.0, 0.25, 0.0, 0.0])
        sol0 = RotatingSolution.fit(params, init)
        assert sol0.r_w_center == 0.0
        ts = np.linspace(0, 2 * np.pi / sol0.omega, 50)
        cos_t, sin_t = np.cos(sol0.omega * ts), np.sin(sol0.omega * ts)
        rows = sol0.sample(ts)
        want_d = 0.25 * (np.outer(cos_t, e_gamma)
                         + np.outer((big_omega / sol0.omega) * sin_t, e_p))
        assert_allclose(rows[:, :3], want_d, rtol=0, atol=1e-14)
        assert_allclose(rows[:, 3], -0.25 * (gamma / sol0.omega) * sin_t, rtol=0, atol=1e-14)
        assert_allclose(rows[0], init, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("params", [RamanParams(0.1, 0.1, 1.0, 1.02), P_REF,
                                        RamanParams(0.3, 0.2, 0.7, 1.1)])
    def test_sample_is_the_matrix_exponential(self, params):
        _, beta, gamma, _ = raman_coefficients(params)
        omega_z = torque(params)[2]
        m = np.array([[0.0, -omega_z, 0.0, 0.0],
                      [omega_z, 0.0, -beta, -gamma],
                      [0.0, beta, 0.0, 0.0],
                      [0.0, -gamma, 0.0, 0.0]])
        r0 = np.array([0.3, -0.2, 0.4, 0.1])
        sol = RotatingSolution.fit(params, r0)
        ts = np.linspace(0, 4 * 2 * np.pi / sol.omega, 37)
        want = np.array([expm(m * t) @ r0 for t in ts])
        assert np.abs(sol.sample(ts) - want).max() < 1e-12


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

