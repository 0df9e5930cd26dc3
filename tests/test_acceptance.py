"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured numbers before
asserting, so a full run (`pytest tests/test_acceptance.py -v -s`) reads
as a checklist.
"""

import math
import time
from pathlib import Path

import numpy as np

import avgdyn as a
from avgdyn.cli import main as cli_main
from util import random_density, random_harmonic

RNG_SEED = 20260809


def report(number, ok, detail):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def ac_stark_hamiltonian(b=0.3, delta=1.0):
    h = np.zeros((2, 2), dtype=complex)
    h[1, 0] = b * delta / 2.0
    return a.HarmonicHamiltonian(np.zeros((2, 2)), ((h, delta),))


PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def test_criterion_01_ac_stark_effective_hamiltonian():
    gen = a.EffectiveGenerator(ac_stark_hamiltonian(b=0.3, delta=1.0))
    start = time.perf_counter()
    h_eff = gen.effective_hamiltonian(0.0)
    elapsed = time.perf_counter() - start
    want = np.diag([0.0225, -0.0225])
    err = float(np.abs(h_eff - want).max())
    ok = err < 1e-14 and elapsed < 1e-3
    report(1, ok, f"H_eff = diag(+0.0225, -0.0225), max err {err:.2e}, "
                  f"runtime {elapsed * 1e3:.3f} ms")
    assert err < 1e-14
    assert elapsed < 1e-3


def test_criterion_02_ac_stark_frequency_correspondence():
    ham = ac_stark_hamiltonian(b=0.3, delta=1.0)
    grid = a.TimeGrid(0.0, 2000.0, 0.01)
    exact = a.propagate_exact(ham, PLUS, grid)
    effective = a.propagate_effective(a.EffectiveGenerator(ham), PLUS, grid)
    dt = grid.dt
    cutoff = a.default_filter(ham)
    sig_ex = a.lowpass_series(exact.states[:, 0, 1].real, dt, cutoff)
    sig_ef = a.lowpass_series(effective.states[:, 0, 1].real, dt, cutoff)
    f_ex = a.dominant_frequency(sig_ex, dt)
    f_ef = a.dominant_frequency(sig_ef, dt)
    resolution = a.dft_resolution(sig_ex.size, dt)
    f_exact_ref = math.sqrt(1.0 + 0.3**2) - 1.0  # 0.04403065089105507
    agreement = abs(f_ef - f_ex) / f_ex
    ok = (abs(f_ef - 0.045) < resolution
          and abs(f_ex - f_exact_ref) < resolution
          and agreement < 0.05)
    report(2, ok, f"effective {f_ef:.5f} (target 0.045), exact {f_ex:.5f} "
                  f"(target {f_exact_ref:.5f}), resolution {resolution:.2e}, "
                  f"relative disagreement {agreement:.2%} < 5%")
    assert abs(f_ef - 0.045) < resolution
    assert abs(f_ex - f_exact_ref) < resolution
    assert agreement < 0.05


def test_criterion_03_single_frequency_decoherence_vanishes():
    rng = np.random.default_rng(RNG_SEED + 3)
    worst_norm = 0.0
    worst_drift = 0.0
    for i in range(50):
        d = int(rng.integers(2, 5))
        ham = random_harmonic(rng, d, 1, strength=0.1)
        gen = a.EffectiveGenerator(ham)
        t_probe = float(rng.uniform(0.0, 20.0))
        worst_norm = max(worst_norm, float(np.linalg.norm(
            gen.decoherence_superop(t_probe))))
        rho0 = random_density(rng, d)
        w = ham.terms[0][1]
        traj = a.propagate_effective(gen, rho0, a.TimeGrid(0.0, 100.0, 0.025 / w))
        purity = traj.purity
        worst_drift = max(worst_drift, float(np.abs(purity - purity[0]).max()))
    ok = worst_norm == 0.0 and worst_drift <= 1e-9
    report(3, ok, f"50 single-frequency systems: decoherence norm {worst_norm} "
                  f"(exactly 0), worst purity drift {worst_drift:.2e} <= 1e-9")
    assert worst_norm == 0.0
    assert worst_drift <= 1e-9


def test_criterion_04_engine_matches_harmonic_closed_form():
    rng = np.random.default_rng(RNG_SEED + 4)
    worst = 0.0
    for _ in range(25):
        d = int(rng.integers(2, 4))
        ham = random_harmonic(rng, d, 2, strength=0.2)
        series = a.generator_series(ham.as_fourier(), a.default_filter(ham), 0.0, 2)
        gen = a.EffectiveGenerator(ham)
        for t in rng.uniform(0.0, 30.0, 10):
            engine = -1j * (series.maps[1].evaluate(t) + series.maps[2].evaluate(t))
            diff = float(np.linalg.norm(engine - gen.liouvillian_matrix(t)))
            worst = max(worst, diff)
    ok = worst <= 1e-10
    report(4, ok, f"25 two-frequency systems x 10 times: worst generator "
                  f"difference {worst:.2e} <= 1e-10")
    assert worst <= 1e-10


def test_criterion_05_series_inversion():
    rng = np.random.default_rng(RNG_SEED + 5)
    worst = 0.0
    for d, n_freq in ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3)):
        ham = random_harmonic(rng, d, n_freq, strength=0.25)
        fwd = a.forward_series(ham.as_fourier(), a.default_filter(ham), 0.0, 3)
        inv = a.inverse_series(fwd)
        for k in range(1, 4):
            acc = a.FourierOperator(d * d)
            for j in range(k + 1):
                acc = acc + (inv.maps[j] @ fwd.maps[k - j])
            for t in rng.uniform(0.0, 10.0, 4):
                worst = max(worst, float(np.linalg.norm(acc.evaluate(t))))
    ok = worst <= 1e-10
    report(5, ok, f"sum_j inverse_j o forward_(k-j) for k=1..3: worst residual "
                  f"norm {worst:.2e} <= 1e-10")
    assert worst <= 1e-10


def test_criterion_06_generator_structure():
    rng = np.random.default_rng(RNG_SEED + 6)
    worst_trace = 0.0
    worst_herm = 0.0
    for i in range(100):
        d = 2 if i % 5 else 3
        ham = random_harmonic(rng, d, 2, strength=0.25)
        series = a.generator_series(ham.as_fourier(), a.default_filter(ham), 0.0, 3)
        rho = random_density(rng, d)
        t = float(rng.uniform(0.0, 10.0))
        for k in (1, 2, 3):
            out = series.apply(k, rho, t)
            worst_trace = max(worst_trace, abs(np.trace(out)))
            img = out / 1j
            worst_herm = max(worst_herm, float(np.abs(img - img.conj().T).max()))
    ok = worst_trace <= 1e-11 and worst_herm <= 1e-11
    report(6, ok, f"100 random (H, rho), orders 1..3: worst |trace| "
                  f"{worst_trace:.2e}, worst hermiticity defect {worst_herm:.2e} "
                  f"(both <= 1e-11)")
    assert worst_trace <= 1e-11
    assert worst_herm <= 1e-11


def test_criterion_07_raman_analytic_vs_numeric():
    params = a.RamanParams(0.1, 0.1, 1.0, 1.02)
    alpha, beta, gamma, rate = a.raman_coefficients(params)
    omega_ref = math.sqrt((alpha + rate) ** 2 + beta**2 - gamma**2)
    t_total = 3 * 2 * math.pi / omega_ref
    n = int(math.ceil(t_total / (1e-3 / max(params.omega1, params.omega2))))
    grid = a.TimeGrid(0.0, t_total, t_total / n)
    r0 = np.array([0.3, 0.2, 0.4, 0.1])
    ts, rows = a.integrate_bloch(params, r0, grid)
    cos_t, sin_t = np.cos(rate * ts), np.sin(rate * ts)
    rotated = rows.copy()
    rotated[:, 0] = cos_t * rows[:, 0] - sin_t * rows[:, 1]
    rotated[:, 1] = sin_t * rows[:, 0] + cos_t * rows[:, 1]
    sol = a.RotatingSolution.fit(params, r0)
    deviation = float(np.abs(rotated - sol.sample(ts)).max())
    freq = a.dominant_frequency(rotated[:, 1], grid.dt)
    freq_err = abs(freq - omega_ref) / omega_ref
    ok = deviation <= 1e-6 and freq_err < 0.005
    report(7, ok, f"3 periods at dt={grid.dt:.2e}: max |numeric - analytic| "
                  f"{deviation:.2e} <= 1e-6; DFT frequency {freq:.6f} vs "
                  f"sqrt((alpha+w1-w2)^2+beta^2-gamma^2)={omega_ref:.6f} "
                  f"({freq_err:.2%} < 0.5%)")
    assert deviation <= 1e-6
    assert freq_err < 0.005


def test_criterion_08_purity_oscillates_at_twice_the_frequency():
    params = a.RamanParams(0.1, 0.1, 1.0, 1.02)
    # zero-phase gauge: no DC part in the rotating-frame w component
    sol = a.RotatingSolution.fit(params, np.array([0.0, 0.25, 0.0, 0.0]))
    assert sol.r_w_center == 0.0
    n = 4096
    dt = 4 * 2 * math.pi / sol.omega / n
    ts = dt * np.arange(n)
    lsq = sol.bloch_length_sq(ts)
    freq = a.dominant_frequency(lsq, dt)
    resolution = a.dft_resolution(n, dt)
    h = 1e-4
    worst_fd = 0.0
    for t in (0.0, 40.0, 333.0, 512.0):
        fd = (sol.bloch_length_sq(t + h) - sol.bloch_length_sq(t - h)) / (2 * h)
        worst_fd = max(worst_fd, abs(a.purity_rate(sol, t) - fd))
    ok = abs(freq - 2 * sol.omega) < resolution and worst_fd <= 1e-8
    report(8, ok, f"squared Bloch length peaks at {freq:.6f} vs 2*omega = "
                  f"{2 * sol.omega:.6f} (resolution {resolution:.2e}); "
                  f"closed-form rate vs central difference {worst_fd:.2e} <= 1e-8")
    assert abs(freq - 2 * sol.omega) < resolution
    assert worst_fd <= 1e-8


def test_criterion_09_coherence_block_decoupling():
    params = a.RamanParams(0.1, 0.12, 1.0, 1.04)
    h1 = np.zeros((3, 3), dtype=complex)
    h1[2, 0] = params.Omega1 / 2
    h2 = np.zeros((3, 3), dtype=complex)
    h2[2, 1] = params.Omega2 / 2
    gen = a.EffectiveGenerator(a.HarmonicHamiltonian(
        np.zeros((3, 3)), ((h1, params.omega1), (h2, params.omega2))))
    basis = a.gellmann_basis()
    worst = 0.0
    for t in (0.0, 2.9, 17.3, 44.0):
        jac = np.empty((8, 8))
        for col, gb in enumerate(basis):
            out = gen.master_rhs(gb, t)
            for row, ga in enumerate(basis):
                jac[row, col] = np.trace(out @ ga).real / 2
        worst = max(worst,
                    float(np.abs(jac[:4, 4:]).max()),
                    float(np.abs(jac[4:, :4]).max()))
    ok = worst <= 1e-12
    report(9, ok, f"cross-block Jacobian entries between (x,y,z,w) and "
                  f"(xa,ya,xb,yb): worst {worst:.2e} <= 1e-12")
    assert worst <= 1e-12


def test_criterion_10_deterministic_runs(tmp_path, capsys):
    config = Path(__file__).resolve().parent.parent / "configs" / "ac_stark.json"
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    assert cli_main(["run", str(config), "--out", str(out_a)]) == 0
    assert cli_main(["run", str(config), "--out", str(out_b)]) == 0
    capsys.readouterr()  # swallow the two printed reports
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("exact.csv", "effective.csv", "report.json")
    )
    sizes = {name: (out_a / name).stat().st_size
             for name in ("exact.csv", "effective.csv", "report.json")}
    report(10, identical, f"repeated runs byte-identical: {identical} "
                          f"(file sizes {sizes})")
    assert identical
