"""Closed-form reference trajectories and output checks, numpy only.

Both shipped scenario kinds are rotating-wave: each drive couples one
pair of levels at one frequency, so R(t) = diag(exp(-i phi t)) turns
H(t) into a static H' and the exact state is

    rho(t) = R U(t) rho0 U(t)^dagger R^dagger,   U(t) = exp(-i H' t),

with U taken from ``eigh``.  The averaged references are the static
H_eff = diag(+b^2/4, -b^2/4) (units of delta) for ``ac_stark`` and, for
``raman``, the co-rotating (x, y, z, w) Bloch system dr'/dt = M r' whose
matrix satisfies M^3 = -omega^2 M, so exp(M t) has a three-term closed
form.  Nothing here calls into ``avgdyn``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

SQRT3 = math.sqrt(3.0)
BLOCH_LABELS = ("x", "y", "z", "w", "xa", "ya", "xb", "yb")

# Worst deviations measured at the seed commit, over ten seeds per
# workload: exact 4.9e-10 (ac_stark_long) and 1.5e-10 (raman); averaged
# 2.6e-13 (rounding accumulated over 200 000 steps) and 1.4e-14; the
# Raman closed form and RK4 against the reference 5.3e-15.  Each tolerance
# leaves a margin of at least 20x over those numbers and stays far below
# the 1e-6 perturbation the tests inject.
EXACT_TOL = 1e-8
AVERAGED_TOL = 1e-10
BLOCH_TOL = 1e-12
# the t column is compared with k*dt computed here
TIME_TOL = 1e-9


def initial_state(config) -> np.ndarray:
    return np.array(config["initial"], dtype=complex)


def time_scale(config) -> float:
    """CSV time unit: 1/delta for ac_stark, absolute otherwise."""
    return float(config.get("delta", 1.0)) if config["kind"] == "ac_stark" else 1.0


def grid_times(config) -> np.ndarray:
    """The CSV t column the program should write: k*dt, k = 0..n.

    Generated configs leave t0 at its default 0, where R(0) = 1.
    """
    n = int(math.floor(config["t_max"] / config["dt"] + 1e-9))
    return config["dt"] * np.arange(n + 1)


def rotating_frame(config) -> tuple[np.ndarray, np.ndarray]:
    """(phi, H') with H(t) = R(t) (H' + diag(phi)) R(t)^dagger."""
    if config["kind"] == "ac_stark":
        delta = float(config.get("delta", 1.0))
        half_rabi = config["b"] * delta / 2.0
        phi = np.array([0.0, delta])
        h_static = np.array([[0.0, half_rabi], [half_rabi, -delta]])
    elif config["kind"] == "raman":
        w1, w2 = config["omega1"], config["omega2"]
        c1, c2 = config["Omega1"] / 2.0, config["Omega2"] / 2.0
        phi = np.array([-w1, -w2, 0.0])
        h_static = np.array([[w1, 0.0, c1], [0.0, w2, c2], [c1, c2, 0.0]])
    else:
        raise ValueError(f"no rotating frame for kind {config['kind']!r}")
    return phi, h_static


def _physical(config, t_csv) -> np.ndarray:
    return np.asarray(t_csv, dtype=float) / time_scale(config)


def exact_states(config, t_csv) -> np.ndarray:
    """Exact rho(t), shape (n, d, d), at the CSV times."""
    tau = _physical(config, t_csv)
    phi, h_static = rotating_frame(config)
    energies, vecs = np.linalg.eigh(h_static)
    u = np.einsum("ij,tj,kj->tik", vecs, np.exp(-1j * np.outer(tau, energies)),
                  vecs.conj())
    rotating = u @ initial_state(config) @ u.conj().transpose(0, 2, 1)
    frame = np.exp(-1j * np.outer(tau, phi))
    return frame[:, :, None] * rotating * frame.conj()[:, None, :]


def raman_matrix(config) -> np.ndarray:
    """Co-rotating Bloch matrix M of the averaged Raman system (x, y, z, w)."""
    o1, o2 = config["Omega1"], config["Omega2"]
    w1, w2 = config["omega1"], config["omega2"]
    alpha = 0.25 * (o1 * o1 / w1 - o2 * o2 / w2)
    beta = 0.25 * o1 * o2 * (1.0 / w1 + 1.0 / w2)
    gamma = 0.25 * SQRT3 * o1 * o2 * (1.0 / w1 - 1.0 / w2)
    torque = alpha + (w1 - w2)
    return np.array([
        [0.0, -torque, 0.0, 0.0],
        [torque, 0.0, -beta, -gamma],
        [0.0, beta, 0.0, 0.0],
        [0.0, -gamma, 0.0, 0.0],
    ])


def raman_bloch(config, t, rotating=False) -> np.ndarray:
    """(x, y, z, w) rows of the averaged Raman state; lab frame unless
    ``rotating``, where the (x, y) block is turned by (omega1 - omega2) t."""
    tau = _physical(config, t)
    m = raman_matrix(config)
    omega_sq = -0.5 * float(np.trace(m @ m))
    if not omega_sq > 0:
        raise ValueError("Raman reference needs the oscillatory regime")
    if np.abs(m @ m @ m + omega_sq * m).max() > 1e-14:
        raise ValueError("M^3 = -omega^2 M does not hold")
    omega = math.sqrt(omega_sq)
    r0 = bloch_components(initial_state(config)[None])[0, :4]
    rows = (r0[None, :]
            + np.outer(np.sin(omega * tau) / omega, m @ r0)
            + np.outer((1.0 - np.cos(omega * tau)) / omega_sq, m @ m @ r0))
    if rotating:
        return rows
    theta = (config["omega1"] - config["omega2"]) * tau
    c, s = np.cos(theta), np.sin(theta)
    lab = rows.copy()
    lab[:, 0] = c * rows[:, 0] + s * rows[:, 1]
    lab[:, 1] = -s * rows[:, 0] + c * rows[:, 1]
    return lab


def averaged_states(config, t_csv) -> np.ndarray:
    """Low-pass-averaged rho(t), shape (n, d, d), at the CSV times."""
    rho0 = initial_state(config)
    if config["kind"] == "ac_stark":
        tau = _physical(config, t_csv)
        shift = config["b"] ** 2 * float(config.get("delta", 1.0)) / 4.0
        gaps = np.array([[0.0, 2.0 * shift], [-2.0 * shift, 0.0]])
        return rho0[None] * np.exp(-1j * tau[:, None, None] * gaps[None])
    if config["kind"] == "raman":
        if np.abs(rho0[:2, 2]).max() > 0:
            raise ValueError("Raman reference assumes no initial coherence to level 3")
        x, y, z, w = raman_bloch(config, t_csv).T
        states = np.zeros((x.size, 3, 3), dtype=complex)
        states[:, 0, 0] = 1.0 / 3.0 + z + w / SQRT3
        states[:, 1, 1] = 1.0 / 3.0 - z + w / SQRT3
        states[:, 2, 2] = 1.0 / 3.0 - 2.0 * w / SQRT3
        states[:, 0, 1] = x - 1j * y
        states[:, 1, 0] = x + 1j * y
        return states
    raise ValueError(f"no averaged reference for kind {config['kind']!r}")


def bloch_components(states) -> np.ndarray:
    """(x, y, z, w, xa, ya, xb, yb) = tr(rho G_k)/2 for 3x3 states."""
    s = states
    return np.column_stack([
        s[:, 0, 1].real, -s[:, 0, 1].imag,
        (s[:, 0, 0].real - s[:, 1, 1].real) / 2.0,
        (s[:, 0, 0].real + s[:, 1, 1].real - 2.0 * s[:, 2, 2].real) / (2.0 * SQRT3),
        s[:, 0, 2].real, -s[:, 0, 2].imag,
        s[:, 1, 2].real, -s[:, 1, 2].imag,
    ])


def trajectory_columns(t_csv, states) -> dict[str, np.ndarray]:
    """Every CSV column, in the documented order, computed from states."""
    d = states.shape[1]
    cols = {"t": np.asarray(t_csv, dtype=float)}
    for i in range(d):
        cols[f"rho{i + 1}{i + 1}_re"] = states[:, i, i].real
    for i in range(d):
        for j in range(i + 1, d):
            cols[f"rho{i + 1}{j + 1}_re"] = states[:, i, j].real
            cols[f"rho{i + 1}{j + 1}_im"] = states[:, i, j].imag
    if d == 3:
        for label, values in zip(BLOCH_LABELS, bloch_components(states).T):
            cols[f"bloch_{label}"] = values
    cols["purity"] = np.einsum("tij,tji->t", states, states).real
    herm = (states + states.conj().transpose(0, 2, 1)) / 2.0
    cols["min_eig"] = np.linalg.eigvalsh(herm)[:, 0]
    return cols


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Header and data of a trajectory CSV, parsed independently of avgdyn."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def check_trajectory(path, config, which):
    """(max |CSV - closed form| over every column but t, failures, reference
    columns).  ``which`` is "exact" or "averaged"; the tolerance follows."""
    name = Path(path).name
    header, data = read_table(path)
    times = grid_times(config)
    if which == "exact":
        states, tol = exact_states(config, times), EXACT_TOL
    else:
        states, tol = averaged_states(config, times), AVERAGED_TOL
    ref = trajectory_columns(times, states)
    if header != list(ref):
        return math.inf, [f"{name}: header {header}, want {list(ref)}"], ref
    if data.shape[0] != times.size:
        return math.inf, [f"{name}: {data.shape[0]} rows, want {times.size}"], ref
    failures = []
    time_dev = float(np.abs(data[:, 0] - times).max())
    if not time_dev <= TIME_TOL:
        failures.append(f"{name}: t column off by {time_dev:.3e}")
    deviation = float(np.abs(data[:, 1:] - np.column_stack(list(ref.values())[1:])).max())
    if not deviation <= tol:
        failures.append(f"{name}: max deviation {deviation:.3e} > {tol:g}")
    return deviation, failures, ref
