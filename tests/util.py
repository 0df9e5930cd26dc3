"""Shared random generators and per-term references for the test suite."""

import numpy as np

from avgdyn.fourier import FREQUENCY_MERGE_TOL
from avgdyn.harmonic import HarmonicHamiltonian


def random_hermitian(rng, d, scale=1.0):
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (b + b.conj().T) / 2.0


def random_complex(rng, d, scale=1.0):
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / rho.trace()


def random_harmonic(rng, d, n_freq, *, base=1.0, spread=0.2, strength=0.1,
                    with_h0=True):
    """Random harmonic Hamiltonian whose drive frequencies sit close together,
    so pairwise differences pass the default half-minimum-frequency cutoff."""
    h0 = random_hermitian(rng, d, strength) if with_h0 else np.zeros((d, d))
    w = base * (1.0 + 0.1 * rng.random())
    terms = []
    for _ in range(n_freq):
        terms.append((random_complex(rng, d, strength), w))
        w = w + spread * (0.1 + 0.9 * rng.random())
    return HarmonicHamiltonian(h0, tuple(terms))


def merge_terms(terms):
    """Per-term reference for how a FourierOperator combines its terms: snap
    |nu| <= FREQUENCY_MERGE_TOL to 0.0, sort stably by (p, nu), start a group
    when p changes or nu exceeds the previous term's by more than the
    tolerance, sum each group in order under its first nu, and drop groups
    that sum to exact zero."""
    entries = sorted(
        ((int(p), 0.0 if abs(nu) <= FREQUENCY_MERGE_TOL else float(nu), np.asarray(c, complex))
         for c, nu, p in terms),
        key=lambda e: e[:2],
    )
    groups, prev = [], None
    for p, nu, c in entries:
        if prev is not None and p == prev[0] and nu - prev[1] <= FREQUENCY_MERGE_TOL:
            groups[-1][0] += c
        else:
            groups.append([c.copy(), nu, p])
        prev = (p, nu)
    return [(c, nu, p) for c, nu, p in groups if np.any(c != 0)]


def csv_reference(record) -> str:
    """Per-row, per-value reference for the text emit_csv writes: the header,
    then each row's values formatted one at a time with 17 significant
    digits, LF line endings."""
    lines = [",".join(record.columns)]
    lines += [",".join(format(v, ".17g") for v in row) for row in record.data.tolist()]
    return "\n".join(lines) + "\n"
