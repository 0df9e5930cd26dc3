"""Shared random generators for the test suite."""

import numpy as np

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
