"""Closed-form averaged dynamics for harmonically driven Hamiltonians.

For H(t) = H0 + sum_n h_n exp(-i w_n t) + h_n† exp(+i w_n t), with all
drive frequencies rejected by the averaging kernel but their pairwise
differences passed, the averaged state obeys a Lindblad-form equation

    i d(rho)/dt = [H_eff, rho]
                + sum_{n,m} (1/w-_nm) ( {L_m† L_n, rho} - 2 L_n rho L_m†
                                      + {L_n L_m†, rho} - 2 L_m† rho L_n )

with L_m = h_m exp(-i w_m t), half-sum/half-difference inverse
frequencies 1/w±_nm = (1/w_n ± 1/w_m)/2, and

    H_eff = H0 + sum_{n,m} (1/w+_nm) [h_m†, h_n] exp(i (w_m - w_n) t).

The decoherence bracket is weighted by 1/w-_nm, so it vanishes whenever
only one drive frequency is present: the evolution is then generated by
H_eff alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import AveragingFilter, FourierOperator
from .linalg import anticommutator_superop, commutator_superop, unvectorize, vectorize

__all__ = [
    "FREQUENCY_MATCH_TOL",
    "HarmonicHamiltonian",
    "inverse_frequency_pair",
    "default_filter",
    "first_order_dyson",
    "EffectiveGenerator",
]

# Drive frequencies closer than this are treated as the same index: their
# half-difference inverse frequency is exactly zero and their beat phase is
# snapped to zero, so representation noise cannot fabricate decoherence.
FREQUENCY_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class HarmonicHamiltonian:
    """H0 plus a list of (h_n, w_n) harmonic drive pairs, all w_n > 0."""

    h0: np.ndarray
    terms: tuple[tuple[np.ndarray, float], ...] = ()

    def __post_init__(self):
        h0 = np.asarray(self.h0, dtype=complex)
        if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
            raise ValueError(f"h0 must be square, got shape {h0.shape}")
        if np.abs(h0 - h0.conj().T).max() > 1e-12:
            raise ValueError("h0 must be Hermitian within 1e-12")
        terms = []
        for k, (h, w) in enumerate(self.terms):
            h = np.asarray(h, dtype=complex)
            if h.shape != h0.shape:
                raise ValueError(
                    f"drive operator {k} has shape {h.shape}, expected {h0.shape}"
                )
            w = float(w)
            if not w > 0:
                raise ValueError(f"drive frequency {k} must be positive, got {w}")
            terms.append((h, w))
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    def frequencies(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.terms)

    def as_fourier(self) -> FourierOperator:
        """The full H(t) as an operator-valued Fourier sum."""
        parts = [(self.h0, 0.0, 0)]
        for h, w in self.terms:
            parts.append((h, -w, 0))
            parts.append((h.conj().T, +w, 0))
        return FourierOperator(self.dim, parts)

    def averaged(self) -> np.ndarray:
        """H(t) after averaging out the drives: just H0."""
        return self.h0


def inverse_frequency_pair(ham: HarmonicHamiltonian, n: int, m: int) -> tuple[float, float]:
    """Half-sum and half-difference of 1/w_n and 1/w_m.

    The half-difference is exactly 0.0 when the two frequencies agree
    within FREQUENCY_MATCH_TOL (in particular for n == m).
    """
    _, wn = ham.terms[n]
    _, wm = ham.terms[m]
    half_sum = 0.5 * (1.0 / wn + 1.0 / wm)
    if abs(wn - wm) <= FREQUENCY_MATCH_TOL:
        return half_sum, 0.0
    return half_sum, 0.5 * (1.0 / wn - 1.0 / wm)


def default_filter(ham: HarmonicHamiltonian) -> AveragingFilter:
    """Cutoff at half the smallest drive frequency: rejects every ±w_n and
    ±(w_n + w_m), passes the differences w_n - w_m when the drives are
    close.  Transparent when there is no drive."""
    if not ham.terms:
        return AveragingFilter(np.inf)
    return AveragingFilter(min(ham.frequencies()) / 2.0)


def first_order_dyson(ham: HarmonicHamiltonian, t0) -> FourierOperator:
    """Closed form of the first Dyson term for a harmonic Hamiltonian:

        U_1(t) = (t - t0) H0 / i + V_1(t) - V_1(t0),
        V_1(t) = sum_n (1/w_n) (h_n e^{-i w_n t} - h_n† e^{+i w_n t}).
    """
    t0 = float(t0)
    secular = ham.h0 / 1j
    terms = [(secular, 0.0, 1), (-t0 * secular, 0.0, 0)]
    v1_t0 = np.zeros((ham.dim, ham.dim), dtype=complex)
    for h, w in ham.terms:
        hd = h.conj().T
        terms.append((h / w, -w, 0))
        terms.append((-hd / w, +w, 0))
        v1_t0 += (h * np.exp(-1j * w * t0) - hd * np.exp(1j * w * t0)) / w
    terms.append((-v1_t0, 0.0, 0))
    return FourierOperator(ham.dim, terms)


class EffectiveGenerator:
    """Evaluates H_eff(t), the decoherence superoperator and the averaged
    master equation's right-hand side for one harmonic Hamiltonian.

    Immutable after construction; evaluation at distinct times is
    independent, so callers may parallelize over time points freely.
    """

    def __init__(self, hamiltonian: HarmonicHamiltonian):
        self.hamiltonian = hamiltonian
        d = hamiltonian.dim
        eff_terms = [(hamiltonian.h0, 0.0, 0)]
        deco_terms = []
        for n, (hn, wn) in enumerate(hamiltonian.terms):
            for m, (hm, wm) in enumerate(hamiltonian.terms):
                half_sum, half_diff = inverse_frequency_pair(hamiltonian, n, m)
                beat = 0.0 if abs(wn - wm) <= FREQUENCY_MATCH_TOL else wm - wn
                hmd = hm.conj().T
                eff_terms.append((half_sum * (hmd @ hn - hn @ hmd), beat, 0))
                if half_diff != 0.0:
                    block = (
                        anticommutator_superop(hmd @ hn)
                        + anticommutator_superop(hn @ hmd)
                        - 2.0 * np.kron(hm.conj(), hn)
                        - 2.0 * np.kron(hn.T, hmd)
                    )
                    deco_terms.append((half_diff * block, beat, 0))
        self._h_eff = FourierOperator(d, eff_terms)
        self._deco = FourierOperator(d * d, deco_terms)

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim

    def effective_hamiltonian(self, t) -> np.ndarray:
        """H_eff at time t; Hermitian, and equal to H0 when there is no drive."""
        return self._h_eff.evaluate(t)

    def decoherence_superop(self, t) -> np.ndarray:
        """Matrix of the Lindblad-form decoherence bracket at time t.

        Trace-annihilating and Hermiticity-preserving; exactly the zero
        matrix when all drive frequencies coincide.
        """
        return self._deco.evaluate(t)

    def master_rhs(self, rho, t) -> np.ndarray:
        """d(rho)/dt of the averaged master equation: traceless, Hermitian."""
        rho = np.asarray(rho, dtype=complex)
        d = self.dim
        if rho.shape != (d, d):
            raise ValueError(f"state shape {rho.shape} does not match dim {d}")
        h_eff = self._h_eff.evaluate(t)
        out = h_eff @ rho - rho @ h_eff
        if self._deco.terms:
            out = out + unvectorize(self._deco.evaluate(t) @ vectorize(rho))
        return -1j * out

    def liouvillian_matrix(self, t) -> np.ndarray:
        """Superoperator matrix of master_rhs at time t (acts on vec(rho));
        a 1-D array of times gives the stack of matrices."""
        gen = commutator_superop(self._h_eff.evaluate(t))
        if self._deco.terms:
            gen = gen + self._deco.evaluate(t)
        return -1j * gen
