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
from functools import cached_property

import numpy as np

from .fourier import FREQUENCY_MERGE_TOL, FourierOperator, commutator
from .linalg import superop, unvectorize, vectorize

__all__ = [
    "HarmonicHamiltonian",
    "inverse_frequency_pair",
    "default_filter",
    "EffectiveGenerator",
]

@dataclass(frozen=True)
class HarmonicHamiltonian:
    """H0 plus a list of (h_n, w_n) harmonic drive pairs, all w_n > 0."""

    h0: np.ndarray
    terms: tuple[tuple[np.ndarray, float], ...] = ()

    def __post_init__(self):
        h0 = np.asarray(self.h0, dtype=complex)
        if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
            raise ValueError(f"h0 must be square, got shape {h0.shape}")
        if not np.all(np.isfinite(h0)):
            raise ValueError("h0 entries must be finite")
        if np.abs(h0 - h0.conj().T).max() > 1e-12:
            raise ValueError("h0 must be Hermitian within 1e-12")
        terms = []
        for k, (h, w) in enumerate(self.terms):
            h = np.asarray(h, dtype=complex)
            if h.shape != h0.shape:
                raise ValueError(
                    f"drive operator {k} has shape {h.shape}, expected {h0.shape}"
                )
            if not np.all(np.isfinite(h)):
                raise ValueError(f"drive operator {k} entries must be finite")
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

    @cached_property
    def liouvillian(self) -> FourierOperator:
        """-i [H(t), .] as a superoperator-valued sum acting on vec(rho); built once."""
        return -1j * commutator(self.as_fourier())


def inverse_frequency_pair(ham: HarmonicHamiltonian, n: int, m: int) -> tuple[float, float]:
    """Half-sum and half-difference of 1/w_n and 1/w_m.

    The half-difference is exactly 0.0 when the two frequencies agree
    within FREQUENCY_MERGE_TOL (in particular for n == m), so representation
    noise cannot fabricate decoherence.
    """
    _, wn = ham.terms[n]
    _, wm = ham.terms[m]
    half_sum = 0.5 * (1.0 / wn + 1.0 / wm)
    if abs(wn - wm) <= FREQUENCY_MERGE_TOL:
        return half_sum, 0.0
    return half_sum, 0.5 * (1.0 / wn - 1.0 / wm)


def default_filter(ham: HarmonicHamiltonian) -> float:
    """Averaging cutoff at half the smallest drive frequency: rejects every
    ±w_n and ±(w_n + w_m), passes the differences w_n - w_m when the drives
    are close.  Infinite (transparent) when there is no drive."""
    if not ham.terms:
        return np.inf
    return min(ham.frequencies()) / 2.0


class EffectiveGenerator:
    """Evaluates H_eff(t), the decoherence superoperator and the averaged
    master equation's right-hand side for one harmonic Hamiltonian.

    Immutable after construction; evaluation at distinct times is
    independent, so callers may parallelize over time points freely.
    """

    def __init__(self, hamiltonian: HarmonicHamiltonian):
        self.hamiltonian = hamiltonian
        d = hamiltonian.dim
        one = np.eye(d)
        eff_terms = [(hamiltonian.h0, 0.0, 0)]
        deco_terms = []
        # drives too large for floats overflow here; reported once, below
        with np.errstate(over="ignore", invalid="ignore"):
            for n, (hn, wn) in enumerate(hamiltonian.terms):
                for m, (hm, wm) in enumerate(hamiltonian.terms):
                    half_sum, half_diff = inverse_frequency_pair(hamiltonian, n, m)
                    hmd = hm.conj().T
                    a, b = hmd @ hn, hn @ hmd
                    # FourierOperator snaps a beat within FREQUENCY_MERGE_TOL to 0
                    eff_terms.append((half_sum * (a - b), wm - wn, 0))
                    if half_diff != 0.0:
                        block = (
                            (superop(a, one) + superop(one, a))
                            + (superop(b, one) + superop(one, b))
                            - 2.0 * superop(hn, hmd)
                            - 2.0 * superop(hmd, hn)
                        )
                        deco_terms.append((half_diff * block, wm - wn, 0))
            self._h_eff = FourierOperator(d, eff_terms)
            self._deco = FourierOperator(d * d, deco_terms)
        if not np.isfinite([self._h_eff.max_abs(), self._deco.max_abs()]).all():
            raise ValueError("drive operators too large: the effective generator overflows")

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

    @cached_property
    def liouvillian(self) -> FourierOperator:
        """-i ([H_eff(t), .] + D(t)), the superoperator-valued sum of
        master_rhs acting on vec(rho); built once."""
        return -1j * (commutator(self._h_eff) + self._deco)

    def liouvillian_matrix(self, t) -> np.ndarray:
        """Superoperator matrix of master_rhs at time t (acts on vec(rho));
        a 1-D array of times gives the stack of matrices."""
        return self.liouvillian.evaluate(t)
