"""Operator-valued Fourier sums and ideal low-pass averaging.

A :class:`FourierOperator` is a finite sum of terms

    coeff * t**p * exp(1j * nu * t)

with constant matrix coefficients.  The class is closed under addition,
products, Hermitian conjugation, differentiation and antidifferentiation,
which is everything the Dyson recursion needs.  Time averaging with an
ideal low-pass kernel acts term by term: components at or above the
cutoff frequency are deleted, components below it pass unchanged
(including any secular t**p factor, whose shift under a unit-area even
kernel is negligible when the drive frequencies are well separated from
the pass band).

Superoperator-valued sums reuse the same class with ``d**2 x d**2``
coefficients; :func:`sandwich` lifts a pair of operator sums to the
superoperator sum of the map rho -> L(t) rho R(t), and :func:`commutator`
lifts H(t) to the sum of rho -> [H(t), rho].
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .linalg import superop

__all__ = [
    "FREQUENCY_MERGE_TOL",
    "FourierTerm",
    "FourierOperator",
    "lowpass_average",
    "sandwich",
    "commutator",
]

# Frequencies closer than this are treated as equal when merging terms,
# which keeps products of near-resonant factors from blowing up the term
# count through floating-point drift.
FREQUENCY_MERGE_TOL = 1e-12


class FourierTerm(NamedTuple):
    coeff: np.ndarray
    nu: float
    p: int


def _merge(dim, terms):
    by_p: dict[int, list[tuple[float, np.ndarray]]] = {}
    for coeff, nu, p in terms:
        c = np.asarray(coeff, dtype=complex)
        if c.shape != (dim, dim):
            raise ValueError(f"coefficient shape {c.shape} does not match dim {dim}")
        p = int(p)
        if p < 0:
            raise ValueError("polynomial degree must be non-negative")
        nu = float(nu)
        if abs(nu) <= FREQUENCY_MERGE_TOL:
            nu = 0.0
        by_p.setdefault(p, []).append((nu, c))
    out = []
    for p in sorted(by_p):
        entries = sorted(by_p[p], key=lambda e: e[0])
        i = 0
        while i < len(entries):
            nu0 = entries[i][0]
            acc = entries[i][1].copy()
            j = i + 1
            while j < len(entries) and entries[j][0] - nu0 <= FREQUENCY_MERGE_TOL:
                acc += entries[j][1]
                j += 1
            if np.any(acc != 0):
                out.append(FourierTerm(acc, nu0, p))
            i = j
    return tuple(out)


class FourierOperator:
    """Finite sum of (matrix) * t**p * exp(i nu t) terms.

    Immutable after construction; terms with identical (nu, p) are merged
    and exact-zero coefficients pruned.
    """

    __slots__ = ("dim", "_terms", "_coeffs", "_nus", "_ps")

    def __init__(self, dim: int, terms: Iterable = ()):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        self._terms = _merge(self.dim, terms)
        if self._terms:
            self._coeffs = np.stack([t.coeff for t in self._terms])
            self._nus = np.array([t.nu for t in self._terms])
            self._ps = np.array([t.p for t in self._terms], dtype=np.int64)
        else:
            self._coeffs = np.zeros((0, self.dim, self.dim), dtype=complex)
            self._nus = np.zeros(0)
            self._ps = np.zeros(0, dtype=np.int64)

    @classmethod
    def zero(cls, dim):
        return cls(dim, ())

    @classmethod
    def constant(cls, op):
        op = np.asarray(op, dtype=complex)
        return cls(op.shape[0], [(op, 0.0, 0)])

    @classmethod
    def identity(cls, dim):
        return cls.constant(np.eye(dim))

    @property
    def terms(self) -> tuple[FourierTerm, ...]:
        return self._terms

    def _require_same_dim(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, FourierOperator):
            return NotImplemented
        self._require_same_dim(other)
        return FourierOperator(self.dim, list(self._terms) + list(other._terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FourierOperator(self.dim, [(-c, nu, p) for c, nu, p in self._terms])

    def __mul__(self, scalar):
        if isinstance(scalar, FourierOperator):
            return NotImplemented
        s = complex(scalar)
        return FourierOperator(self.dim, [(s * c, nu, p) for c, nu, p in self._terms])

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Pointwise operator product; frequencies and powers add."""
        if not isinstance(other, FourierOperator):
            return NotImplemented
        self._require_same_dim(other)
        terms = [
            (a @ b, na + nb, pa + pb)
            for a, na, pa in self._terms
            for b, nb, pb in other._terms
        ]
        return FourierOperator(self.dim, terms)

    def dagger(self):
        return FourierOperator(
            self.dim, [(c.conj().T, -nu, p) for c, nu, p in self._terms]
        )

    def differentiate(self):
        terms = []
        for c, nu, p in self._terms:
            if nu != 0.0:
                terms.append((1j * nu * c, nu, p))
            if p > 0:
                terms.append((p * c, nu, p - 1))
        return FourierOperator(self.dim, terms)

    def antiderivative(self):
        """Term-by-term antiderivative (integration constant zero)."""
        terms = []
        for c, nu, p in self._terms:
            if nu == 0.0:
                terms.append((c / (p + 1), 0.0, p + 1))
            else:
                z = 1j * nu
                coef = 1.0 / z
                terms.append((c * coef, nu, p))
                for k in range(1, p + 1):
                    coef *= -(p - k + 1) / z
                    terms.append((c * coef, nu, p - k))
        return FourierOperator(self.dim, terms)

    def evaluate(self, t) -> np.ndarray:
        """Value at time t, or the (len(t), dim, dim) stack at a 1-D array of times."""
        t = np.asarray(t, dtype=float)[..., None]
        weights = np.exp((1j * t) * self._nus) * (t ** self._ps)
        return np.einsum("...k,kij->...ij", weights, self._coeffs)

    def max_abs(self) -> float:
        """Largest coefficient magnitude over all terms (0 for the zero sum)."""
        return float(np.abs(self._coeffs).max(initial=0.0))

    def __repr__(self):
        ts = ", ".join(f"(nu={nu:g}, p={p})" for _, nu, p in self._terms)
        return f"FourierOperator(dim={self.dim}, terms=[{ts}])"


def lowpass_average(f: FourierOperator, cutoff: float) -> FourierOperator:
    """Ideal low-pass average: delete terms with |nu| >= cutoff, keep the rest.

    ``math.inf`` is transparent (every component passes), which is what any
    unit-area kernel does to a constant.
    """
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    return FourierOperator(f.dim, [t for t in f.terms if abs(t.nu) < cutoff])


def sandwich(left: FourierOperator, right: FourierOperator) -> FourierOperator:
    """Superoperator-valued sum of the map rho -> left(t) @ rho @ right(t).

    Every pair of terms is lifted with :func:`~avgdyn.linalg.superop`, left
    terms outermost; frequencies and powers add.
    """
    if left.dim != right.dim:
        raise ValueError(f"dimension mismatch: {left.dim} vs {right.dim}")
    coeffs = superop(left._coeffs[:, None], right._coeffs[None, :])
    nus = left._nus[:, None] + right._nus[None, :]
    ps = left._ps[:, None] + right._ps[None, :]
    dim = left.dim * left.dim
    return FourierOperator(dim, zip(coeffs.reshape(-1, dim, dim), nus.ravel(), ps.ravel()))


def commutator(h: FourierOperator) -> FourierOperator:
    """Superoperator-valued sum of the map rho -> [h(t), rho]."""
    one = FourierOperator.identity(h.dim)
    return sandwich(h, one) - sandwich(one, h)
