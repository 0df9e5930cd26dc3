"""Operator-valued Fourier sums and ideal low-pass averaging.

A :class:`FourierOperator` is a finite sum of terms

    coeff * t**p * exp(1j * nu * t)

with constant matrix coefficients.  The class is closed under addition,
products, differentiation and antidifferentiation, which is everything
the Dyson recursion needs.  Time averaging with an ideal low-pass kernel
acts term by term: components at or above the cutoff frequency are
deleted, components below it pass unchanged (including any secular t**p
factor, whose shift under a unit-area even kernel is negligible when the
drive frequencies are well separated from the pass band).

Superoperator-valued sums reuse the same class with ``d**2 x d**2``
coefficients; :func:`commutator` lifts H(t) to the sum of
rho -> [H(t), rho].

Every operator is held merged (:func:`_merge`): terms of one (p, nu) group
summed, none with a zero coefficient.  A result whose terms can share a group
(construction, sums, products, derivatives, antiderivatives) is merged once;
negation, scaling, low-pass masking and the commutator lift map merged terms
to merged terms, so they only drop coefficients that became exactly zero.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .linalg import superop

__all__ = [
    "FREQUENCY_MERGE_TOL",
    "FourierTerm",
    "FourierOperator",
    "fourier_sum",
    "lowpass_average",
    "commutator",
]

# Sorted neighbouring frequencies this close merge into one term, so float
# drift in products of near-resonant factors does not grow the term count.
FREQUENCY_MERGE_TOL = 1e-12


class FourierTerm(NamedTuple):
    coeff: np.ndarray
    nu: float
    p: int


def _merge(coeffs, nus, ps):
    """Sorted, grouped (coeffs, nus, ps) arrays of the sum of the given terms.

    ``|nu| <= FREQUENCY_MERGE_TOL`` snaps to 0.0.  Terms are stably sorted
    by (p, nu); a term starts a new group when p changes or nu exceeds the
    previous term's by more than the tolerance.  A group keeps its first nu
    and sums its coefficients in sorted order (``np.add.at``; ``reduceat``
    does not add in order); when every term starts its own group there is
    nothing to sum.  Groups that sum to exact zero are left for
    :func:`_nonzero` to drop.  The result merges to itself bit for bit:
    its groups start more than the tolerance apart and no nu is -0.0, and
    that stays so for any subset of its terms in the same order.
    """
    nus = np.where(np.abs(nus) <= FREQUENCY_MERGE_TOL, 0.0, nus)
    order = np.lexsort((nus, ps))
    coeffs, nus, ps = coeffs[order], nus[order], ps[order]
    start = np.ones(len(nus), dtype=bool)
    start[1:] = (ps[1:] != ps[:-1]) | (nus[1:] - nus[:-1] > FREQUENCY_MERGE_TOL)
    if start.all():
        return coeffs, nus, ps
    sums = coeffs[start]
    np.add.at(sums, np.cumsum(start)[~start] - 1, coeffs[~start])
    return sums, nus[start], ps[start]


def _nonzero(coeffs, nus, ps):
    """The terms whose coefficient is not exactly zero; coefficients read-only."""
    keep = coeffs.any(axis=(1, 2))
    if not keep.all():
        coeffs, nus, ps = coeffs[keep], nus[keep], ps[keep]
    coeffs.setflags(write=False)
    return coeffs, nus, ps


def _operator(dim, coeffs, nus, ps):
    """Operator of terms in merged order, less any whose coefficient is exactly zero."""
    op = object.__new__(FourierOperator)
    op.dim = dim
    op._coeffs, op._nus, op._ps = _nonzero(coeffs, nus, ps)
    return op


def _concat(dim, *parts):
    """Operator of the merged terms of every (coeffs, nus, ps) part."""
    return _operator(dim, *_merge(*(np.concatenate(arrays) for arrays in zip(*parts))))


class FourierOperator:
    """Finite sum of (matrix) * t**p * exp(i nu t) terms.

    Immutable; held as (p, nu)-sorted arrays of coefficients ``(n, dim, dim)``,
    frequencies ``(n,)`` and degrees ``(n,)``, merged by :func:`_merge`.
    """

    __slots__ = ("dim", "_coeffs", "_nus", "_ps")

    def __init__(self, dim: int, terms: Iterable = ()):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        terms = list(terms)
        coeffs = np.zeros((len(terms), self.dim, self.dim), dtype=complex)
        nus, ps = np.zeros(len(terms)), np.zeros(len(terms), dtype=np.int64)
        for k, (coeff, nu, p) in enumerate(terms):
            c = np.asarray(coeff, dtype=complex)
            if c.shape != (self.dim, self.dim):
                raise ValueError(f"coefficient shape {c.shape} does not match dim {self.dim}")
            if int(p) < 0:
                raise ValueError("polynomial degree must be non-negative")
            coeffs[k], nus[k], ps[k] = c, float(nu), int(p)
        self._coeffs, self._nus, self._ps = _nonzero(*_merge(coeffs, nus, ps))

    @classmethod
    def constant(cls, op):
        """The sum whose one term is the square matrix ``op`` (none if it is zero)."""
        op = np.array(op, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1] or not op.size:
            raise ValueError(f"constant coefficient shape {op.shape} is not a nonempty square")
        return _operator(len(op), op[None], np.zeros(1), np.zeros(1, dtype=np.int64))

    @classmethod
    def identity(cls, dim):
        return cls.constant(np.eye(dim))

    @property
    def terms(self) -> tuple[FourierTerm, ...]:
        """The terms in (p, nu) order; coefficients are read-only views."""
        return tuple(map(FourierTerm, self._coeffs, self._nus.tolist(), self._ps.tolist()))

    def _require_same_dim(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, FourierOperator):
            return NotImplemented
        return fourier_sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, FourierOperator):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _operator(self.dim, -self._coeffs, self._nus, self._ps)

    def __mul__(self, scalar):
        if isinstance(scalar, FourierOperator):
            return NotImplemented
        return _operator(self.dim, complex(scalar) * self._coeffs, self._nus, self._ps)

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Pointwise operator product; frequencies and powers add."""
        if not isinstance(other, FourierOperator):
            return NotImplemented
        self._require_same_dim(other)
        coeffs = self._coeffs[:, None] @ other._coeffs[None, :]
        nus = self._nus[:, None] + other._nus[None, :]
        ps = self._ps[:, None] + other._ps[None, :]
        coeffs = coeffs.reshape(-1, self.dim, self.dim)
        return _operator(self.dim, *_merge(coeffs, nus.ravel(), ps.ravel()))

    def differentiate(self):
        c, nus, ps = self._coeffs, self._nus, self._ps
        osc, poly = nus != 0.0, ps > 0
        return _concat(self.dim, (1j * nus[osc, None, None] * c[osc], nus[osc], ps[osc]),
                       (ps[poly, None, None] * c[poly], nus[poly], ps[poly] - 1))

    def antiderivative(self):
        """Term-by-term antiderivative (integration constant zero): c t**p
        gives c t**(p+1)/(p+1), and for nu != 0 c t**p e^(i nu t) gives
        a_k c t**(p-k) e^(i nu t), k = 0..p, with a_0 = 1/(i nu) and
        a_k = -a_(k-1) (p-k+1)/(i nu); one :func:`_concat` part per power k."""
        c, nus, ps = self._coeffs, self._nus, self._ps
        osc = nus != 0.0
        parts = [(c[~osc] / (ps[~osc, None, None] + 1), nus[~osc], ps[~osc] + 1)]
        c, nus, ps = c[osc], nus[osc], ps[osc]
        coef = 1.0 / (1j * nus)
        for k in range(ps.max(initial=-1) + 1):
            parts.append((c * coef[:, None, None], nus, ps - k))
            live = ps > k
            c, nus, ps = c[live], nus[live], ps[live]
            # -(p-k)/(i nu) as i (p-k)/nu: numpy's complex quotient is not correctly rounded
            coef = coef[live] * (1j * ((ps - k) / nus))
        return _concat(self.dim, *parts)

    def evaluate(self, t) -> np.ndarray:
        """Value at time t, or the (len(t), dim, dim) stack at a 1-D array of times."""
        t = np.asarray(t, dtype=float)[..., None]
        weights = np.exp((1j * t) * self._nus) * (t ** self._ps)
        return np.einsum("...k,kij->...ij", weights, self._coeffs)

    def evaluate_real(self, t) -> np.ndarray:
        """Real part of :meth:`evaluate` at a 1-D array of times, in real arithmetic:
        the weights [cos nu t, sin nu t] * t**p times the stacked coefficient
        table [Re C; -Im C], one real matrix product."""
        t = np.asarray(t, dtype=float)[:, None]
        phases, powers = t * self._nus, t ** self._ps
        weights = np.concatenate((np.cos(phases) * powers, np.sin(phases) * powers), axis=1)
        table = np.concatenate((self._coeffs.real, -self._coeffs.imag))
        values = weights @ table.reshape(len(table), self.dim ** 2)
        return values.reshape(len(t), self.dim, self.dim)

    def norm_bound(self) -> float:
        """Sum of the coefficients' spectral norms: an upper bound on the
        spectral norm of the value at every real t.  Infinite when a term
        grows with t (p > 0) or a coefficient is not finite."""
        if (self._ps > 0).any() or not np.isfinite(self._coeffs).all():
            return np.inf
        return float(np.linalg.norm(self._coeffs, 2, axis=(1, 2)).sum())

    def max_abs(self) -> float:
        """Largest coefficient magnitude over all terms (0 for the zero sum)."""
        return float(np.abs(self._coeffs).max(initial=0.0))

    def __repr__(self):
        ts = ", ".join(f"(nu={nu:g}, p={p})" for nu, p in zip(self._nus, self._ps))
        return f"FourierOperator(dim={self.dim}, terms=[{ts}])"


def fourier_sum(operators) -> FourierOperator:
    """Sum of one or more same-dimension operators.  A sum merges all of its
    summands' terms at once, so it can differ from a left fold of ``+`` only
    where frequencies in different summands chain within FREQUENCY_MERGE_TOL."""
    first, *rest = operators
    for op in rest:
        first._require_same_dim(op)
    return _concat(first.dim, *((op._coeffs, op._nus, op._ps) for op in (first, *rest)))


def lowpass_average(f: FourierOperator, cutoff: float) -> FourierOperator:
    """Ideal low-pass average: delete terms with |nu| >= cutoff, keep the rest.

    ``math.inf`` is transparent (every component passes), which is what any
    unit-area kernel does to a constant.
    """
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    keep = np.abs(f._nus) < cutoff
    return _operator(f.dim, f._coeffs[keep], f._nus[keep], f._ps[keep])


def commutator(h: FourierOperator) -> FourierOperator:
    """Superoperator-valued sum of the map rho -> [h(t), rho].

    Lifted term by term in h's merged order; a term whose commutator is
    exactly zero is dropped.
    """
    one = np.eye(h.dim, dtype=complex)
    coeffs = superop(h._coeffs, one) - superop(one, h._coeffs)
    return _operator(h.dim * h.dim, coeffs, h._nus, h._ps)
