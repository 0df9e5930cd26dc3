"""Dense complex linear algebra for small operator spaces.

Operators are plain numpy arrays (hbar = 1 throughout, frequencies in
rad/time).  Superoperators are ``d**2 x d**2`` matrices acting on
column-stacked operators; the column-stacking convention is fixed
package-wide so superoperator matrices are directly comparable between
runs:

    vec(L @ rho @ R) == sandwich_superop(L, R) @ vec(rho)      (exact)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "commutator",
    "anticommutator",
    "dagger",
    "vectorize",
    "unvectorize",
    "sandwich_superop",
    "commutator_superop",
    "anticommutator_superop",
    "DensityReport",
    "validate_density",
    "require_density",
    "GellMannBasis",
    "gellmann_basis",
    "BLOCH_LABELS",
    "bloch_decompose",
    "bloch_compose",
]


def _as_square(a, name="operator", stack=False):
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _check_same_dim(a, b):
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def dagger(a):
    """Hermitian conjugate."""
    return np.asarray(a, dtype=complex).conj().T


def commutator(a, b):
    """AB - BA."""
    a, b = _as_square(a), _as_square(b)
    _check_same_dim(a, b)
    return a @ b - b @ a


def anticommutator(a, b):
    """AB + BA."""
    a, b = _as_square(a), _as_square(b)
    _check_same_dim(a, b)
    return a @ b + b @ a


def vectorize(a):
    """Column-stack an operator into a length d**2 vector."""
    return np.asarray(a, dtype=complex).reshape(-1, order="F")


def unvectorize(v):
    """Inverse of :func:`vectorize`."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return v.reshape((d, d), order="F")


def sandwich_superop(left, right):
    """Matrix of the map rho -> left @ rho @ right on column-stacked operators."""
    left, right = _as_square(left), _as_square(right)
    _check_same_dim(left, right)
    return np.kron(right.T, left)


def commutator_superop(h):
    """Matrix of rho -> [h, rho]; a (..., d, d) stack gives the stack of matrices."""
    h = _as_square(h, stack=True)
    eye = np.eye(h.shape[-1])
    return np.kron(eye, h) - np.kron(np.swapaxes(h, -1, -2), eye)


def anticommutator_superop(c):
    """Matrix of rho -> {c, rho}."""
    c = _as_square(c)
    eye = np.eye(c.shape[0])
    return np.kron(eye, c) + np.kron(c.T, eye)


@dataclass(frozen=True)
class DensityReport:
    """Measured violations of the density-matrix properties of one operator."""

    hermiticity_violation: float
    trace_violation: float
    min_eigenvalue: float
    tol_herm: float
    tol_pos: float

    @property
    def hermitian(self) -> bool:
        return self.hermiticity_violation <= self.tol_herm

    @property
    def unit_trace(self) -> bool:
        return self.trace_violation <= self.tol_herm

    @property
    def positive(self) -> bool:
        return self.min_eigenvalue >= -self.tol_pos

    @property
    def ok(self) -> bool:
        return self.hermitian and self.unit_trace and self.positive

    def failures(self) -> list[str]:
        out = []
        if not self.hermitian:
            out.append(f"hermiticity violated by {self.hermiticity_violation:.3e}")
        if not self.unit_trace:
            out.append(f"trace deviates from 1 by {self.trace_violation:.3e}")
        if not self.positive:
            out.append(f"minimum eigenvalue {self.min_eigenvalue:.3e}")
        return out


def validate_density(m, tol_herm=1e-12, tol_pos=1e-9) -> DensityReport:
    """Report hermiticity / unit-trace / positivity of ``m`` (never raises).

    Positivity is measured on the Hermitian part ``(m + m†)/2``.
    """
    m = _as_square(m, "density matrix")
    herm = float(np.abs(m - m.conj().T).max())
    trace = float(abs(m.trace() - 1.0))
    sym = (m + m.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    return DensityReport(herm, trace, min_eig, tol_herm, tol_pos)


def require_density(m, tol_herm=1e-12, tol_pos=1e-9):
    """Return ``m`` as a complex array, raising if it is not a density matrix."""
    m = _as_square(m, "density matrix")
    report = validate_density(m, tol_herm, tol_pos)
    if not report.ok:
        raise ValueError("not a density matrix: " + "; ".join(report.failures()))
    return m


def _ketbra(i, j):
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


BLOCH_LABELS = ("x", "y", "z", "w", "xa", "ya", "xb", "yb")


@dataclass(frozen=True)
class GellMannBasis:
    """The SU(3) basis used for three-level Bloch decompositions.

    ``x, y, z`` are the Pauli operators on the {1,2} subspace, ``w`` the
    traceless diagonal element, and the ``a``/``b`` elements couple levels
    1-3 and 2-3.  All non-identity elements are Hermitian, traceless and
    satisfy tr(G_i G_j) = 2 delta_ij.
    """

    identity: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w: np.ndarray
    xa: np.ndarray
    ya: np.ndarray
    xb: np.ndarray
    yb: np.ndarray

    def elements(self) -> tuple[np.ndarray, ...]:
        """The eight traceless elements, in Bloch-coefficient order."""
        return (self.x, self.y, self.z, self.w, self.xa, self.ya, self.xb, self.yb)


@lru_cache(maxsize=1)
def gellmann_basis() -> GellMannBasis:
    x = _ketbra(0, 1) + _ketbra(1, 0)
    y = -1j * (_ketbra(0, 1) - _ketbra(1, 0))
    z = _ketbra(0, 0) - _ketbra(1, 1)
    w = (_ketbra(0, 0) + _ketbra(1, 1) - 2 * _ketbra(2, 2)) / np.sqrt(3)
    xa = _ketbra(0, 2) + _ketbra(2, 0)
    ya = -1j * (_ketbra(0, 2) - _ketbra(2, 0))
    xb = _ketbra(1, 2) + _ketbra(2, 1)
    yb = -1j * (_ketbra(1, 2) - _ketbra(2, 1))
    mats = [np.eye(3, dtype=complex), x, y, z, w, xa, ya, xb, yb]
    for m in mats:
        m.flags.writeable = False
    return GellMannBasis(*mats)


def bloch_decompose(rho) -> np.ndarray:
    """Coefficients (r_x, r_y, r_z, r_w, r_xa, r_ya, r_xb, r_yb) of a 3x3 state,
    or of each state in a (..., 3, 3) stack.

    The identity carries the fixed coefficient 1/3 so that the expansion
    has unit trace; the remaining coefficients are tr(rho G)/tr(G^2).
    """
    rho = _as_square(rho, stack=True)
    if rho.shape[-2:] != (3, 3):
        raise ValueError(f"Bloch decomposition needs a 3x3 operator, got {rho.shape}")
    elements = np.stack(gellmann_basis().elements())
    return np.einsum("...ij,kji->...k", rho, elements).real / 2.0


def bloch_compose(coeffs) -> np.ndarray:
    """Reassemble I/3 + sum_k r_k G_k from eight Bloch coefficients."""
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
    if coeffs.size != 8:
        raise ValueError(f"expected 8 Bloch coefficients, got {coeffs.size}")
    basis = gellmann_basis()
    out = basis.identity / 3.0
    for c, g in zip(coeffs, basis.elements()):
        out = out + c * g
    return out
