"""Dense complex linear algebra for small operator spaces.

Operators are plain numpy arrays (hbar = 1 throughout, frequencies in
rad/time).  Superoperators are ``d**2 x d**2`` matrices acting on
column-stacked operators; the column-stacking convention is fixed
package-wide so superoperator matrices are directly comparable between
runs:

    vec(L @ rho @ R) == kron(R.T, L) @ vec(rho)      (exact)
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "vectorize",
    "unvectorize",
    "upper_triangle", "hermitian_coordinates",
    "superop",
    "as_square",
    "hermiticity_defect",
    "validate_density",
    "gellmann_basis",
    "BLOCH_LABELS",
    "bloch_decompose",
]


def as_square(a, name="operator", stack=False):
    """``a`` as a complex array, checked to be a finite square matrix (a stack with ``stack``)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def vectorize(a):
    """Column-stack an operator into a length d**2 vector."""
    return np.asarray(a, dtype=complex).reshape(-1, order="F")


def unvectorize(v):
    """Inverse of :func:`vectorize`: the d x d operator of a length d**2
    vector, or the (..., d, d) stack of a (..., d**2) stack of vectors."""
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.shape[-1])))
    if d * d != v.shape[-1]:
        raise ValueError(f"vector length {v.shape[-1]} is not a perfect square")
    return np.swapaxes(v.reshape(v.shape[:-1] + (d, d)), -1, -2)


def upper_triangle(d) -> list[tuple[int, int]]:
    """The diagonal entries (i, i), then the off-diagonals (i, j > i) row by row."""
    return [(i, i) for i in range(d)] + [(i, j) for i in range(d) for j in range(i + 1, d)]


def hermitian_coordinates(d):
    """(to_vec, from_vec) with vec(rho) = to_vec @ x, x = from_vec @ vec(rho) for the
    real coordinates x of a Hermitian rho: rho_ii, then Re and Im rho_ij in
    :func:`upper_triangle` order.  Entries are 0, 1, ±i and 0, 1, 1/2, ±i/2: exact."""
    units = [(i, j, u) for i, j in upper_triangle(d) for u in ((1.0,) if i == j else (1.0, 1j))]
    to_vec = np.zeros((d * d, len(units)), dtype=complex)
    for k, (i, j, u) in enumerate(units):
        to_vec[[i + d * j, j + d * i], k] = u, np.conj(u)  # column-stacked, as vectorize
    return to_vec, to_vec.conj().T / (np.abs(to_vec) ** 2).sum(axis=0)[:, None]


def superop(left, right):
    """Matrix of rho -> left @ rho @ right, which is kron(right.T, left);
    (..., d, d) stacks broadcast to the (..., d**2, d**2) stack of matrices."""
    prod = np.swapaxes(right, -1, -2)[..., :, None, :, None] * left[..., None, :, None, :]
    d = left.shape[-1]
    return prod.reshape(prod.shape[:-4] + (d * d, d * d))


# Tolerances of a density matrix: Hermiticity and unit trace, and how far
# below zero its smallest eigenvalue may lie
DENSITY_TOL = 1e-12
POSITIVITY_TOL = 1e-9


def hermiticity_defect(m) -> float:
    """max|m - m†| as ``2 max|m/2 - m†/2|``: halved first, it is finite for finite ``m``."""
    return 2.0 * float(np.abs(m / 2.0 - m.conj().T / 2.0).max())


def validate_density(m) -> list[str]:
    """Violations of hermiticity / unit trace / positivity of ``m``, one
    message each; empty when ``m`` is a density matrix.

    Positivity is measured on the Hermitian part ``m/2 + m†/2``: halved
    first, it and the :func:`hermiticity_defect` are finite for finite ``m``.
    """
    m = as_square(m, "density matrix")
    herm = hermiticity_defect(m)
    trace = float(abs(m.trace() - 1.0))
    min_eig = float(np.linalg.eigvalsh(m / 2.0 + m.conj().T / 2.0)[0])
    out = []
    if herm > DENSITY_TOL:
        out.append(f"hermiticity violated by {herm:.3e}")
    if trace > DENSITY_TOL:
        out.append(f"trace deviates from 1 by {trace:.3e}")
    if min_eig < -POSITIVITY_TOL:
        out.append(f"minimum eigenvalue {min_eig:.3e}")
    return out


def _ketbra(i, j):
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


BLOCH_LABELS = ("x", "y", "z", "w", "xa", "ya", "xb", "yb")


@lru_cache(maxsize=1)
def gellmann_basis() -> np.ndarray:
    """The eight traceless SU(3) elements used for three-level Bloch
    decompositions, as a read-only (8, 3, 3) stack in BLOCH_LABELS order.

    ``x, y, z`` are the Pauli operators on the {1,2} subspace, ``w`` the
    traceless diagonal element, and the ``a``/``b`` elements couple levels
    1-3 and 2-3.  All are Hermitian and satisfy tr(G_i G_j) = 2 delta_ij.
    """
    x = _ketbra(0, 1) + _ketbra(1, 0)
    y = -1j * (_ketbra(0, 1) - _ketbra(1, 0))
    z = _ketbra(0, 0) - _ketbra(1, 1)
    w = (_ketbra(0, 0) + _ketbra(1, 1) - 2 * _ketbra(2, 2)) / np.sqrt(3)
    xa = _ketbra(0, 2) + _ketbra(2, 0)
    ya = -1j * (_ketbra(0, 2) - _ketbra(2, 0))
    xb = _ketbra(1, 2) + _ketbra(2, 1)
    yb = -1j * (_ketbra(1, 2) - _ketbra(2, 1))
    basis = np.stack([x, y, z, w, xa, ya, xb, yb])
    basis.flags.writeable = False
    return basis


def bloch_decompose(rho) -> np.ndarray:
    """Coefficients (r_x, r_y, r_z, r_w, r_xa, r_ya, r_xb, r_yb) of a 3x3 state,
    or of each state in a (..., 3, 3) stack.

    The identity carries the fixed coefficient 1/3 so that the expansion
    has unit trace; the remaining coefficients are tr(rho G)/tr(G^2).
    """
    rho = as_square(rho, stack=True)
    if rho.shape[-2:] != (3, 3):
        raise ValueError(f"Bloch decomposition needs a 3x3 operator, got {rho.shape}")
    return np.einsum("...ij,kji->...k", rho, gellmann_basis()).real / 2.0
