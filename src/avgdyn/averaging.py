"""Dyson expansion and the superoperator series of time-averaged evolution.

The evolution map rho0 -> rho(t) = U rho0 U† is expanded in powers of the
drive by the Dyson recursion on the lifted generator,
i d𝒰_n/dt = [H, 𝒰_{n-1}(·)] with 𝒰_0 the identity.  In the operator Dyson
terms U_n of H (i dU_n/dt = H U_{n-1}) this is

    𝒰_k[rho] = sum_j U_{k-j} rho U_j†,

the products the paper averages.  Averaging each 𝒰_k with an ideal
low-pass kernel gives the forward maps from the initial state to the
averaged state, order by order.  Inverting that series and differentiating
in time yields the generators of the averaged state's equation of motion:

    i d(rho_avg)/dt = sum_k  L_k[rho_avg]

Closed forms exist through third order, so higher orders are rejected
rather than extrapolated.  Each generator annihilates the trace and maps
Hermitian inputs to i*(Hermitian), and every averaged product it contains
is paired with minus the product of the averages, so a transparent filter
collapses all generators above first order to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import FourierOperator, commutator, fourier_sum, lowpass_average
from .harmonic import HarmonicHamiltonian
from .linalg import unvectorize, vectorize

__all__ = [
    "MAX_ORDER",
    "dyson_terms",
    "SuperoperatorSeries",
    "forward_series",
    "inverse_series",
    "generator_series",
    "validity_ratio",
]

MAX_ORDER = 3
# Samples of H(t) over one period of the slowest drive in validity_ratio
VALIDITY_SAMPLES = 512


def dyson_terms(hamiltonian: FourierOperator, t0, order) -> list[FourierOperator]:
    """Dyson terms U_1 .. U_order of the generator H, from time t0.

    Each term solves i dU_n/dt = H U_{n-1} with U_n(t0) = 0, integrated
    analytically on the t**p * exp(i nu t) factors.  H is a Hamiltonian,
    or its lift to superoperators; it must be trigonometric (no
    polynomial-in-t terms).
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError(f"order must be an integer, got {order!r}")
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"order must be between 0 and {MAX_ORDER}, got {order}")
    for _, _, p in hamiltonian.terms:
        if p > 0:
            raise ValueError("Hamiltonian terms with polynomial time dependence "
                             "are not supported (trigonometric terms only)")
    us = [FourierOperator.identity(hamiltonian.dim)]
    for _ in range(order):
        g = (hamiltonian @ us[-1]).antiderivative()
        us.append((g - FourierOperator.constant(g.evaluate(t0))) * (-1j))
    return us[1:]


@dataclass(frozen=True)
class SuperoperatorSeries:
    """Per-order superoperator-valued Fourier sums acting on vectorized states."""

    maps: tuple[FourierOperator, ...]

    def apply(self, k, rho, t) -> np.ndarray:
        """Apply the order-k map to an operator at time t."""
        return unvectorize(self.maps[k].evaluate(t) @ vectorize(rho))


def forward_series(hamiltonian, cutoff: float, t0, order) -> SuperoperatorSeries:
    """Maps sending the initial state to the averaged state, order by order.

    Order k is avg(𝒰_k): the ideal low-pass at ``cutoff`` applied to the
    k-th Dyson term of the lifted generator, which solves
    i d𝒰_n/dt = [H, 𝒰_{n-1}(·)] with 𝒰_n(t0) = 0.  Order 0 is the
    identity map.
    """
    us = [FourierOperator.identity(hamiltonian.dim ** 2),
          *dyson_terms(commutator(hamiltonian), t0, order)]
    return SuperoperatorSeries(tuple(lowpass_average(u, cutoff) for u in us))


def inverse_series(forward: SuperoperatorSeries) -> SuperoperatorSeries:
    """Series inverse of the forward maps: composed order by order they
    give the identity at order 0 and zero at every higher order."""
    ident = FourierOperator.identity(forward.maps[0].dim)
    if (forward.maps[0] - ident).max_abs() > 1e-12:
        raise ValueError("order-0 forward map must be the identity")
    maps = [ident]
    for n in range(1, len(forward.maps)):
        maps.append(-fourier_sum(maps[j] @ forward.maps[n - j] for j in range(n)))
    return SuperoperatorSeries(tuple(maps))


def generator_series(hamiltonian, cutoff: float, t0, order) -> SuperoperatorSeries:
    """Generators L_k of i d(rho_avg)/dt = sum_k L_k[rho_avg].

    L_k = sum_j i * (d/dt forward_{k-j}) o inverse_j, with the time
    derivative taken analytically on the Fourier terms.  L_0 = 0 and
    L_1[rho] = [H_avg, rho].
    """
    fwd = forward_series(hamiltonian, cutoff, t0, order)
    inv = inverse_series(fwd)
    rates = [m.differentiate() for m in fwd.maps]
    maps = tuple(1j * fourier_sum(rates[k - j] @ inv.maps[j] for j in range(k + 1))
                 for k in range(order + 1))
    return SuperoperatorSeries(maps)


def validity_ratio(hamiltonian: HarmonicHamiltonian) -> float:
    """Largest instantaneous spectral radius of the traceless part
    H(t) - tr H(t)/d * 1 over the smallest drive frequency: a global energy
    offset moves no trajectory, so it does not move the ratio either.  Much
    less than 1 means truncating the generator series at second order is
    safe; 0 by convention when there is no drive.
    """
    if not hamiltonian.terms:
        return 0.0
    w_min = min(w for _, w in hamiltonian.terms)
    ts = np.linspace(0.0, 2 * np.pi / w_min, VALIDITY_SAMPLES, endpoint=False)
    h = hamiltonian.as_fourier().evaluate(ts)
    h = (h + h.conj().transpose(0, 2, 1)) / 2.0
    h -= np.trace(h, axis1=1, axis2=2)[:, None, None] / hamiltonian.dim * np.eye(hamiltonian.dim)
    return float(np.abs(np.linalg.eigvalsh(h)).max()) / w_min
