"""Dyson expansion and the superoperator series of time-averaged evolution.

Expanding the evolution operator in powers of the drive (U = sum_n U_n,
with i dU_n/dt = H U_{n-1} and U_0 = I) and averaging each sandwich
U_{k-j} rho U_j† with an ideal low-pass kernel gives the forward maps
from the initial state to the averaged state, order by order.  Inverting
that series and differentiating in time yields the generators of the
averaged state's equation of motion:

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

from .fourier import FourierOperator, fourier_sum, lowpass_average, sandwich
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
    """Dyson terms U_1 .. U_order for the given Hamiltonian, from time t0.

    Each term solves i dU_n/dt = H U_{n-1} with U_n(t0) = 0, integrated
    analytically on the t**p * exp(i nu t) factors.  The Hamiltonian must
    be trigonometric (no polynomial-in-t terms).
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

    dim: int
    maps: tuple[FourierOperator, ...]

    def apply(self, k, rho, t) -> np.ndarray:
        """Apply the order-k map to an operator at time t."""
        return unvectorize(self.maps[k].evaluate(t) @ vectorize(rho))


def forward_series(hamiltonian, cutoff: float, t0, order) -> SuperoperatorSeries:
    """Maps sending the initial state to the averaged state, order by order.

    Order k is sum_{j=0..k} avg(U_{k-j} rho U_j†), with the ideal low-pass
    at ``cutoff`` applied to the full Fourier expansion of each sandwich.
    Order 0 is the identity map.
    """
    us = [FourierOperator.identity(hamiltonian.dim), *dyson_terms(hamiltonian, t0, order)]
    uds = [u.dagger() for u in us]
    maps = tuple(fourier_sum(lowpass_average(sandwich(us[k - j], uds[j]), cutoff)
                             for j in range(k + 1)) for k in range(order + 1))
    return SuperoperatorSeries(hamiltonian.dim, maps)


def inverse_series(forward: SuperoperatorSeries) -> SuperoperatorSeries:
    """Series inverse of the forward maps: composed order by order they
    give the identity at order 0 and zero at every higher order."""
    ident = FourierOperator.identity(forward.dim ** 2)
    if (forward.maps[0] - ident).max_abs() > 1e-12:
        raise ValueError("order-0 forward map must be the identity")
    maps = [ident]
    for n in range(1, len(forward.maps)):
        maps.append(-fourier_sum(maps[j] @ forward.maps[n - j] for j in range(n)))
    return SuperoperatorSeries(forward.dim, tuple(maps))


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
    return SuperoperatorSeries(hamiltonian.dim, maps)


def validity_ratio(hamiltonian: HarmonicHamiltonian) -> float:
    """Largest instantaneous spectral radius of H(t) over the smallest drive
    frequency.  Much less than 1 means truncating the generator series at
    second order is safe; 0 by convention when there is no drive.
    """
    if not hamiltonian.terms:
        return 0.0
    w_min = min(w for _, w in hamiltonian.terms)
    ts = np.linspace(0.0, 2 * np.pi / w_min, VALIDITY_SAMPLES, endpoint=False)
    h = hamiltonian.as_fourier().evaluate(ts)
    h = (h + h.conj().transpose(0, 2, 1)) / 2.0
    return float(np.abs(np.linalg.eigvalsh(h)).max()) / w_min
