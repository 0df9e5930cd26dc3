"""avgdyn: time-averaged density-matrix dynamics for harmonically driven systems.

The package namespace holds the paper's pipeline: the series engine, the
harmonic Hamiltonian and its closed-form averaged generator, exact and
averaged propagation, the Raman Bloch closed form, the scenario entry
points and the spectral helpers that compare trajectories.  Everything
else is imported from the module that defines it.
"""

from .averaging import forward_series, generator_series, inverse_series
from .dynamics import TimeGrid, propagate_effective, propagate_exact
from .fourier import FourierOperator
from .harmonic import EffectiveGenerator, HarmonicHamiltonian, default_filter
from .linalg import gellmann_basis
from .raman import (
    RamanParams,
    RotatingSolution,
    integrate_bloch,
    purity_rate,
    raman_coefficients,
)
from .scenarios import ScenarioError, load_scenario, run_scenario, scenario_from_dict
from .signals import dft_resolution, dominant_frequency, lowpass_series

__version__ = "0.1.0"
