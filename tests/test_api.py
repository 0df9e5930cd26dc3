import importlib
import pkgutil
import types

import avgdyn

PAPER_API = {
    "forward_series", "generator_series", "inverse_series",
    "TimeGrid", "propagate_exact", "propagate_effective",
    "FourierOperator",
    "EffectiveGenerator", "HarmonicHamiltonian", "default_filter",
    "gellmann_basis",
    "RamanParams", "raman_coefficients", "integrate_bloch", "RotatingSolution",
    "purity_rate",
    "ScenarioError", "load_scenario", "scenario_from_dict", "run_scenario",
    "dft_resolution", "dominant_frequency", "lowpass_series",
}


def test_package_exports_exactly_the_paper_api():
    public = {name for name, value in vars(avgdyn).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == PAPER_API


def test_every_submodule_all_entry_resolves():
    for info in pkgutil.iter_modules(avgdyn.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"avgdyn.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"avgdyn.{info.name}.__all__ lists missing {name!r}"
