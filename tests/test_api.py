import importlib
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import avgdyn

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
SRC_DIR = BENCH_DIR.parent / "src"

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


def test_names_the_benchmark_reads_resolve(monkeypatch):
    # the benchmark rebinds and calls names no product path needs, such as
    # EffectiveGenerator.master_rhs and SuperoperatorSeries.apply: deleting
    # one fails here, not only in a benchmark run
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    with tracing.Tracer().installed(0):
        pass
    config = workloads.make_configs("series_derive", 1)[0]
    assert workloads.derive_reference(config, np.random.default_rng(0))["failures"] == []


def test_cli_imports_only_the_declared_dependencies():
    # pyproject.toml declares numpy alone, and a run's start-up is that import: a test or
    # scipy import reached from the package would fail where only numpy is installed
    code = (f"import sys; sys.path.insert(0, {str(SRC_DIR)!r}); import avgdyn.cli; "
            "print(sorted({'scipy', 'hypothesis', 'pytest'} & {m.split('.')[0] for m in sys.modules}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
