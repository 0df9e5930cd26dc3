"""Scenario configuration, execution and CSV emission.

Configs are strict JSON (unknown keys rejected); trajectories are CSV
with a fixed column order at 17 significant digits, time-ascending,
UTF-8 with LF line endings, so repeated runs of the same config are
byte-identical and the files diff cleanly.

Matrix values in configs are nested lists whose entries are either real
numbers or two-element [re, im] pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .averaging import validity_ratio
from .dynamics import (RK4_STEP_LIMIT, TimeGrid, Trajectory, propagate_effective,
                       propagate_exact)
from .harmonic import EffectiveGenerator, HarmonicHamiltonian, default_filter
from .linalg import BLOCH_LABELS, bloch_decompose, validate_density
from .signals import MIN_SAMPLES, dominant_frequency, lowpass_series

__all__ = [
    "ScenarioError",
    "ScenarioConfig",
    "TrajectoryRecord",
    "RunResult",
    "load_scenario",
    "scenario_from_dict",
    "build_record",
    "emit_csv",
    "read_csv_columns",
    "read_csv",
    "run_scenario",
    "compare_trajectories",
]

KINDS = ("ac_stark", "raman", "custom_harmonic")

_COMMON_KEYS = {"kind", "t0", "t_max", "dt", "initial", "cutoff", "outputs"}
_KIND_KEYS = {
    "ac_stark": _COMMON_KEYS | {"b", "delta"},
    "raman": _COMMON_KEYS | {"Omega1", "Omega2", "omega1", "omega2"},
    "custom_harmonic": _COMMON_KEYS | {"h0", "terms"},
}
_OUTPUT_GROUPS = ("entries", "bloch", "purity", "min_eig")
# Values per block of CSV rows formatted and written at once: bounds the
# memory of writing a record independently of its length.
CSV_BLOCK_VALUES = 16 * 1024
# Largest estimate of the arrays a run holds, in bytes (2 GiB).  A run keeps
# one trajectory's states, their symmetrized copy and the two records, so a
# grid of n_samples needs n_samples * (2 * 16 * d**2 + 2 * 8 * c) bytes for
# c CSV columns; larger grids are rejected at validation.
MEMORY_BUDGET_BYTES = 2 * 1024**3


class ScenarioError(ValueError):
    """Invalid input: a config or a command-line argument; carries one message per violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matrix_from_json(value, problems, key):
    try:
        rows = []
        for row in value:
            out_row = []
            for entry in row:
                if _is_number(entry):
                    out_row.append(complex(entry))
                elif (isinstance(entry, list) and len(entry) == 2
                      and all(_is_number(part) for part in entry)):
                    out_row.append(complex(*entry))
                else:
                    raise TypeError
            rows.append(out_row)
        m = np.array(rows, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError
    except OverflowError:
        problems.append(f"{key}: integer entry too large for a float")
        return None
    except (TypeError, ValueError):
        problems.append(f"{key}: expected a square matrix of numbers or [re, im] pairs")
        return None
    if not np.all(np.isfinite(m)):
        problems.append(f"{key}: entries must be finite")
        return None
    return m


def _number(data, key, problems, default=None, required=True, positive=True):
    if key not in data:
        if required:
            problems.append(f"missing required key '{key}'")
        return default
    if not _is_number(data[key]):
        problems.append(f"{key}: expected a number, got {data[key]!r}")
        return default
    try:
        v = float(data[key])
    except OverflowError:
        problems.append(f"{key}: integer too large for a float")
        return default
    if not math.isfinite(v) or (positive and not v > 0):
        problems.append(f"{key}: must be a {'positive ' if positive else ''}finite number, got {v}")
        return default
    return v


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: a harmonic Hamiltonian's averaged model, a grid, an initial state."""

    kind: str
    generator: EffectiveGenerator
    grid: TimeGrid
    initial: np.ndarray
    cutoff: float | None
    outputs: tuple[str, ...]
    params: dict = field(default_factory=dict)

    @property
    def hamiltonian(self) -> HarmonicHamiltonian:
        return self.generator.hamiltonian

    def averaging_filter(self) -> float:
        """The averaging cutoff: the configured one, else the default."""
        if self.cutoff is not None:
            return self.cutoff
        return default_filter(self.hamiltonian)

    def compares(self) -> bool:
        """Whether a run compares the exact and averaged trajectories."""
        return (math.isfinite(self.averaging_filter())
                and "entries" in self.outputs and self.hamiltonian.dim >= 2)


_DEFAULT_INITIALS = {
    # equal populations with Re rho_12 = 0.5 (documented default, not forced)
    "ac_stark": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "raman": np.array(
        [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]], dtype=complex
    ),
}


def scenario_from_dict(data: dict) -> ScenarioConfig:
    problems: list[str] = []
    if not isinstance(data, dict):
        raise ScenarioError(["config root must be a JSON object"])
    kind = data.get("kind")
    if kind not in KINDS:
        raise ScenarioError([f"kind must be one of {KINDS}, got {kind!r}"])
    unknown = set(data) - _KIND_KEYS[kind]
    for key in sorted(unknown):
        problems.append(f"unknown key '{key}' for kind '{kind}'")

    t0 = _number(data, "t0", problems, default=0.0, required=False, positive=False)
    t_max = _number(data, "t_max", problems)
    dt = _number(data, "dt", problems)
    cutoff = _number(data, "cutoff", problems, required=False)

    outputs = data.get("outputs", list(_OUTPUT_GROUPS))
    if not isinstance(outputs, list) or not all(o in _OUTPUT_GROUPS for o in outputs):
        problems.append(f"outputs: must be a list drawn from {_OUTPUT_GROUPS}")
        outputs = list(_OUTPUT_GROUPS)

    params: dict = {}
    drives = None  # (h0, ((h_n, w_n), ...)) once the kind's keys parse
    if kind == "ac_stark":
        # built in units of delta, so the dynamics depend on b alone and
        # delta only labels the run
        b = _number(data, "b", problems)
        delta = _number(data, "delta", problems, default=1.0, required=False)
        if b is not None:
            omega_rabi = b * delta
            if not math.isfinite(omega_rabi):
                problems.append(f"b * delta: must be finite, got {omega_rabi}")
            else:
                h = np.zeros((2, 2), dtype=complex)
                h[1, 0] = b / 2.0
                drives = (np.zeros((2, 2)), ((h, 1.0),))
                params = {"b": b, "delta": delta, "Omega": omega_rabi}
    elif kind == "raman":
        o1 = _number(data, "Omega1", problems)
        o2 = _number(data, "Omega2", problems)
        w1 = _number(data, "omega1", problems)
        w2 = _number(data, "omega2", problems)
        if None not in (o1, o2, w1, w2):
            h1 = np.zeros((3, 3), dtype=complex)
            h1[2, 0] = o1 / 2.0
            h2 = np.zeros((3, 3), dtype=complex)
            h2[2, 1] = o2 / 2.0
            drives = (np.zeros((3, 3)), ((h1, w1), (h2, w2)))
            params = {"Omega1": o1, "Omega2": o2, "omega1": w1, "omega2": w2}
    else:
        h0 = None
        if "h0" not in data:
            problems.append("missing required key 'h0'")
        else:
            h0 = _matrix_from_json(data["h0"], problems, "h0")
        terms = []
        raw_terms = data.get("terms")
        if not isinstance(raw_terms, list):
            problems.append("missing or malformed key 'terms' (list of {h, omega})")
            raw_terms = []
        for i, entry in enumerate(raw_terms):
            if not isinstance(entry, dict) or set(entry) != {"h", "omega"}:
                problems.append(f"terms[{i}]: expected an object with keys 'h', 'omega'")
                continue
            h = _matrix_from_json(entry["h"], problems, f"terms[{i}].h")
            w = _number(entry, "omega", problems)
            if h is not None and w is not None:
                terms.append((h, w))
        if h0 is not None:
            drives = (h0, tuple(terms))

    hamiltonian = generator = None
    if drives is not None:
        try:
            hamiltonian = HarmonicHamiltonian(*drives)
            generator = EffectiveGenerator(hamiltonian)  # rejects drives whose products overflow
        except ValueError as exc:
            problems.append(str(exc))

    grid = None
    if t_max is not None and dt is not None:
        try:
            grid = TimeGrid(t0, t_max, dt)
        except ValueError as exc:
            problems.append(f"grid: {exc}")

    if grid is not None and generator is not None:
        # overflowing Liouvillians read as an infinite norm bound
        with np.errstate(over="ignore", invalid="ignore"):
            norms = {"exact": hamiltonian.liouvillian.norm_bound(),
                     "averaged": generator.liouvillian.norm_bound()}
        name = max(norms, key=norms.get)
        if not grid.dt * norms[name] <= RK4_STEP_LIMIT:
            problems.append(f"grid: dt * ||L|| = {grid.dt * norms[name]:.3g} for the {name} "
                            f"equation exceeds the RK4 stability limit {RK4_STEP_LIMIT:.3g}")
        need = (grid.n_steps + 1) * _bytes_per_sample(hamiltonian.dim, outputs)
        if need > MEMORY_BUDGET_BYTES:
            problems.append(f"grid: {grid.n_steps + 1} samples need {need} bytes of arrays, "
                            f"over the budget of {MEMORY_BUDGET_BYTES}")

    initial = None
    if "initial" in data:
        initial = _matrix_from_json(data["initial"], problems, "initial")
    elif kind in _DEFAULT_INITIALS:
        initial = _DEFAULT_INITIALS[kind].copy()
    else:
        problems.append("missing required key 'initial' for custom_harmonic")

    if initial is not None:
        for failure in validate_density(initial):
            problems.append(f"initial: {failure}")
        if hamiltonian is not None and initial.shape[0] != hamiltonian.dim:
            problems.append(
                f"initial: dimension {initial.shape[0]} does not match "
                f"Hamiltonian dimension {hamiltonian.dim}"
            )

    if problems:
        raise ScenarioError(problems)
    cfg = ScenarioConfig(
        kind=kind,
        generator=generator,
        grid=grid,
        initial=initial,
        cutoff=cutoff,
        outputs=tuple(outputs),
        params=params,
    )
    n_samples = grid.n_steps + 1
    if cfg.compares() and n_samples < MIN_SAMPLES:
        raise ScenarioError([f"grid: {n_samples} samples, but comparing the "
                             f"trajectories needs at least {MIN_SAMPLES}"])
    return cfg


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a JSON scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except ValueError as exc:
        # an integer literal longer than the interpreter's int-string limit
        raise ScenarioError([f"JSON parse error: {exc}"]) from exc
    return scenario_from_dict(data)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Column-labelled numeric table for one trajectory."""

    columns: tuple[str, ...]
    data: np.ndarray  # (n_rows, n_cols), float

    def column(self, name) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no column {name!r}; have {self.columns}")
        return self.data[:, self.columns.index(name)]

    @property
    def times(self) -> np.ndarray:
        return self.column("t")


def _bytes_per_sample(d, outputs) -> int:
    """Bytes a run holds per grid sample: one trajectory's complex states and
    their symmetrized copy, and the two records' float rows."""
    columns = (1 + d * d * ("entries" in outputs) + 8 * ("bloch" in outputs and d == 3)
               + ("purity" in outputs) + ("min_eig" in outputs))
    return 2 * 16 * d * d + 2 * 8 * columns


def build_record(traj: Trajectory, outputs=_OUTPUT_GROUPS) -> TrajectoryRecord:
    """Tabulate a trajectory: time, upper-triangle state entries, Bloch
    components (3-level systems), purity, minimum eigenvalue."""
    d = traj.dim
    columns = ["t"]
    series = [traj.times]
    if "entries" in outputs:
        for i in range(d):
            columns.append(f"rho{i + 1}{i + 1}_re")
            series.append(traj.entry(i, i).real)
        for i in range(d):
            for j in range(i + 1, d):
                columns.append(f"rho{i + 1}{j + 1}_re")
                series.append(traj.entry(i, j).real)
                columns.append(f"rho{i + 1}{j + 1}_im")
                series.append(traj.entry(i, j).imag)
    if "bloch" in outputs and d == 3:
        coeffs = bloch_decompose(traj.states)
        for k, label in enumerate(BLOCH_LABELS):
            columns.append(f"bloch_{label}")
            series.append(coeffs[:, k])
    if "purity" in outputs:
        columns.append("purity")
        series.append(traj.purity)
    if "min_eig" in outputs:
        columns.append("min_eig")
        series.append(traj.min_eigenvalues)
    return TrajectoryRecord(tuple(columns), np.column_stack(series))


def emit_csv(record: TrajectoryRecord, path) -> None:
    """Write a record as CSV, 17 significant digits, LF line endings.

    The rows are formatted and written one block of at most
    CSV_BLOCK_VALUES values at a time.
    """
    n_columns = len(record.columns)
    rows = max(1, CSV_BLOCK_VALUES // n_columns)
    row_format = ",".join(["%.17g"] * n_columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(record.columns) + "\n")
        for start in range(0, len(record.data), rows):
            block = record.data[start:start + rows]
            f.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def read_csv_columns(path) -> tuple[str, ...]:
    """Column names of a CSV produced by :func:`emit_csv`, from its header line alone."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
    if not header:
        raise ValueError(f"{path}: empty CSV")
    return tuple(header.split(","))


def read_csv(path) -> TrajectoryRecord:
    """Read back a CSV produced by :func:`emit_csv`."""
    columns = read_csv_columns(path)
    with open(path, encoding="utf-8") as f:
        f.readline()
        start = f.tell()
        while (line := f.readline()) and not line.strip():
            start = f.tell()
        if not line:
            # no data rows: loadtxt would warn rather than return them
            return TrajectoryRecord(columns, np.empty((0, len(columns))))
        f.seek(start)
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    if data.shape[1] != len(columns):
        raise ValueError(f"{path}: ragged CSV")
    return TrajectoryRecord(columns, data)


def compare_trajectories(a: TrajectoryRecord, b: TrajectoryRecord, cutoff,
                         column: str = "rho12_re") -> dict:
    """Frequency/amplitude/deviation metrics for one observable.

    Both series pass through the same ideal low-pass (an in-band averaged
    trajectory is unchanged by it), which makes the metrics of identical
    inputs exactly zero.  The filter kernel is non-causal, so one kernel
    width (2*pi/cutoff) at each end of the window, where the average is
    not evaluable, is excluded from the metrics.
    """
    ta, tb = a.times, b.times
    if ta.shape != tb.shape or not np.array_equal(ta, tb):
        raise ValueError("trajectories are on different grids")
    if ta.size < MIN_SAMPLES:
        raise ValueError(f"trajectories have {ta.size} samples, comparing them "
                         f"needs at least {MIN_SAMPLES}")
    dt = float(ta[1] - ta[0])
    if not dt > 0:
        raise ValueError(f"time step must be positive, got {dt:g}")
    xa = lowpass_series(a.column(column), dt, cutoff)
    xb = lowpass_series(b.column(column), dt, cutoff)
    n = xa.size
    margin = int(round(2.0 * np.pi / (cutoff * dt)))
    margin = max(0, min(margin, (n - MIN_SAMPLES) // 2))
    xa = xa[margin:n - margin]
    xb = xb[margin:n - margin]
    freq_a = dominant_frequency(xa, dt)
    freq_b = dominant_frequency(xb, dt)
    amp_a = (xa.max() - xa.min()) / 2.0
    amp_b = (xb.max() - xb.min()) / 2.0
    return {
        "column": column,
        "cutoff": float(cutoff),
        "frequency_a": freq_a,
        "frequency_b": freq_b,
        "frequency_difference": freq_a - freq_b,
        "amplitude_a": float(amp_a),
        "amplitude_b": float(amp_b),
        "amplitude_ratio": float(amp_a / amp_b) if amp_b != 0 else math.inf,
        "max_deviation": float(np.abs(xa - xb).max()),
    }


@dataclass(frozen=True)
class RunResult:
    exact: TrajectoryRecord
    effective: TrajectoryRecord
    report: dict


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Propagate the exact and averaged dynamics on the same grid and
    compare them.

    The truncation sufficiency condition (validity ratio < 1) is checked
    up front; a violating scenario still runs, flagged in the report.  One
    trajectory is alive at a time: each is reduced to its report
    diagnostics and its record before the next one is propagated.
    """
    ratio = validity_ratio(cfg.hamiltonian)
    cutoff = cfg.averaging_filter()
    report = {
        "kind": cfg.kind,
        "params": cfg.params,
        "validity_ratio": ratio,
        "validity_ok": bool(ratio < 1.0),
        "cutoff": cutoff if math.isfinite(cutoff) else None,
    }
    records = []
    for label, propagate, model in (("exact", propagate_exact, cfg.hamiltonian),
                                    ("effective", propagate_effective, cfg.generator)):
        traj = propagate(model, cfg.initial, cfg.grid)
        report[f"purity_drift_{label}"] = _purity_drift(traj)
        report[f"min_eigenvalue_{label}"] = float(traj.min_eigenvalues.min())
        records.append(build_record(traj, cfg.outputs))
        del traj
    rec_exact, rec_eff = records
    if cfg.compares():
        report["comparison"] = compare_trajectories(rec_exact, rec_eff, cutoff)
    return RunResult(rec_exact, rec_eff, report)


def _purity_drift(traj: Trajectory) -> float:
    purity = traj.purity
    return float(np.abs(purity - purity[0]).max())
