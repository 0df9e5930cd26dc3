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
from .dynamics import TimeGrid, Trajectory, propagate_effective, propagate_exact
from .fourier import AveragingFilter
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


class ScenarioError(ValueError):
    """Invalid scenario configuration; carries one message per violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _matrix_from_json(value, problems, key):
    try:
        rows = []
        for row in value:
            out_row = []
            for entry in row:
                if isinstance(entry, (list, tuple)):
                    re_part, im_part = entry
                    out_row.append(complex(re_part, im_part))
                else:
                    out_row.append(complex(entry))
            rows.append(out_row)
        m = np.array(rows, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError
        return m
    except (TypeError, ValueError, IndexError):
        problems.append(f"{key}: expected a square matrix of numbers or [re, im] pairs")
        return None


def _number(data, key, problems, default=None, required=True, positive=True):
    if key not in data:
        if required:
            problems.append(f"missing required key '{key}'")
        return default
    try:
        v = float(data[key])
    except (TypeError, ValueError):
        problems.append(f"{key}: expected a number, got {data[key]!r}")
        return default
    if not math.isfinite(v) or (positive and not v > 0):
        problems.append(f"{key}: must be a {'positive ' if positive else ''}finite number, got {v}")
        return default
    return v


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: a harmonic Hamiltonian, a grid, an initial state."""

    kind: str
    hamiltonian: HarmonicHamiltonian
    grid: TimeGrid
    initial: np.ndarray
    cutoff: float | None
    outputs: tuple[str, ...]
    time_scale: float
    params: dict = field(default_factory=dict)

    def averaging_filter(self) -> AveragingFilter:
        if self.cutoff is not None:
            return AveragingFilter(self.cutoff)
        return default_filter(self.hamiltonian)

    def compares(self) -> bool:
        """Whether a run compares the exact and averaged trajectories."""
        return (math.isfinite(self.averaging_filter().cutoff)
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
    hamiltonian = None
    time_scale = 1.0
    if kind == "ac_stark":
        b = _number(data, "b", problems)
        delta = _number(data, "delta", problems, default=1.0, required=False)
        if delta is None:
            delta = 1.0
        if b is not None:
            omega_rabi = b * delta
            h = np.zeros((2, 2), dtype=complex)
            h[1, 0] = omega_rabi / 2.0
            hamiltonian = HarmonicHamiltonian(np.zeros((2, 2)), ((h, delta),))
            params = {"b": b, "delta": delta, "Omega": omega_rabi}
            time_scale = delta
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
            hamiltonian = HarmonicHamiltonian(np.zeros((3, 3)), ((h1, w1), (h2, w2)))
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
            try:
                hamiltonian = HarmonicHamiltonian(h0, tuple(terms))
            except ValueError as exc:
                problems.append(str(exc))

    grid = None
    if t_max is not None and dt is not None:
        try:
            # grid values are in reported time units (1/delta for ac_stark)
            grid = TimeGrid(t0 / time_scale, t_max / time_scale, dt / time_scale)
        except ValueError as exc:
            problems.append(f"grid: {exc}")

    initial = None
    if "initial" in data:
        initial = _matrix_from_json(data["initial"], problems, "initial")
    elif kind in _DEFAULT_INITIALS:
        initial = _DEFAULT_INITIALS[kind].copy()
    else:
        problems.append("missing required key 'initial' for custom_harmonic")

    if initial is not None:
        report = validate_density(initial)
        for failure in report.failures():
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
        hamiltonian=hamiltonian,
        grid=grid,
        initial=initial,
        cutoff=cutoff,
        outputs=tuple(outputs),
        time_scale=time_scale,
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
    return scenario_from_dict(data)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Column-labelled numeric table for one trajectory."""

    columns: tuple[str, ...]
    data: np.ndarray  # (n_rows, n_cols), float

    def column(self, name) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; have {self.columns}") from None
        return self.data[:, idx]

    @property
    def times(self) -> np.ndarray:
        return self.column("t")


def build_record(traj: Trajectory, time_scale: float = 1.0,
                 outputs=_OUTPUT_GROUPS) -> TrajectoryRecord:
    """Tabulate a trajectory: time, upper-triangle state entries, Bloch
    components (3-level systems), purity, minimum eigenvalue."""
    d = traj.dim
    columns = ["t"]
    series = [traj.times * time_scale]
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
        series.append(traj.purity())
    if "min_eig" in outputs:
        columns.append("min_eig")
        series.append(traj.min_eigenvalues())
    return TrajectoryRecord(tuple(columns), np.column_stack(series))


def emit_csv(record: TrajectoryRecord, path) -> None:
    """Write a record as CSV, 17 significant digits, LF line endings."""
    lines = [",".join(record.columns)]
    for row in record.data:
        lines.append(",".join(format(v, ".17g") for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv(path) -> TrajectoryRecord:
    """Read back a CSV produced by :func:`emit_csv`."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    columns = tuple(lines[0].split(","))
    data = np.array(
        [[float(v) for v in line.split(",")] for line in lines[1:] if line],
        dtype=float,
    )
    if data.size and data.shape[1] != len(columns):
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
    dt = float(ta[1] - ta[0])
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
    up front; a violating scenario still runs, flagged in the report.
    """
    ratio = validity_ratio(cfg.hamiltonian)
    filt = cfg.averaging_filter()
    traj_exact = propagate_exact(cfg.hamiltonian.as_fourier(), cfg.initial, cfg.grid)
    generator = EffectiveGenerator(cfg.hamiltonian)
    traj_eff = propagate_effective(generator, cfg.initial, cfg.grid)
    rec_exact = build_record(traj_exact, cfg.time_scale, cfg.outputs)
    rec_eff = build_record(traj_eff, cfg.time_scale, cfg.outputs)

    report = {
        "kind": cfg.kind,
        "params": cfg.params,
        "validity_ratio": ratio,
        "validity_ok": bool(ratio < 1.0),
        "cutoff": filt.cutoff if math.isfinite(filt.cutoff) else None,
        "purity_drift_exact": _purity_drift(traj_exact),
        "purity_drift_effective": _purity_drift(traj_eff),
        "min_eigenvalue_exact": float(traj_exact.min_eigenvalues().min()),
        "min_eigenvalue_effective": float(traj_eff.min_eigenvalues().min()),
    }
    if cfg.compares():
        # cutoff in reported time units, matching the CSV t column
        metrics = compare_trajectories(
            rec_exact, rec_eff, filt.cutoff / cfg.time_scale
        )
        report["comparison"] = metrics
    return RunResult(rec_exact, rec_eff, report)


def _purity_drift(traj: Trajectory) -> float:
    purity = traj.purity()
    return float(np.abs(purity - purity[0]).max())
