"""Scenario configuration, execution and CSV emission.

Configs are strict JSON (unknown keys rejected); trajectories are CSV
with a fixed column order at 17 significant digits, time-ascending,
UTF-8 with LF line endings, so repeated runs of the same config are
byte-identical and the files diff cleanly.  Each value is written as
``"%.17g" % v`` writes it.  Zeros and the values with 1e-4 <= |v| < 1e16,
which it writes in fixed notation, are formatted exactly in numpy
(:mod:`avgdyn._csvtext`); the others (exponent notation, nan, +-inf) by
``%`` itself.

Matrix values in configs are nested lists whose entries are either real
numbers or two-element [re, im] pairs.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._csvtext import format_rows
from .averaging import validity_ratio
from .dynamics import (MIN_STEP_ULPS, RK4_STEP_LIMIT, TRACE_TOL, TimeGrid, Trajectory,
                       propagate_effective, propagate_exact)
from .harmonic import EffectiveGenerator, HarmonicHamiltonian, default_filter
from .linalg import (BLOCH_LABELS, POSITIVITY_TOL, bloch_decompose, hermitian_coordinates,
                     unvectorize, upper_triangle, validate_density)
from .signals import MIN_SAMPLES, at_rounding_floor, dominant_frequency, lowpass_series

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

_COMMON_KEYS = {"kind", "t0", "t_max", "dt", "initial", "cutoff"}
_KIND_KEYS = {
    "ac_stark": _COMMON_KEYS | {"b", "delta"},
    "raman": _COMMON_KEYS | {"Omega1", "Omega2", "omega1", "omega2"},
    "custom_harmonic": _COMMON_KEYS | {"h0", "terms"},
}
KINDS = tuple(_KIND_KEYS)
# Values per block of CSV rows formatted and written at once: bounds the
# memory of writing a record independently of its length.
CSV_BLOCK_VALUES = 16 * 1024
# Largest estimate of the arrays a run holds, in bytes (2 GiB).  A run keeps one
# trajectory's real coordinates, the complex states its d != 2 minimum eigenvalue
# builds from them (8 + 16 bytes per entry, within 2 * 16) and the two records,
# so a grid of n_samples needs at most n_samples * (2 * 16 * d**2 + 2 * 8 * c)
# bytes for c CSV columns; larger grids are rejected at validation.  A 2-level
# run builds no complex states, so for it the estimate stays an upper bound.
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


def _number(data, key, problems, default=None, positive=True, prefix=""):
    """The number at ``data[key]``; a missing key is required unless it has a default."""
    if key not in data:
        if default is None:
            problems.append(f"missing required key '{key}'")
        return default
    value, key = data[key], prefix + key
    if not _is_number(value):
        problems.append(f"{key}: expected a number, got {value!r}")
        return default
    try:
        v = float(value)
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
        """Whether a run compares the exact and averaged trajectories: a
        finite averaging cutoff and a ``rho12`` coherence (d >= 2)."""
        return math.isfinite(self.averaging_filter()) and self.hamiltonian.dim >= 2


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Validate a parsed config, reporting every problem found in one ScenarioError."""
    problems: list[str] = []
    cfg = _check_config(data, problems)
    if problems:
        raise ScenarioError(problems)
    return cfg


def _check_config(data, problems) -> ScenarioConfig | None:
    """Build a config from parsed JSON, appending each violation to
    ``problems``; the config returned is valid only if none was appended."""
    if not isinstance(data, dict):
        problems.append("config root must be a JSON object")
        return None
    kind = data.get("kind")
    if kind not in KINDS:
        problems.append(f"kind must be one of {KINDS}, got {kind!r}")
        return None
    unknown = set(data) - _KIND_KEYS[kind]
    for key in sorted(unknown):
        problems.append(f"unknown key '{key}' for kind '{kind}'")

    t0 = _number(data, "t0", problems, default=0.0, positive=False)
    t_max = _number(data, "t_max", problems)
    dt = _number(data, "dt", problems)
    cutoff = _number(data, "cutoff", problems) if "cutoff" in data else None

    params: dict = {}
    drives = None  # (h0, ((h_n, w_n), ...)) once the kind's keys parse
    if kind == "ac_stark":
        # built in units of delta, so the dynamics depend on b alone and
        # delta only labels the run
        b = _number(data, "b", problems)
        delta = _number(data, "delta", problems, default=1.0)
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
            w = _number(entry, "omega", problems, prefix=f"terms[{i}].")
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
    if generator is not None and hamiltonian.terms:
        # the closed form averages with a filter that rejects every drive
        # frequency and passes every difference of two; the run's cutoff,
        # configured or default, must be one
        freqs = [w for _, w in hamiltonian.terms]
        used = default_filter(hamiltonian) if cutoff is None else cutoff
        if not (spread := max(freqs) - min(freqs)) < used <= min(freqs):
            name = f"{used:g}" if cutoff is not None else f"the default {used:g}"
            problems.append(f"cutoff: {name} is outside ({spread:g}, {min(freqs):g}]: it "
                            "must exceed every drive-frequency difference and be at most "
                            "the smallest drive frequency")

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
        need = (grid.n_steps + 1) * _bytes_per_sample(hamiltonian.dim)
        if need > MEMORY_BUDGET_BYTES:
            problems.append(f"grid: {grid.n_steps + 1} samples need {need} bytes of arrays, "
                            f"over the budget of {MEMORY_BUDGET_BYTES}")

    initial = None
    if "initial" in data:
        initial = _matrix_from_json(data["initial"], problems, "initial")
    elif kind == "custom_harmonic":
        problems.append("missing required key 'initial' for custom_harmonic")
    elif hamiltonian is not None:
        # documented default: equal populations of levels 1 and 2 with Re rho_12 = 0.5
        initial = np.zeros((hamiltonian.dim, hamiltonian.dim), dtype=complex)
        initial[:2, :2] = 0.5

    if initial is not None:
        for failure in validate_density(initial):
            problems.append(f"initial: {failure}")
        if hamiltonian is not None and initial.shape[0] != hamiltonian.dim:
            problems.append(
                f"initial: dimension {initial.shape[0]} does not match "
                f"Hamiltonian dimension {hamiltonian.dim}"
            )

    if grid is None or generator is None:
        return None
    cfg = ScenarioConfig(kind=kind, generator=generator, grid=grid, initial=initial,
                         cutoff=cutoff, params=params)
    n_samples = grid.n_steps + 1
    if cfg.compares() and n_samples < MIN_SAMPLES:
        problems.append(f"grid: {n_samples} samples, but comparing the "
                        f"trajectories needs at least {MIN_SAMPLES}")
    return cfg


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a JSON scenario file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            [f"JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except ValueError as exc:
        # text that is not UTF-8, or an integer literal longer than the
        # interpreter's int-string limit
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


def _record_columns(d) -> tuple[str, ...]:
    """The CSV columns of a d-level run: time, the upper-triangle state
    entries (real parts, and imaginary parts off the diagonal), the Bloch
    components when d = 3, purity and minimum eigenvalue."""
    columns = ["t"]
    for i, j in upper_triangle(d):
        columns += [f"rho{i + 1}{j + 1}_re"] + ([f"rho{i + 1}{j + 1}_im"] if i != j else [])
    if d == 3:
        columns += [f"bloch_{label}" for label in BLOCH_LABELS]
    return tuple(columns + ["purity", "min_eig"])


def _bytes_per_sample(d) -> int:
    """Bytes a run holds per grid sample, at most: twice one trajectory's complex states (its
    real coordinates and the states its d != 2 minimum eigenvalue builds) and two records' rows."""
    return 2 * 16 * d * d + 2 * 8 * len(_record_columns(d))


def build_record(traj: Trajectory) -> TrajectoryRecord:
    """Tabulate a trajectory in the columns of :func:`_record_columns`."""
    bloch = []
    if traj.dim == 3:  # linear in x: each unit state's Bloch components, a 9 x 8 map
        units = bloch_decompose(unvectorize(hermitian_coordinates(3)[0].T))
        bloch = [np.einsum("tk,kb->tb", traj.coords, units)]
    series = [traj.times, traj.coords, *bloch, traj.purity, traj.min_eigenvalues]
    return TrajectoryRecord(_record_columns(traj.dim), np.column_stack(series))


def emit_csv(record: TrajectoryRecord, path) -> None:
    """Write a record as CSV, 17 significant digits, LF line endings.

    Every value is written as ``"%.17g" % v`` writes it: exactly, in numpy
    passes, where that is fixed notation, and by ``%`` itself elsewhere
    (see :mod:`avgdyn._csvtext`).  The rows are formatted and written one
    block of at most CSV_BLOCK_VALUES values at a time.
    """
    n_columns = len(record.columns)
    rows = max(1, CSV_BLOCK_VALUES // n_columns)
    with open(path, "wb") as f:
        f.write((",".join(record.columns) + "\n").encode("utf-8"))
        for start in range(0, len(record.data), rows):
            f.write(format_rows(record.data[start:start + rows]))


def read_csv_columns(path) -> tuple[str, ...]:
    """Column names of a CSV produced by :func:`emit_csv`, from its header line alone."""
    with open(path, "rb") as f:
        try:
            header = f.readline().decode("utf-8").rstrip("\r\n")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: line 1 is not UTF-8") from None
    if not header:
        raise ValueError(f"{path}: empty CSV")
    return tuple(header.split(","))


def read_csv(path, names=None) -> TrajectoryRecord:
    """Read back a CSV produced by :func:`emit_csv`: every column, or only
    the columns in ``names``, each once and in the file's order.  A value
    read that is not finite fails, naming its line.

    One ``np.loadtxt`` pass parses the rows with a structured dtype: a float
    field for each column read and a zero-width ``"S0"`` field for each
    other one.  Every row must have the header's number of fields, and the
    file must end in a line feed, so a file cut short fails; the fields of
    columns not read are not parsed.  The float fields are packed, so the
    record's data is a view of the parsed table, bit-exact with the file's
    17-digit values.
    """
    columns = read_csv_columns(path)
    if names is not None:
        for name in names:
            if name not in columns:
                raise KeyError(f"no column {name!r}; have {columns}")
    read = [i for i, name in enumerate(columns) if names is None or name in names]
    dtype = [(str(i), float if i in read else "S0") for i in range(len(columns))]
    kept = tuple(columns[i] for i in read)
    with open(path, "rb") as raw:
        raw.seek(-1, os.SEEK_END)
        if raw.read(1) != b"\n":
            raise ValueError(f"{path}: the last row does not end in a line feed")
    try:
        with warnings.catch_warnings():
            # a file with no data rows reads as an empty record
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=1, skiprows=1,
                               encoding="utf-8")
    except ValueError as exc:
        raise ValueError(f"{path}: {_first_bad_line(path, columns, dtype, read) or exc}") from exc
    data = table.view(np.float64).reshape(len(table), len(kept))
    if not np.isfinite(data).all():
        row = int(np.argmin(np.isfinite(data).all(axis=1)))
        raise ValueError(f"{path}: {_first_bad_line(path, columns, dtype, read, row + 1)}")
    return TrajectoryRecord(kept, data)


def _first_bad_line(path, columns, dtype, read, max_rows=None) -> str | None:
    """Why a CSV read with ``dtype`` is rejected: the line where numpy's
    reader stopped, counted from 1 with the header, is not UTF-8, has the
    wrong number of fields, or has a field of a column in ``read`` that
    ``np.loadtxt`` rejects or parses to a value that is not finite.  A rescan
    feeds numpy a generator of the lines, which it pulls one at a time, so
    that line is the last one handed over: the line where it failed, or the
    line of data row ``max_rows - 1``.  None when nothing is found, so the
    caller keeps loadtxt's own message."""
    def lines(f):
        nonlocal number, raw
        for number, raw in enumerate(f, start=1):
            yield raw.decode("utf-8")

    number, raw = 1, b""
    with open(path, "rb") as f, warnings.catch_warnings():
        # max_rows counts data rows; numpy notes each skipped line it passes
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        try:
            np.loadtxt(lines(f), delimiter=",", dtype=dtype, ndmin=1, skiprows=1,
                       max_rows=max_rows)
            if max_rows is None:
                return None
        except ValueError:
            pass
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError:
        return f"line {number} is not UTF-8"
    fields = np.loadtxt([line], delimiter=",", dtype=str, ndmin=1)
    if len(fields) != len(columns):
        return f"line {number}: expected {len(columns)} fields, found {len(fields)}"
    for i in read:
        try:
            value = np.loadtxt([line], delimiter=",", usecols=i)
        except ValueError:
            return f"line {number}: {columns[i]} field {str(fields[i])!r} is not a number"
        if not np.isfinite(value):
            return f"line {number}: {columns[i]} field {str(fields[i])!r} is not a finite number"
    return None


def compare_trajectories(a: TrajectoryRecord, b: TrajectoryRecord, cutoff,
                         column: str = "rho12_re") -> dict:
    """Frequency/amplitude/deviation metrics for one observable of two
    records on one evenly spaced time grid.

    Both series pass through the same ideal low-pass, so the metrics of
    identical inputs are exactly zero.  The filter zeroes DFT bins of a
    window that is not periodic: the jump between the window's two ends
    leaks across it, and an in-band series is not unchanged by it (on
    ``configs/ac_stark.json`` the averaged ``rho12_re`` moves by 4.7e-2).
    Because both series are filtered alike, much of that leakage cancels in
    ``max_deviation``, not in the frequencies and amplitudes.  The filter
    kernel is non-causal, so one kernel width (2*pi/cutoff) at each end of
    the window, where the average is not evaluable, is excluded from the
    metrics.
    """
    ta, tb = a.times, b.times
    if not np.array_equal(ta, tb):
        raise ValueError("trajectories are on different grids")
    if ta.size < MIN_SAMPLES:
        raise ValueError(f"trajectories have {ta.size} samples, comparing them "
                         f"needs at least {MIN_SAMPLES}")
    dt = float(ta[1] - ta[0])
    if not dt > 0:
        raise ValueError(f"time step must be positive, got {dt:g}")
    # 8 ulps at the smallest step a TimeGrid accepts: every run's grid passes
    uneven = np.flatnonzero(np.abs(np.diff(ta) - dt) > dt * (8 / MIN_STEP_ULPS))
    if uneven.size:
        t_from, t_to = ta[uneven[0]:uneven[0] + 2].tolist()
        raise ValueError(f"times are not evenly spaced: t = {t_from!r} to {t_to!r} "
                         f"steps by {t_to - t_from!r}, the first step is {dt!r}")
    xa = lowpass_series(a.column(column), dt, cutoff)
    xb = lowpass_series(b.column(column), dt, cutoff)
    n = xa.size
    # one kernel width, capped before the division overflows at a tiny cutoff
    step, cap = cutoff * dt, (n - MIN_SAMPLES) // 2
    margin = int(round(2.0 * np.pi / step)) if 2.0 * np.pi < cap * step else cap
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
        "amplitude_ratio": None if at_rounding_floor(amp_b, xb) else float(amp_a / amp_b),
        "max_deviation": float(np.abs(xa - xb).max()),
    }


@dataclass(frozen=True)
class RunResult:
    exact: TrajectoryRecord
    effective: TrajectoryRecord
    report: dict
    warnings: tuple[str, ...]  # one sentence each, in the order they arose


def _write_nothing(label: str, record: TrajectoryRecord) -> None:
    pass


def run_scenario(cfg: ScenarioConfig,
                 write: Callable[[str, TrajectoryRecord], None] = _write_nothing
                 ) -> RunResult:
    """Propagate the exact and averaged dynamics on the same grid and
    compare them.

    The truncation sufficiency condition (validity ratio < 1) is checked
    up front; a violating scenario still runs, flagged in the report.  One
    trajectory is alive at a time: each is reduced to its report
    diagnostics and its record before the next one is propagated.  The
    result words each warning once, in ``RunResult.warnings``.

    ``write(label, record)`` is called with each record as soon as it is
    built, the trajectory it came from already freed: first
    ``("exact", result.exact)``, before the averaged model is propagated,
    then ``("effective", result.effective)``, before the comparison.  A
    caller can so start writing the exact record while the averaged model
    runs; an exception ``write`` raises ends the run.
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
    records, messages = [], []
    for label, propagate, model in (("exact", propagate_exact, cfg.hamiltonian),
                                    ("effective", propagate_effective, cfg.generator)):
        traj = propagate(model, cfg.initial, cfg.grid)
        if (drift := traj.trace_drift.max()) > TRACE_TOL:
            t = traj.times[traj.trace_drift.argmax()]
            messages.append(f"trace drifted by {drift:.3e} at t={t:.6g} in the {label} evolution")
        report[f"purity_drift_{label}"] = float(np.abs(traj.purity - traj.purity[0]).max())
        report[f"min_eigenvalue_{label}"] = float(traj.min_eigenvalues.min())
        record = build_record(traj)
        del traj
        write(label, record)
        records.append(record)
    if (min_eig := report["min_eigenvalue_effective"]) < -POSITIVITY_TOL:
        messages.append(f"averaged evolution dipped to min eigenvalue {min_eig:.3e}")
    if not report["validity_ok"]:
        messages.append("validity ratio >= 1, second-order truncation is not justified "
                        "for this scenario")
    rec_exact, rec_eff = records
    if cfg.compares():
        report["comparison"] = compare_trajectories(rec_exact, rec_eff, cutoff)
    return RunResult(rec_exact, rec_eff, report, tuple(messages))
