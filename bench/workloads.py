"""Seeded workload inputs, the timed ops, and the checks on their outputs.

Every op goes through the program's real entry point, ``avgdyn.cli.main``
called in-process, plus the ``avgdyn.raman`` API for the Raman
validation.  The seed draws the physics; the program only sees the
generated config files.  Checks run after the op, outside its timed
region, and compare the files and printouts the op produced with the
closed forms in ``reference`` (trajectories) or with the library API on
the same Hamiltonian (the derived generator series).
"""

from __future__ import annotations

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import avgdyn.cli
import avgdyn.raman
from avgdyn.averaging import forward_series, generator_series, inverse_series
from avgdyn.dynamics import TimeGrid
from avgdyn.harmonic import EffectiveGenerator
from avgdyn.scenarios import TrajectoryRecord, emit_csv, read_csv, scenario_from_dict

import reference

WORKLOADS = ("ac_stark_long", "raman", "series_derive")

# Cutoff handed to `avgdyn compare`, in the CSV time unit 1/delta: half
# the drive frequency, the program's default averaging cutoff.
COMPARE_CUTOFF = 0.5
DERIVE_ORDER = 3
# series_derive strata: every (dimension, number of drives) pair, with
# this many random configs each, interleaved so each pass is balanced.
DERIVE_CELLS = tuple((d, k) for d in (2, 3, 4) for k in (1, 2, 3))
CONFIGS_PER_CELL = 4
# `avgdyn derive` prints matrices at 6 decimals
PRINT_TOL = 1e-6
# acceptance-criterion bounds 04, 05 and 06
GENERATOR_TOL = 1e-10
INVERSE_TOL = 1e-10
STRUCTURE_TOL = 1e-11


def _rng(seed, workload, *extra):
    return np.random.default_rng([seed % 2**63, WORKLOADS.index(workload), *extra])


def _matrix_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _derive_config(rng, d, n_drives):
    a = _random_complex(rng, d)
    h0 = 0.05 * (a + a.conj().T)
    terms = []
    omega = 1.0 + 0.1 * rng.random()
    for _ in range(n_drives):
        terms.append({"h": _matrix_json(0.1 * _random_complex(rng, d)), "omega": omega})
        # close drives: differences pass the default cutoff, sums do not
        omega += 0.02 + 0.06 * rng.random()
    a = _random_complex(rng, d)
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2.0
    rho /= rho.trace().real
    return {"kind": "custom_harmonic", "h0": _matrix_json(h0), "terms": terms,
            "initial": _matrix_json(rho), "t_max": 10.0, "dt": 0.01}


def make_configs(workload, seed) -> list[dict]:
    """The workload's scenario configs, drawn from the seed."""
    rng = _rng(seed, workload)
    if workload == "ac_stark_long":
        # the acceptance criterion 02 grid: 200 000 steps
        return [{"kind": "ac_stark", "b": float(rng.uniform(0.2, 0.4)), "delta": 1.0,
                 "t_max": 2000.0, "dt": 0.01,
                 "initial": [[0.5, 0.5], [0.5, 0.5]]}]
    if workload == "raman":
        # oscillatory regime, the shipped 20 000-step grid
        return [{"kind": "raman", "Omega1": 0.1, "Omega2": 0.1, "omega1": 1.0,
                 "omega2": float(rng.uniform(1.01, 1.04)), "t_max": 400.0, "dt": 0.02,
                 "initial": [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]]}]
    if workload == "series_derive":
        return [_derive_config(rng, d, k)
                for _ in range(CONFIGS_PER_CELL) for d, k in DERIVE_CELLS]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_configs(configs, directory) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, config in enumerate(configs):
        path = directory / f"config_{i:02d}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


@dataclass
class Context:
    """One run's workload, seed, scratch directory and cached check
    references."""

    workload: str
    seed: int
    workdir: Path
    cache: dict = field(default_factory=dict)

    def for_op(self, op_id) -> "Context":
        """The same context with a scratch directory of the op's own, so its
        files survive until they are checked."""
        return replace(self, workdir=self.workdir / f"op{op_id}")


@dataclass
class CliCall:
    code: int
    out: str
    err: str


def call_cli(tracer, argv) -> CliCall:
    out, err = io.StringIO(), io.StringIO()
    with tracer.span("cli." + argv[0]), redirect_stdout(out), redirect_stderr(err):
        code = avgdyn.cli.main(argv)
    return CliCall(code, out.getvalue(), err.getvalue())


# ---- ops: the timed region --------------------------------------------------

def op_ac_stark_long(ctx, config, path, tracer):
    out = ctx.workdir / "out"
    run = call_cli(tracer, ["run", str(path), "--out", str(out)])
    compare = call_cli(tracer, ["compare", str(out / "exact.csv"), str(out / "effective.csv"),
                                "--cutoff", repr(COMPARE_CUTOFF)])
    return {"run": run, "compare": compare}


def op_raman(ctx, config, path, tracer):
    run = call_cli(tracer, ["run", str(path), "--out", str(ctx.workdir / "out")])
    params = avgdyn.raman.RamanParams(config["Omega1"], config["Omega2"],
                                      config["omega1"], config["omega2"])
    r0 = reference.bloch_components(reference.initial_state(config)[None])[0, :4]
    grid = TimeGrid(0.0, config["t_max"], config["dt"])
    times = grid.times()
    closed_form = avgdyn.raman.RotatingSolution.fit(params, r0).sample(times)
    _, rk4 = avgdyn.raman.integrate_bloch(params, r0, grid)
    return {"run": run, "times": times, "closed_form": closed_form, "rk4": rk4}


def op_series_derive(ctx, config, path, tracer):
    return {"derive": call_cli(tracer, ["derive", "--order", str(DERIVE_ORDER), str(path)])}


OPS = {"ac_stark_long": op_ac_stark_long, "raman": op_raman,
       "series_derive": op_series_derive}


# ---- checks: outside the timed region ---------------------------------------

def _exit_failures(calls) -> list[str]:
    failures = []
    for name, call in calls.items():
        if call.code != 0:
            first = call.err.strip().splitlines()[:1]
            failures.append(f"{name}: exit code {call.code} {first}")
    return failures


def _report_failures(run, kind) -> list[str]:
    try:
        report = json.loads(run.out)
    except json.JSONDecodeError as exc:
        return [f"run: stdout is not a JSON report ({exc})"]
    return [] if report.get("kind") == kind else [f"run: report kind {report.get('kind')!r}"]


def round_trip_failures(columns, path) -> list[str]:
    """emit_csv then read_csv must give back the same doubles, bit for bit."""
    record = TrajectoryRecord(tuple(columns), np.column_stack(list(columns.values())))
    emit_csv(record, path)
    back = read_csv(path)
    if back.columns != record.columns or back.data.tobytes() != record.data.tobytes():
        return ["emit_csv -> read_csv does not round-trip bit-exactly"]
    return []


def _trajectory_checks(ctx, config):
    out = ctx.workdir / "out"
    exact_dev, failures, ref = reference.check_trajectory(out / "exact.csv", config, "exact")
    averaged_dev, fails, _ = reference.check_trajectory(out / "effective.csv", config,
                                                        "averaged")
    failures += fails + round_trip_failures(ref, ctx.workdir / "round_trip.csv")
    return failures, {"exact_max_dev": exact_dev, "averaged_max_dev": averaged_dev}


def check_ac_stark_long(ctx, index, config, outputs):
    run, compare = outputs["run"], outputs["compare"]
    failures = _exit_failures(outputs)
    if failures:
        return failures, {}
    failures += _report_failures(run, "ac_stark")
    fails, diagnostics = _trajectory_checks(ctx, config)
    failures += fails
    # criterion 02: each frequency within one DFT resolution of its closed
    # form, on the window `compare` analyses (one filter kernel width is
    # dropped at each end)
    metrics = json.loads(compare.out)
    b = config["b"]
    n = reference.grid_times(config).size
    margin = min(int(round(2.0 * math.pi / (COMPARE_CUTOFF * config["dt"]))), (n - 64) // 2)
    resolution = 2.0 * math.pi / ((n - 2 * margin) * config["dt"])
    for key, label, want in (("frequency_a", "exact", math.sqrt(1.0 + b * b) - 1.0),
                             ("frequency_b", "effective", b * b / 2.0)):
        err = abs(metrics[key] - want)
        diagnostics[f"{label}_freq_err_over_resolution"] = err / resolution
        if not err < resolution:
            failures.append(f"compare: {label} frequency {metrics[key]:.6g} is not within "
                            f"{resolution:.3g} of {want:.6g}")
    return failures, diagnostics


def check_raman(ctx, index, config, outputs):
    failures = _exit_failures({"run": outputs["run"]})
    if failures:
        return failures, {}
    failures += _report_failures(outputs["run"], "raman")
    fails, diagnostics = _trajectory_checks(ctx, config)
    failures += fails
    times = outputs["times"]
    for key, got, want in (
            ("closed_form", outputs["closed_form"],
             reference.raman_bloch(config, times, rotating=True)),
            ("rk4", outputs["rk4"], reference.raman_bloch(config, times))):
        dev = float(np.abs(got - want).max()) if got.shape == want.shape else math.inf
        diagnostics[f"{key}_max_dev"] = dev
        if not dev <= reference.BLOCH_TOL:
            failures.append(f"{key}: max deviation {dev:.3e} > {reference.BLOCH_TOL:g}")
    # the averaged equation is not completely positive: a negative minimum
    # eigenvalue here is physics, reported but never a failure
    header, data = reference.read_table(ctx.workdir / "out" / "effective.csv")
    diagnostics["effective_min_eig"] = float(data[:, header.index("min_eig")].min())
    return failures, diagnostics


_COMPLEX = re.compile(r"([-+]?\d+\.?\d*(?:e[-+]?\d+)?)\s*([-+])\s*(\d+\.?\d*(?:e[-+]?\d+)?)j")


def parse_matrices(text) -> list[np.ndarray]:
    """The complex matrices `avgdyn derive` printed, each flattened."""
    blocks = []
    for line in text.splitlines():
        if line.startswith("#"):
            blocks.append([])
        elif blocks:
            blocks[-1].append(line)
    out = []
    for lines in blocks:
        values = [complex(float(re_), float(sign + im)) for re_, sign, im
                  in _COMPLEX.findall(" ".join(lines))]
        if values:
            out.append(np.array(values))
    return out


def derive_reference(config, rng) -> dict:
    """What `avgdyn derive` should print, from the library API on the same
    Hamiltonian, and the criterion 04-06 invariants at random times."""
    cfg = scenario_from_dict(config)
    ham, filt, t0 = cfg.hamiltonian, cfg.averaging_filter(), cfg.grid.t0
    d = ham.dim
    gen = EffectiveGenerator(ham)
    series = generator_series(ham.as_fourier(), filt, t0, DERIVE_ORDER)
    fwd = forward_series(ham.as_fourier(), filt, t0, DERIVE_ORDER)
    inv = inverse_series(fwd)
    printed = [gen.effective_hamiltonian(t0), gen.decoherence_superop(t0)]
    printed += [series.maps[k].evaluate(t0) for k in range(1, DERIVE_ORDER + 1)]
    engine_vs_closed = inverse_residual = worst_trace = worst_herm = 0.0
    a = _random_complex(rng, d)
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    for t in rng.uniform(0.0, 30.0, 3):
        engine = -1j * (series.maps[1].evaluate(t) + series.maps[2].evaluate(t))
        engine_vs_closed = max(engine_vs_closed, float(np.linalg.norm(
            engine - gen.liouvillian_matrix(t))))
        fwd_t = [m.evaluate(t) for m in fwd.maps]
        inv_t = [m.evaluate(t) for m in inv.maps]
        for k in range(1, DERIVE_ORDER + 1):
            acc = sum(inv_t[j] @ fwd_t[k - j] for j in range(k + 1))
            inverse_residual = max(inverse_residual, float(np.linalg.norm(acc)))
            out = series.apply(k, rho, t)
            worst_trace = max(worst_trace, abs(np.trace(out)))
            img = out / 1j
            worst_herm = max(worst_herm, float(np.abs(img - img.conj().T).max()))
    invariants = {"c04_generator_diff": engine_vs_closed,
                  "c05_inverse_residual": inverse_residual,
                  "c06_structure_defect": max(worst_trace, worst_herm)}
    failures = [f"{name} {value:.3e} > {tol:g}" for (name, value), tol
                in zip(invariants.items(), (GENERATOR_TOL, INVERSE_TOL, STRUCTURE_TOL))
                if not value <= tol]
    return {"printed": [m.reshape(-1) for m in printed], "invariants": invariants,
            "failures": failures}


def check_series_derive(ctx, index, config, outputs):
    call = outputs["derive"]
    failures = _exit_failures(outputs)
    if failures:
        return failures, {}
    if index not in ctx.cache:
        ctx.cache[index] = derive_reference(config, _rng(ctx.seed, "series_derive", index))
    ref = ctx.cache[index]
    failures += ref["failures"]
    printed = parse_matrices(call.out)
    sizes = [m.size for m in printed]
    want_sizes = [m.size for m in ref["printed"]]
    if sizes != want_sizes:
        return failures + [f"derive: printed matrix sizes {sizes}, want {want_sizes}"], {}
    dev = max(float(np.abs(got - want).max()) for got, want in zip(printed, ref["printed"]))
    if not dev <= PRINT_TOL:
        failures.append(f"derive: printed matrices off by {dev:.3e} > {PRINT_TOL:g}")
    return failures, {"printed_max_dev": dev, **ref["invariants"]}


CHECKS = {"ac_stark_long": check_ac_stark_long, "raman": check_raman,
          "series_derive": check_series_derive}
