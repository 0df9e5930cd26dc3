"""Tests of the benchmark itself: its checks fail when they should, its
inputs follow the seed, its spans add up and its counts are exact.

    python -m pytest bench/test_bench.py -q
"""

import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import avgdyn.cli  # noqa: E402
import avgdyn.scenarios  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# the workloads' physics on 400-step grids
AC_SMALL = {**wl.make_configs("ac_stark_long", 0)[0], "t_max": 4.0}
RAMAN_SMALL = {**wl.make_configs("raman", 0)[0], "t_max": 8.0}
SMALL = {"ac_stark_long": AC_SMALL, "raman": RAMAN_SMALL}


def run_op(tmp_path, workload, config, tracer=tracing.NULL_TRACER, op_id=0):
    ctx = wl.Context(workload, 0, tmp_path)
    [path] = wl.write_configs([config], tmp_path / f"configs{op_id}")
    with tracer.installed(op_id), tracer.span("op"):
        outputs = wl.OPS[workload](ctx, config, path, tracer)
    return ctx, outputs


def write_table(path, header, data):
    lines = [",".join(header)] + [",".join(format(v, ".17g") for v in row) for row in data]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("workload", ["ac_stark_long", "raman"])
def test_perturbed_trajectory_fails_closed_form_check(tmp_path, workload):
    config = SMALL[workload]
    ctx, outputs = run_op(tmp_path, workload, config)
    assert wl.CHECKS[workload](ctx, 0, config, outputs)[0] == []
    for which, name in (("exact", "exact.csv"), ("averaged", "effective.csv")):
        path = tmp_path / "out" / name
        header, data = reference.read_table(path)
        data[data.shape[0] // 2, 1] += 1e-6
        write_table(path, header, data)
        dev, failures, _ = reference.check_trajectory(path, config, which)
        assert 0.9e-6 < dev < 1.1e-6
        assert failures


def test_perturbed_raman_bloch_rows_fail(tmp_path):
    ctx, outputs = run_op(tmp_path, "raman", RAMAN_SMALL)
    for key in ("closed_form", "rk4"):
        rows = outputs[key].copy()
        outputs[key][7, 2] += 1e-6
        failures, _ = wl.check_raman(ctx, 0, RAMAN_SMALL, outputs)
        assert any(f.startswith(key) for f in failures)
        outputs[key] = rows


def test_perturbed_derive_printout_fails(tmp_path):
    config = wl.make_configs("series_derive", 0)[10]
    ctx, outputs = run_op(tmp_path, "series_derive", config)
    assert wl.check_series_derive(ctx, 0, config, outputs)[0] == []
    call = outputs["derive"]
    # the first printed real part of the order-3 generator, moved by 1e-5
    head, tail = call.out.split("# order-3")
    match = re.search(r"-?\d+\.\d*", tail)
    moved = f"{float(match.group()) + 1e-5:.6f}"
    call.out = head + "# order-3" + tail[:match.start()] + moved + tail[match.end():]
    failures, _ = wl.check_series_derive(ctx, 0, config, outputs)
    assert any("printed matrices" in f for f in failures)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_configs_follow_the_seed(tmp_path, workload):
    def config_bytes(seed, name):
        paths = wl.write_configs(wl.make_configs(workload, seed), tmp_path / name)
        return [p.read_bytes() for p in paths]

    assert config_bytes(7, "a") == config_bytes(7, "b")
    assert config_bytes(7, "a") != config_bytes(8, "c")


def test_span_self_times_sum_to_traced_wall(tmp_path):
    tracer = tracing.Tracer()
    original = avgdyn.scenarios.propagate_exact
    start = time.perf_counter()
    run_op(tmp_path, "ac_stark_long", AC_SMALL, tracer)
    wall = time.perf_counter() - start
    assert avgdyn.scenarios.propagate_exact is original
    [root] = [s for s in tracer.spans if s[3] is None]
    root_wall = root[2] - root[1]
    self_times = tracer.self_times(0)
    assert sum(self_times.values()) == pytest.approx(root_wall, rel=1e-9)
    assert root_wall <= wall
    assert {"cli.run", "cli.compare", "scenarios.run_scenario", "dynamics.propagate_exact",
            "dynamics.propagate_effective", "scenarios.emit_csv", "scenarios.read_csv",
            "scenarios.compare_trajectories", "signals.lowpass_series"} <= set(self_times)
    assert all(t >= 0 for t in self_times.values())


def expected_evaluate_calls(n_steps, per_rhs):
    """validity_ratio samples H 512 times, the exact RK4 evaluates H at
    2n+1 grid and half-step points, and each of the 4n averaged
    right-hand sides evaluates H_eff and, with decoherence, its superoperator."""
    return 512 + (2 * n_steps + 1) + 4 * n_steps * per_rhs


@pytest.mark.parametrize("workload, per_rhs", [("ac_stark_long", 1), ("raman", 2)])
def test_counts_are_exact_and_repeat(tmp_path, workload, per_rhs):
    tracer = tracing.Tracer()
    for op_id in (0, 1):
        run_op(tmp_path, workload, SMALL[workload], tracer, op_id)
    counts = tracer.counts[0]
    assert counts == tracer.counts[1]
    n = reference.grid_times(SMALL[workload]).size - 1
    assert counts["fourier.evaluate_calls"] == expected_evaluate_calls(n, per_rhs)
    assert counts["harmonic.master_rhs_calls"] == 4 * n
    assert counts["dynamics.exact_steps"] == counts["dynamics.effective_steps"] == n
    bloch_rows = 2 * (n + 1) if workload == "raman" else 0
    assert counts["linalg.bloch_decompose_calls"] == bloch_rows
    assert counts["dynamics.positivity_warnings"] <= 1
    assert counts["dynamics.trace_renorm_warnings"] == 0
    # the full-size workloads
    full_n = reference.grid_times(wl.make_configs(workload, 0)[0]).size - 1
    assert expected_evaluate_calls(full_n, per_rhs) == {
        "ac_stark_long": 1_200_513, "raman": 200_513}[workload]


def test_series_counts_repeat(tmp_path):
    config = wl.make_configs("series_derive", 3)[-1]
    tracer = tracing.Tracer()
    for op_id in (0, 1):
        run_op(tmp_path, "series_derive", config, tracer, op_id)
    assert tracer.counts[0] == tracer.counts[1]
    assert tracer.counts[0]["fourier.terms_L3"] > 0
    assert tracer.counts[0]["fourier.operators_built"] > 0


def test_raman_reference_solves_the_bloch_system():
    """The closed form agrees with a fine RK4 of dr'/dt = M r'."""
    m = reference.raman_matrix(RAMAN_SMALL)
    t_end, n = 8.0, 8000
    h = t_end / n
    r = reference.raman_bloch(RAMAN_SMALL, np.array([0.0]), rotating=True)[0]
    for _ in range(n):
        k1 = m @ r
        k2 = m @ (r + h / 2 * k1)
        k3 = m @ (r + h / 2 * k2)
        k4 = m @ (r + h * k3)
        r = r + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    want = reference.raman_bloch(RAMAN_SMALL, np.array([t_end]), rotating=True)[0]
    assert np.abs(r - want).max() < 1e-13
