import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from avgdyn.dynamics import TimeGrid, Trajectory, propagate_effective, propagate_exact
from avgdyn.harmonic import EffectiveGenerator, HarmonicHamiltonian
from avgdyn.linalg import BLOCH_LABELS, bloch_decompose
from avgdyn.scenarios import (
    _OUTPUT_GROUPS,
    CSV_BLOCK_VALUES,
    MEMORY_BUDGET_BYTES,
    ScenarioError,
    TrajectoryRecord,
    _bytes_per_sample,
    build_record,
    compare_trajectories,
    emit_csv,
    load_scenario,
    read_csv,
    run_scenario,
    scenario_from_dict,
)
from util import csv_reference

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

AC_MINIMAL = {"kind": "ac_stark", "b": 0.3, "t_max": 200, "dt": 0.01}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestLoadScenario:
    def test_minimal_ac_stark(self, tmp_path):
        cfg = load_scenario(write_config(tmp_path, AC_MINIMAL))
        assert cfg.kind == "ac_stark"
        assert cfg.hamiltonian.dim == 2
        assert cfg.params["Omega"] == pytest.approx(0.3)
        assert cfg.grid.t_max == 200 and cfg.grid.dt == 0.01
        # default averaging cutoff is half the drive frequency
        assert cfg.averaging_filter() == 0.5

    def test_zero_dt_rejected(self, tmp_path):
        bad = dict(AC_MINIMAL, dt=0)
        with pytest.raises(ScenarioError, match="dt"):
            load_scenario(write_config(tmp_path, bad))

    def test_unknown_key_rejected(self, tmp_path):
        bad = dict(AC_MINIMAL, phase=0.3)
        with pytest.raises(ScenarioError, match="unknown key 'phase'"):
            load_scenario(write_config(tmp_path, bad))

    def test_bad_initial_names_failed_property(self, tmp_path):
        bad = dict(AC_MINIMAL, initial=[[0.5, 0.6], [0.6, 0.5]])
        with pytest.raises(ScenarioError, match="minimum eigenvalue"):
            load_scenario(write_config(tmp_path, bad))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "ac_stark",\n  "b": }', encoding="utf-8")
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(path)

    def test_multiple_problems_collected(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({"kind": "raman", "Omega1": 0.1, "Omega2": 0.1,
                                "omega1": -1.0, "dt": 0.1, "t_max": 10})
        assert len(err.value.problems) == 2  # omega1 sign and missing omega2

    def test_complex_matrix_entries(self):
        cfg = scenario_from_dict({
            "kind": "custom_harmonic",
            "h0": [[0.1, [0, 0.2]], [[0, -0.2], -0.1]],
            "terms": [{"h": [[0, 0.05], [0, 0]], "omega": 2.0}],
            "initial": [[1, 0], [0, 0]],
            "t_max": 10,
            "dt": 0.1,
        })
        assert cfg.hamiltonian.h0[0, 1] == 0.2j
        assert cfg.hamiltonian.terms[0][1] == 2.0

    def test_short_grid_allowed_when_nothing_is_compared(self):
        short = {"kind": "ac_stark", "b": 0.3, "dt": 3.0, "t_max": 40}
        with pytest.raises(ScenarioError, match="at least 64"):
            scenario_from_dict(short)
        cfg = scenario_from_dict(dict(short, outputs=["purity"]))
        assert not cfg.compares()

    def test_custom_requires_initial(self):
        with pytest.raises(ScenarioError, match="initial"):
            scenario_from_dict({"kind": "custom_harmonic", "h0": [[0.0]],
                                "terms": [], "t_max": 1, "dt": 0.1})

    def test_rk4_stability_checks_the_exact_equation(self):
        # a strong, fast drive: the exact Liouvillian's norm bound is
        # 2 * 10 * sqrt(2) = 28.3, the averaged one's 0.2
        config = {"kind": "custom_harmonic", "h0": [[0, 0], [0, 0]],
                  "terms": [{"h": [[0, 0], [10, 0]], "omega": 1000}],
                  "initial": [[1, 0], [0, 0]], "t_max": 10}
        scenario_from_dict(dict(config, dt=0.08))
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(dict(config, dt=0.1))
        assert err.value.problems == ["grid: dt * ||L|| = 2.83 for the exact equation "
                                      "exceeds the RK4 stability limit 2.55"]

    def test_memory_budget_boundary_at_d3(self):
        # raman, d = 3, all outputs: 20 CSV columns; per sample the states
        # and their symmetrized copy (2 * 16 * 9 bytes) and two records
        # (2 * 8 * 20 bytes)
        per_sample = 2 * 16 * 9 + 2 * 8 * 20
        fits = MEMORY_BUDGET_BYTES // per_sample
        raman = {"kind": "raman", "Omega1": 0.1, "Omega2": 0.1, "omega1": 1.0,
                 "omega2": 1.02, "dt": 0.5}
        cfg = scenario_from_dict(dict(raman, t_max=0.5 * (fits - 1)))
        assert cfg.grid.n_steps + 1 == fits
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(dict(raman, t_max=0.5 * fits))
        assert err.value.problems == [
            f"grid: {fits + 1} samples need {(fits + 1) * per_sample} bytes of arrays, "
            f"over the budget of {MEMORY_BUDGET_BYTES}"]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_memory_estimate_counts_the_record_columns(self, d):
        traj = Trajectory(np.arange(2.0), np.broadcast_to(np.eye(d, dtype=complex) / d,
                                                          (2, d, d)))
        for k in range(len(_OUTPUT_GROUPS) + 1):
            for outputs in itertools.combinations(_OUTPUT_GROUPS, k):
                columns = len(build_record(traj, outputs).columns)
                assert _bytes_per_sample(d, outputs) == 2 * 16 * d * d + 2 * 8 * columns

    def test_shipped_configs_are_valid(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            cfg = load_scenario(path)
            assert cfg.kind in ("ac_stark", "raman")


class TestRunScenario:
    def test_zero_hamiltonian_constant_trajectories(self):
        cfg = scenario_from_dict({
            "kind": "custom_harmonic",
            "h0": [[0.0, 0.0], [0.0, 0.0]],
            "terms": [],
            "initial": [[0.7, 0.1], [0.1, 0.3]],
            "t_max": 5,
            "dt": 0.1,
        })
        result = run_scenario(cfg)
        for record in (result.exact, result.effective):
            for name in ("rho11_re", "rho12_re", "rho12_im"):
                col = record.column(name)
                assert np.all(col == col[0])
        assert result.report["validity_ratio"] == 0.0

    def test_equal_detuning_raman_has_no_decoherence(self):
        cfg = scenario_from_dict({
            "kind": "raman", "Omega1": 0.1, "Omega2": 0.1,
            "omega1": 1.0, "omega2": 1.0, "t_max": 100, "dt": 0.02,
        })
        gen = EffectiveGenerator(cfg.hamiltonian)
        assert np.linalg.norm(gen.decoherence_superop(3.0)) == 0.0
        result = run_scenario(cfg)
        assert result.report["purity_drift_effective"] <= 1e-9

    def test_report_contents(self):
        cfg = scenario_from_dict(dict(AC_MINIMAL, t_max=50))
        result = run_scenario(cfg)
        report = result.report
        assert report["validity_ok"] and report["validity_ratio"] == pytest.approx(0.15)
        assert "comparison" in report
        assert report["comparison"]["column"] == "rho12_re"

    def test_configured_cutoff_in_units_of_delta(self):
        # the configured cutoff, the averaging filter and the comparison
        # share the unit of the CSV t column
        cfg = scenario_from_dict(dict(AC_MINIMAL, t_max=120, delta=0.37, cutoff=0.5))
        report = run_scenario(cfg).report
        assert report["cutoff"] == report["comparison"]["cutoff"] == 0.5

    def test_out_of_regime_scenario_still_runs_but_is_flagged(self):
        cfg = scenario_from_dict({
            "kind": "custom_harmonic",
            "h0": [[0.0, 0.0], [0.0, 0.0]],
            "terms": [{"h": [[0.0, 2.0], [0.0, 0.0]], "omega": 1.0}],
            "initial": [[1.0, 0.0], [0.0, 0.0]],
            "t_max": 5,
            "dt": 0.005,
        })
        result = run_scenario(cfg)
        assert result.report["validity_ratio"] >= 1.0
        assert result.report["validity_ok"] is False
        assert result.exact.data.shape[0] == cfg.grid.n_steps + 1

    def test_record_row_count_matches_grid(self):
        cfg = scenario_from_dict(dict(AC_MINIMAL, t_max=10))
        result = run_scenario(cfg)
        assert result.exact.data.shape[0] == cfg.grid.n_steps + 1

    def test_raman_record_has_bloch_columns(self):
        cfg = scenario_from_dict({
            "kind": "raman", "Omega1": 0.1, "Omega2": 0.1,
            "omega1": 1.0, "omega2": 1.05, "t_max": 20, "dt": 0.05,
        })
        result = run_scenario(cfg)
        for label in ("bloch_x", "bloch_w", "bloch_yb"):
            assert label in result.effective.columns

    def test_bloch_columns_match_per_row_decomposition(self):
        cfg = scenario_from_dict({
            "kind": "raman", "Omega1": 0.1, "Omega2": 0.1,
            "omega1": 1.0, "omega2": 1.05, "t_max": 20, "dt": 0.05,
        })
        traj = propagate_effective(EffectiveGenerator(cfg.hamiltonian), cfg.initial, cfg.grid)
        record = build_record(traj)
        per_row = np.array([bloch_decompose(s) for s in traj.states])
        stacked = np.column_stack([record.column(f"bloch_{label}")
                                   for label in BLOCH_LABELS])
        assert np.abs(stacked - per_row).max() <= 1e-15


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        record = TrajectoryRecord(
            ("t", "a", "b"),
            np.column_stack([np.arange(5.0), rng.standard_normal(5),
                             rng.standard_normal(5) * 1e-17]),
        )
        path = tmp_path / "out.csv"
        emit_csv(record, path)
        back = read_csv(path)
        assert back.columns == record.columns
        assert np.array_equal(back.data, record.data)

    def test_special_values_match_per_value_format(self, tmp_path):
        values = [-0.0, 5e-324, 1e-300, 1.2e17, -1.7976931348623157e308,
                  0.1, 1 / 3, -2.5e-310, 1e22, 123456789012345678.0]
        record = TrajectoryRecord(("t", "x"), np.column_stack([values, values[::-1]]))
        path = tmp_path / "out.csv"
        emit_csv(record, path)
        assert path.read_text(encoding="utf-8") == csv_reference(record)

    @pytest.mark.parametrize("rows", ["0", "1", "B-1", "B", "B+1"])
    def test_block_boundaries_match_per_row_reference(self, tmp_path, rows):
        # three columns: emit_csv writes blocks of B = CSV_BLOCK_VALUES // 3 rows
        block = CSV_BLOCK_VALUES // 3
        n = {"0": 0, "1": 1, "B-1": block - 1, "B": block, "B+1": block + 1}[rows]
        rng = np.random.default_rng(n)
        data = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
        # special values in the first and the last rows
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310, 0.1, 1 / 3]
        flat = data.reshape(-1)
        k = min(flat.size, len(special))
        flat[:k] = special[:k]
        flat[flat.size - k:] = special[:k]
        record = TrajectoryRecord(("t", "x", "y"), data)
        path = tmp_path / "out.csv"
        emit_csv(record, path)
        assert path.read_bytes() == csv_reference(record).encode("utf-8")

    def test_emit_memory_does_not_grow_with_length(self, tmp_path):
        # both records span more than one block
        def peak(n):
            t = np.arange(n) * 0.01
            record = TrajectoryRecord(("t", "x"), np.column_stack([t, np.sin(t)]))
            tracemalloc.start()
            try:
                emit_csv(record, tmp_path / "out.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200_001) <= peak(20_001) + 256 * 1024

    def test_lf_line_endings_and_header(self, tmp_path):
        record = TrajectoryRecord(("t", "x"), np.array([[0.0, 1.0]]))
        path = tmp_path / "out.csv"
        emit_csv(record, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"t,x\n")

    def test_deterministic_emission(self, tmp_path):
        cfg = scenario_from_dict(dict(AC_MINIMAL, t_max=5))
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(a.exact, pa)
        emit_csv(b.exact, pb)
        assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("config", [AC_MINIMAL, "raman.json"], ids=["ac_stark", "raman"])
def test_run_holds_one_trajectory_and_two_records(config):
    # peak traced memory of a run against one trajectory's complex states
    # plus the two float records it returns
    cfg = (load_scenario(CONFIG_DIR / config) if isinstance(config, str)
           else scenario_from_dict(config))
    tracemalloc.start()
    try:
        result = run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = cfg.hamiltonian.dim
    states = 16 * d * d * (cfg.grid.n_steps + 1)
    records = result.exact.data.nbytes + result.effective.data.nbytes
    assert peak <= 1.5 * (states + records)


class TestCompare:
    def test_identical_trajectories_have_zero_deviation(self):
        cfg = scenario_from_dict(dict(AC_MINIMAL, t_max=20))
        result = run_scenario(cfg)
        metrics = compare_trajectories(result.exact, result.exact, cutoff=0.5)
        assert metrics["frequency_difference"] == 0.0
        assert metrics["max_deviation"] == 0.0
        assert metrics["amplitude_ratio"] == 1.0

    def test_grid_mismatch_rejected(self):
        a = TrajectoryRecord(("t", "rho12_re"), np.column_stack(
            [np.arange(128.0), np.ones(128)]))
        b = TrajectoryRecord(("t", "rho12_re"), np.column_stack(
            [np.arange(64.0), np.ones(64)]))
        with pytest.raises(ValueError, match="grids"):
            compare_trajectories(a, b, cutoff=1.0)

    def test_missing_column(self):
        a = TrajectoryRecord(("t", "x"), np.column_stack(
            [np.arange(128.0), np.ones(128)]))
        with pytest.raises(KeyError, match="rho12_re"):
            compare_trajectories(a, a, cutoff=1.0)

    def test_ac_stark_deviation_has_second_order_scale(self):
        # after filtering, the exact and averaged coherences differ by a
        # second-order remainder: the deviation stays at the b^2 scale,
        # and refining the integration step does not change it (so it is
        # physics, not integrator error)
        b = 0.3
        cfg = scenario_from_dict(dict(AC_MINIMAL, t_max=120))
        result = run_scenario(cfg)
        metrics = compare_trajectories(result.exact, result.effective, cutoff=0.5)
        assert metrics["max_deviation"] < b**2
        fine = run_scenario(scenario_from_dict(dict(AC_MINIMAL, t_max=120, dt=0.005)))
        metrics_fine = compare_trajectories(fine.exact, fine.effective, cutoff=0.5)
        assert abs(metrics_fine["max_deviation"] - metrics["max_deviation"]) < 1e-4


class TestBuildRecord:
    def test_output_selection(self):
        rho0 = np.eye(2, dtype=complex) / 2
        traj = propagate_exact(HarmonicHamiltonian(np.zeros((2, 2))), rho0, TimeGrid(0, 1, 0.5))
        record = build_record(traj, outputs=("purity",))
        assert record.columns == ("t", "purity")
