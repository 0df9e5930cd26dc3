import json
import struct
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgdyn.scenarios
from avgdyn._csvtext import _POW10, format_rows
from avgdyn.averaging import generator_series
from avgdyn.dynamics import TimeGrid, Trajectory, propagate_effective
from avgdyn.harmonic import EffectiveGenerator
from avgdyn.linalg import BLOCH_LABELS, bloch_decompose, hermitian_coordinates
from avgdyn.scenarios import (
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
from util import csv_reference, percent_csv, random_density, random_harmonic

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

AC_MINIMAL = {"kind": "ac_stark", "b": 0.3, "t_max": 200, "dt": 0.01}
# configs/raman.json's drives: the closed form models cutoffs in (0.02, 1]
RAMAN = {"kind": "raman", "Omega1": 0.1, "Omega2": 0.1, "omega1": 1.0, "omega2": 1.02,
         "t_max": 20, "dt": 0.02}


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
        # d = 1 has no rho12 column; without a drive the default cutoff is
        # infinite; a driven d = 2 run on the same grid is compared
        short = {"kind": "custom_harmonic", "dt": 3.0, "t_max": 40}
        for config in (
            {"h0": [[0.5]], "terms": [{"h": [[0.1]], "omega": 1.0}], "initial": [[1]]},
            {"h0": [[0.1, 0], [0, -0.1]], "terms": [], "initial": [[0.5, 0.5], [0.5, 0.5]]},
        ):
            cfg = scenario_from_dict(dict(short, **config))
            assert cfg.grid.n_steps + 1 == 14 and not cfg.compares()
        with pytest.raises(ScenarioError, match="at least 64"):
            scenario_from_dict(dict(short, initial=[[1, 0], [0, 0]], h0=[[0, 0], [0, 0]],
                                    terms=[{"h": [[0, 0], [0.1, 0]], "omega": 1.0}]))

    def test_every_problem_reported_at_once(self):
        # an invalid initial state does not hide the short grid
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({"kind": "ac_stark", "b": 0.3, "dt": 3.0, "t_max": 40,
                                "initial": [[2, 0], [0, 0]]})
        problems = err.value.problems
        assert any(p.startswith("initial: trace") for p in problems), problems
        assert "grid: 14 samples, but comparing the trajectories needs at least 64" in problems
        assert len(problems) == 2

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
        # raman, d = 3, all outputs: 20 CSV columns; per sample the complex
        # states and their real coordinates, within 2 * 16 * 9 bytes, and
        # two records (2 * 8 * 20 bytes)
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
    def test_state_columns_are_the_hermitian_coordinates(self, d):
        rng = np.random.default_rng(7)
        gen = EffectiveGenerator(random_harmonic(rng, d, 2, strength=0.2))
        traj = propagate_effective(gen, random_density(rng, d), TimeGrid(0.0, 5.0, 0.05))
        vecs = traj.states.transpose(0, 2, 1).reshape(len(traj.times), d * d)
        _, from_vec = hermitian_coordinates(d)
        assert np.array_equal(build_record(traj).data[:, 1:1 + d * d],
                              (vecs @ from_vec.T).real)

    @pytest.mark.parametrize("d, header", [
        (1, "t,rho11_re,purity,min_eig"),
        (2, "t,rho11_re,rho22_re,rho12_re,rho12_im,purity,min_eig"),
        (3, "t,rho11_re,rho22_re,rho33_re,rho12_re,rho12_im,rho13_re,rho13_im,rho23_re,"
            "rho23_im,bloch_x,bloch_y,bloch_z,bloch_w,bloch_xa,bloch_ya,bloch_xb,bloch_yb,"
            "purity,min_eig"),
        (4, "t,rho11_re,rho22_re,rho33_re,rho44_re,rho12_re,rho12_im,rho13_re,rho13_im,"
            "rho14_re,rho14_im,rho23_re,rho23_im,rho24_re,rho24_im,rho34_re,rho34_im,"
            "purity,min_eig"),
    ], ids=["1", "2", "3", "4"])
    def test_memory_estimate_counts_the_record_columns(self, d, header):
        # one fixed schema per dimension: c = 3 + d**2 columns, + 8 when d = 3
        coords = np.zeros((2, d * d))
        coords[:, :d] = 1.0 / d
        traj = Trajectory(np.arange(2.0), coords)
        columns = build_record(traj).columns
        assert ",".join(columns) == header
        assert len(columns) == 3 + d * d + 8 * (d == 3)
        assert _bytes_per_sample(d) == 2 * 16 * d * d + 2 * 8 * len(columns)

    @pytest.mark.parametrize("cutoff", [0.01, 1.01])
    def test_cutoff_outside_the_modelled_filter_rejected(self, cutoff):
        # the closed form assumes a filter that rejects every drive frequency
        # and passes every difference: max|w_n - w_m| < cutoff <= min w_n
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(dict(RAMAN, cutoff=cutoff))
        assert err.value.problems == [
            f"cutoff: {cutoff:g} is outside (0.02, 1]: it must exceed every drive-frequency "
            "difference and be at most the smallest drive frequency"]

    @pytest.mark.parametrize("cutoff", [0.021, 1.0])
    def test_accepted_cutoff_series_matches_the_closed_form(self, cutoff):
        # at 0.01 and 1.01 the order-<=2 series differs by 2.5e-3 and 5.0e-2
        cfg = scenario_from_dict(dict(RAMAN, cutoff=cutoff))
        series = generator_series(cfg.hamiltonian.as_fourier(), cfg.averaging_filter(), 0.0, 2)
        engine = sum(m.evaluate(0.3) for m in series.maps)
        closed_form = 1j * cfg.generator.liouvillian.evaluate(0.3)
        assert np.abs(engine - closed_form).max() <= 1e-15

    def test_any_cutoff_accepted_without_drives(self):
        cfg = scenario_from_dict({"kind": "custom_harmonic", "h0": [[0.1, 0], [0, -0.1]],
                                  "terms": [], "initial": [[1, 0], [0, 0]], "t_max": 20,
                                  "dt": 0.01, "cutoff": 123.0})
        assert cfg.averaging_filter() == 123.0

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

    @pytest.mark.parametrize("name, zero_columns", [
        ("ac_stark", ()),
        ("raman", ("rho13_re", "rho13_im", "rho23_re", "rho23_im",
                   "bloch_xa", "bloch_ya", "bloch_xb", "bloch_yb")),
        ("raman_equal_detuning", ("rho33_re", "rho12_im", "rho13_re", "rho13_im", "rho23_re",
                                  "rho23_im", "bloch_y", "bloch_z", "bloch_xa", "bloch_ya",
                                  "bloch_xb", "bloch_yb", "min_eig")),
    ])
    def test_shipped_exact_models_stay_pure_and_averaged_zeros_stay_zero(self, name, zero_columns):
        # both models step exactly in their drives' frame: the exact model's purity and
        # spectrum move by rounding only, and what the averaged model never couples stays 0
        result = run_scenario(load_scenario(CONFIG_DIR / f"{name}.json"))
        assert result.report["purity_drift_exact"] <= 2e-14
        assert result.report["min_eigenvalue_exact"] >= -2e-14
        for column in zero_columns:
            assert not result.effective.column(column).any(), column

    def test_write_gets_each_record_before_the_next_model_runs(self, monkeypatch):
        calls = []
        propagate = avgdyn.scenarios.propagate_effective

        def logged(*args):
            calls.append(("propagate_effective", None))
            return propagate(*args)

        monkeypatch.setattr(avgdyn.scenarios, "propagate_effective", logged)
        result = run_scenario(scenario_from_dict(RAMAN),
                              lambda label, record: calls.append((label, record)))
        assert [name for name, _ in calls] == ["exact", "propagate_effective", "effective"]
        assert calls[0][1] is result.exact and calls[2][1] is result.effective

    def test_report_contents(self):
        cfg = scenario_from_dict(dict(AC_MINIMAL, t_max=50))
        result = run_scenario(cfg)
        report = result.report
        assert report["validity_ok"] and report["validity_ratio"] == pytest.approx(0.15)
        assert "comparison" in report
        assert report["comparison"]["column"] == "rho12_re"

    @pytest.mark.parametrize("h0, terms, ratio", [
        ([[5, 0], [0, 5]], [{"h": [[0, 0], [0.15, 0]], "omega": 1.0}], 0.15),
        ([[5]], [{"h": [[0.15]], "omega": 1.0}], 0.0),
    ])
    def test_energy_offset_neither_moves_the_ratio_nor_warns(self, h0, terms, ratio):
        d = len(h0)
        config = {"kind": "custom_harmonic", "h0": h0, "terms": terms,
                  "initial": np.full((d, d), 1.0 / d).tolist(), "t_max": 20, "dt": 0.01}
        result = run_scenario(scenario_from_dict(config))
        unshifted = run_scenario(scenario_from_dict(dict(config, h0=np.zeros((d, d)).tolist())))
        assert result.report["validity_ratio"] == pytest.approx(ratio, rel=1e-12, abs=0.0)
        assert result.report["validity_ratio"] == unshifted.report["validity_ratio"]
        assert result.warnings == ()
        assert np.array_equal(result.exact.data[:, 1:1 + d * d],
                              unshifted.exact.data[:, 1:1 + d * d])

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

    def test_positivity_warning(self):
        result = run_scenario(scenario_from_dict(RAMAN))
        assert result.warnings == ("averaged evolution dipped to min eigenvalue -1.933e-04",)

    def test_warnings_in_the_order_they_arise(self):
        cfg = scenario_from_dict(dict(RAMAN, Omega1=1.5, Omega2=1.5, dt=0.005))
        assert run_scenario(cfg).warnings == (
            "averaged evolution dipped to min eigenvalue -3.556e-04",
            "validity ratio >= 1, second-order truncation is not justified for this scenario")

    def test_trace_drift_worded_once_per_model_exact_first(self, monkeypatch):
        # each model's trace leaks past TRACE_TOL for over 100 samples, most at t_peak
        def leaking(propagate, peak, t_peak):
            def leaky(*args):
                traj = propagate(*args)
                scale = 1.0 + peak * np.exp(-(traj.times - t_peak) ** 2)
                return Trajectory(traj.times, traj.coords * scale[:, None])
            return leaky

        assert run_scenario(load_scenario(CONFIG_DIR / "ac_stark.json")).warnings == ()
        for name, peak, t_peak in (("propagate_exact", 2e-12, 1.0),
                                   ("propagate_effective", 3.5e-12, 0.25)):
            monkeypatch.setattr(avgdyn.scenarios, name,
                                leaking(getattr(avgdyn.scenarios, name), peak, t_peak))
        result = run_scenario(scenario_from_dict(dict(AC_MINIMAL, t_max=10)))
        assert result.warnings == (
            "trace drifted by 2.000e-12 at t=1 in the exact evolution",
            "trace drifted by 3.500e-12 at t=0.25 in the effective evolution")

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

    def test_bloch_columns_are_the_state_columns(self):
        # x, y of each pair are Re and -Im of its entry bit for bit, z is exactly
        # (rho11 - rho22)/2, and w is within rounding of its formula
        rng = np.random.default_rng(11)
        states = np.stack([random_density(rng, 3) for _ in range(400)])
        _, from_vec = hermitian_coordinates(3)
        coords = (states.transpose(0, 2, 1).reshape(len(states), 9) @ from_vec.T).real
        record = build_record(Trajectory(np.arange(len(states), dtype=float), coords))
        col = record.column
        for x, y, pair in (("x", "y", "12"), ("xa", "ya", "13"), ("xb", "yb", "23")):
            assert np.array_equal(col(f"bloch_{x}"), col(f"rho{pair}_re"))
            assert np.array_equal(col(f"bloch_{y}"), -col(f"rho{pair}_im"))
        rho11, rho22, rho33 = col("rho11_re"), col("rho22_re"), col("rho33_re")
        assert np.array_equal(col("bloch_z"), (rho11 - rho22) / 2.0)
        w = (rho11 + rho22 - 2.0 * rho33) / (2.0 * np.sqrt(3.0))
        assert np.abs(col("bloch_w") - w).max() <= 4.5e-16

    @pytest.mark.parametrize("config, reads", [(AC_MINIMAL, 0), (RAMAN, 2)],
                             ids=["ac_stark", "raman"])
    def test_run_builds_complex_states_once_per_model_for_eigenvalues(self, monkeypatch,
                                                                      config, reads):
        built, states = [], Trajectory.states.fget

        def counted(self):
            built.append(self)
            return states(self)

        monkeypatch.setattr(Trajectory, "states", property(counted))
        run_scenario(scenario_from_dict(dict(config, t_max=20)))
        assert len(built) == reads


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

    def test_emit_memory_within_the_per_value_writer(self, tmp_path):
        # a record shaped like the 200 000-step ac_stark run's.  Its min_eig,
        # rounding noise below 1e-4, takes the per-value path; it is noise on
        # every 8th row and 0 elsewhere, so each pass takes that path without
        # the tracing cost of 200 000 such values
        t = np.arange(200_001) * 0.01
        noise = np.where(np.arange(t.size) % 8 == 0, -1e-17 * np.cos(t), 0.0)
        data = np.column_stack([t, 0.5 + 0.5 * np.sin(t), 0.5 - 0.5 * np.sin(t),
                                0.5 * np.cos(t), -0.3 * np.sin(t), 1 - 1e-3 * np.sin(t) ** 2,
                                noise])
        record = TrajectoryRecord(("t", "rho11_re", "rho22_re", "rho12_re", "rho12_im",
                                   "purity", "min_eig"), data)

        def peak(write, record):
            tracemalloc.start()
            try:
                write(record, tmp_path / "out.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the per-value writer's peak is one block's: three blocks show it
        blocks = TrajectoryRecord(record.columns, data[:3 * (CSV_BLOCK_VALUES // 7) + 1])
        reference = peak(lambda r, path: percent_csv(r, path, CSV_BLOCK_VALUES), blocks)
        assert peak(emit_csv, record) <= reference + 256 * 1024

    @pytest.mark.parametrize("names", [
        ("t", "x"), ("y", "t"), ("t", "t"), ("y", "y", "x"), ("x",), ("t", "x", "y"),
    ], ids=["prefix", "reordered", "repeated_t", "repeated_unordered", "one", "all"])
    def test_named_read_matches_full_read(self, tmp_path, names):
        values = [1e-300, 1.7976931348623157e308, -1.0, -0.0, 5e-324, -2.5e-310,
                  2.2250738585072014e-308, 0.1, 1 / 3, -1.7976931348623157e308]
        rng = np.random.default_rng(5)
        data = np.column_stack([np.arange(10.0), values, rng.permutation(values)])
        path = tmp_path / "out.csv"
        emit_csv(TrajectoryRecord(("t", "x", "y"), data), path)
        full = read_csv(path)
        assert full.data.tobytes() == data.tobytes()
        back = read_csv(path, names)
        # the columns read keep the file's order, each once
        assert back.columns == tuple(c for c in ("t", "x", "y") if c in names)
        for name in names:
            assert back.column(name).tobytes() == full.column(name).tobytes()
        # emit_csv writes nan and +-inf; a read of their column rejects them
        for bad in (np.nan, np.inf, -np.inf):
            data[3, 2] = bad
            emit_csv(TrajectoryRecord(("t", "x", "y"), data), path)
            if "y" in names:
                with pytest.raises(ValueError, match=f"line 5: y field '{bad}' is not a finite"):
                    read_csv(path, names)
            else:
                assert read_csv(path, names).data.tobytes() == back.data.tobytes()

    @pytest.mark.parametrize("names", [None, ("t", "y")], ids=["all", "named"])
    def test_header_only_reads_no_rows(self, tmp_path, names):
        path = tmp_path / "out.csv"
        emit_csv(TrajectoryRecord(("t", "x", "y"), np.empty((0, 3))), path)
        back = read_csv(path, names)
        assert back.columns == (("t", "x", "y") if names is None else names)
        assert back.data.shape == (0, len(back.columns))

    def test_unknown_name_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(TrajectoryRecord(("t", "x"), np.zeros((3, 2))), path)
        with pytest.raises(KeyError, match="no column 'y'"):
            read_csv(path, ("t", "y"))

    def test_named_read_memory_is_at_most_half_the_full_read(self, tmp_path):
        # a 20 001-row d = 2 record: t, rho11_re, rho22_re, rho12_re, rho12_im,
        # purity, min_eig; compare reads two of its seven columns
        record = run_scenario(scenario_from_dict(AC_MINIMAL)).exact
        assert record.data.shape == (20_001, 7)
        path = tmp_path / "exact.csv"
        emit_csv(record, path)

        def peak(names):
            tracemalloc.start()
            try:
                read_csv(path, names)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(("t", "rho12_re")) <= 0.5 * peak(None)

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


def assert_formats_as_percent(rows):
    """format_rows of a list of rows against format(v, ".17g") of each value."""
    text = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
    assert format_rows(np.array(rows, dtype=np.float64).reshape(len(rows), -1)) == text.encode()


# 10**k for k = -5 ... 17 and the ends of the range formatted in numpy
POWERS = [10.0**k for k in range(-5, 18)] + [1e-4, 1e16]
EDGES = ([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1 / 3, 1.7976931348623157e308,
          -1.7976931348623157e308]
         + [v for p in POWERS for v in (p, np.nextafter(p, 0.0), np.nextafter(p, np.inf))])


def value_rows(values):
    """Rows of 1 ... 7 values, each drawn by the strategy values."""
    return st.integers(1, 7).flatmap(
        lambda n: st.lists(st.lists(values, min_size=n, max_size=n), min_size=1, max_size=8))


class TestFormatRows:
    """The number formatter behind emit_csv against format(v, ".17g")."""

    @settings(max_examples=300, deadline=None)
    @given(value_rows(st.integers(0, 2**64 - 1).map(
        lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])))
    def test_any_bit_pattern(self, rows):
        # nan, +-inf and subnormals included
        assert_formats_as_percent(rows)

    @settings(max_examples=300, deadline=None)
    @given(value_rows(st.floats()))
    def test_any_float(self, rows):
        assert_formats_as_percent(rows)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_edges(self, sign):
        values = [sign * v for v in EDGES]
        assert_formats_as_percent([[v] for v in values])
        assert_formats_as_percent([values])

    @pytest.mark.parametrize("value, text", [
        (1e15 + 0.25, "1000000000000000.2"), (1e15 + 0.75, "1000000000000000.8"),
        (1e14 + 0.125, "100000000000000.12"), (1e14 + 0.375, "100000000000000.38"),
    ])
    def test_halfway_cases_round_half_even(self, value, text):
        assert format(value, ".17g") == text
        assert format_rows(np.array([[value, -value]])) == f"{text},-{text}\n".encode()

    def test_no_double_in_range_rounds_up_to_a_power_of_ten(self):
        # the premise of the formatter: the largest double below each power
        # of ten in [1e-4, 1e16] is further below it than half a unit of the
        # 17th digit, so its 17 digits never round up to 10**17
        for k in range(-4, 17):
            power = Fraction(10) ** k
            below = float(power)
            if Fraction(below) >= power:
                below = float(np.nextafter(below, 0.0))
            assert (power - Fraction(below)) / power > Fraction(5, 10**17)

    def test_powers_of_ten_are_exact(self):
        # 10**(16 - e) for e = -4 ... 16, the scales of the exact products
        assert [Fraction(p) for p in _POW10] == [Fraction(10) ** m for m in range(21)]


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

    def test_amplitude_ratio_null_at_the_rounding_floor(self):
        # a constant b plus one-ulp noise: the low-pass leaves it a swing of a
        # few ulps, which is rounding, so there is no ratio to report
        t = 0.02 * np.arange(10001)
        noise = np.random.default_rng(3).integers(-1, 2, t.size) * np.spacing(0.7)
        a = TrajectoryRecord(("t", "rho12_re"), np.column_stack([t, 0.7 + 1e-4 * np.cos(0.1 * t)]))
        b = TrajectoryRecord(("t", "rho12_re"), np.column_stack([t, 0.7 + noise]))
        metrics = compare_trajectories(a, b, cutoff=0.5)
        assert 0 < metrics["amplitude_b"] < 1e-15
        assert metrics["amplitude_ratio"] is None
        assert compare_trajectories(b, a, cutoff=0.5)["amplitude_ratio"] < 1e-11

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
