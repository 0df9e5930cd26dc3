import errno
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgdyn.cli
import avgdyn.scenarios
from avgdyn.averaging import generator_series
from avgdyn.cli import _dumps, _format_matrix, _in_child, main
from avgdyn.harmonic import EffectiveGenerator
from avgdyn.scenarios import KINDS, TrajectoryRecord, emit_csv, load_scenario, run_scenario
from util import csv_reference

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def strict_json(text):
    """Parse JSON, failing on the NaN and Infinity that json.dumps writes by default."""
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


# two drives on one transition, strong enough that the averaged model blows up
HUGE10 = {"kind": "custom_harmonic", "h0": [[0, 0], [0, 0]],
          "terms": [{"h": [[0, 0], [5, 0]], "omega": 1}, {"h": [[0, 0], [5, 0]], "omega": 1.3}],
          "initial": [[1, 0], [0, 0]], "t_max": 10, "dt": 0.012}
# stronger and longer: the averaged state stays finite, but its purity overflows
OVER = dict(HUGE10, t_max=20, dt=0.0047, terms=[{"h": [[0, 0], [8, 0]], "omega": 1},
                                               {"h": [[0, 0], [8, 0]], "omega": 1.3}])


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(
        {"kind": "ac_stark", "b": 0.3, "t_max": 20, "dt": 0.01}
    ), encoding="utf-8")
    return path


class TestValidate:
    def test_good_config(self, small_config, capsys):
        assert main(["validate", str(small_config)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "ac_stark", "b": -3, "t_max": 1, "dt": 0.1}',
                        encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_cutoff_outside_the_modelled_filter_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({"kind": "raman", "Omega1": 0.1, "Omega2": 0.1,
                                    "omega1": 1.0, "omega2": 1.02, "t_max": 20, "dt": 0.02,
                                    "cutoff": 0.01}), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cutoff: 0.01 is outside (0.02, 1]") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["validate", "derive", "run"])
    def test_default_cutoff_outside_the_modelled_filter_is_one_line(self, tmp_path, capsys,
                                                                     command):
        # drives 2 apart: the default cutoff 0.5 would reject their difference
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"kind": "raman", "Omega1": 0.1, "Omega2": 0.1,
                                    "omega1": 1.0, "omega2": 3.0, "t_max": 400, "dt": 0.02}),
                        encoding="utf-8")
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path), *out]) == 1
        assert capsys.readouterr().err == (
            "error: cutoff: the default 0.5 is outside (2, 1]: it must exceed every "
            "drive-frequency difference and be at most the smallest drive frequency\n")
        assert not (tmp_path / "out").exists()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_non_utf8_config_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"kind": "ac_stark", "b": 0.3, "note": "\u00e9"}'.encode("latin-1"))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: JSON parse error: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("\n") == 1

    def test_non_object_root_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == "error: config root must be a JSON object\n"

    def test_outputs_key_rejected(self, tmp_path, capsys):
        # every run writes the one fixed column set of its dimension
        path = tmp_path / "outputs.json"
        path.write_text(json.dumps({"kind": "ac_stark", "b": 0.3, "t_max": 20, "dt": 0.01,
                                    "outputs": ["purity"]}), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == "error: unknown key 'outputs' for kind 'ac_stark'\n"

    @pytest.mark.parametrize("t0, message", [
        ([1], "t0: expected a number, got [1]"),
        (float("nan"), "t0: must be a finite number, got nan"),
        (float("inf"), "t0: must be a finite number, got inf"),
    ])
    def test_malformed_t0(self, tmp_path, capsys, t0, message):
        path = tmp_path / "t0.json"
        path.write_text(json.dumps(
            {"kind": "ac_stark", "b": 0.3, "t_max": 20, "dt": 0.01, "t0": t0}
        ), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("keys, message", [
        ('"kind": "custom_harmonic", "h0": [[NaN, 0], [0, 0]], "terms": [], '
         '"initial": [[1, 0], [0, 0]]',
         "h0: entries must be finite"),
        ('"kind": "custom_harmonic", "h0": [[0, 0], [0, 0]], '
         '"terms": [{"h": [[0, 0], [Infinity, 0]], "omega": 1}], '
         '"initial": [[1, 0], [0, 0]]',
         "terms[0].h: entries must be finite"),
        ('"kind": "ac_stark", "b": 0.3, "initial": [[NaN, 0], [0, 0.5]]',
         "initial: entries must be finite"),
        ('"kind": "ac_stark", "b": 1' + "0" * 400,
         "b: integer too large for a float"),
        ('"kind": "custom_harmonic", "h0": [[1' + "0" * 400 + ', 0], [0, 0]], '
         '"terms": [], "initial": [[1, 0], [0, 0]]',
         "h0: integer entry too large for a float"),
        ('"kind": "ac_stark", "b": 1' + "0" * 5000,
         "JSON parse error: Exceeds the limit"),
        ('"kind": "ac_stark", "b": 0.3, "t_max": true',
         "t_max: expected a number, got True"),
        ('"kind": "ac_stark", "b": 0.3, "dt": "0.01"',
         "dt: expected a number, got '0.01'"),
        ('"kind": "ac_stark", "b": 0.3, "t0": "nan"',
         "t0: expected a number, got 'nan'"),
        ('"kind": "custom_harmonic", "h0": [["1", "0"], ["0", "-1"]], "terms": [], '
         '"initial": [[1, 0], [0, 0]]',
         "h0: expected a square matrix of numbers or [re, im] pairs"),
        ('"kind": "custom_harmonic", "h0": "1", "terms": [], "initial": [[1]]',
         "h0: expected a square matrix of numbers or [re, im] pairs"),
        ('"kind": "ac_stark", "b": 0.3, "initial": [[[0.5, false], 0], [0, 0.5]]',
         "initial: expected a square matrix of numbers or [re, im] pairs"),
        ('"kind": "ac_stark", "b": 1e200, "delta": 1e200',
         "b * delta: must be finite, got inf"),
        ('"kind": "ac_stark", "b": 1e300',
         "drive operators too large: the effective generator overflows"),
        ('"kind": "raman", "Omega1": 1e160, "Omega2": 1e160, "omega1": 1, "omega2": 1.02',
         "drive operators too large: the effective generator overflows"),
        ('"kind": "custom_harmonic", "h0": [[0, 0], [0, 0]], '
         '"terms": [{"h": [[0, 0], [0.1, 0]], "omega": 1.0}, '
         '{"h": [[0, 0], [0.1, 0]], "omega": -2}], "initial": [[1, 0], [0, 0]]',
         "terms[1].omega: must be a positive finite number, got -2.0"),
        ('"kind": "custom_harmonic", "h0": [[0, 0], [0, 0]], "terms": [1], '
         '"initial": [[1, 0], [0, 0]]',
         "terms[0]: expected an object with keys 'h', 'omega'"),
        ('"kind": "ac_stark", "b": 0.3, "initial": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]',
         "initial: dimension 3 does not match Hamiltonian dimension 2"),
        ('"kind": "ac_stark", "b": 0.3, "initial": [[0.5, 1e308], [1e308, 0.5]]',
         "initial: minimum eigenvalue -1.000e+308"),
        ('"kind": "ac_stark", "b": 0.3, "initial": [[1, 1e308], [-1e308, 0]]',
         "initial: hermiticity violated by inf"),
        ('"kind": "custom_harmonic", "h0": [[0, 1e308], [-1e308, 0]], "terms": [], '
         '"initial": [[1, 0], [0, 0]]',
         "h0 must be Hermitian within 1e-12"),
    ], ids=["nan_h0", "inf_term", "nan_initial", "long_int_number", "long_int_entry",
            "over_digit_limit", "bool_number", "string_number", "string_nan",
            "string_entries", "string_matrix", "bool_pair", "overflowing_drive",
            "overflowing_generator", "overflowing_raman_generator", "negative_term_omega",
            "term_not_an_object", "initial_dimension_mismatch", "huge_initial_eigenvalue",
            "huge_initial_antihermitian", "huge_h0_antihermitian"])
    def test_malformed_numbers(self, tmp_path, capsys, keys, message):
        # NaN, Infinity and integers of any length are valid Python JSON; only
        # numbers count as numbers, and a drive whose operator overflows is
        # rejected at validation rather than at run time.  Entries of 1e308
        # are finite: the Hermiticity checks must not overflow on them
        path = tmp_path / "numbers.json"
        path.write_text('{"t_max": 20, "dt": 0.01, ' + keys + "}", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_grid_too_short_to_compare(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps(
            {"kind": "ac_stark", "b": 0.3, "dt": 3.0, "t_max": 40}
        ), encoding="utf-8")
        for argv in (["validate", str(path)],
                     ["run", str(path), "--out", str(tmp_path / "out")]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                "error: grid: 14 samples, but comparing the trajectories "
                "needs at least 64\n")


CONFIG_KEYS = ["kind", "t0", "t_max", "dt", "initial", "cutoff", "outputs", "b", "delta",
               "Omega1", "Omega2", "omega1", "omega2", "h0", "terms"]
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10, max_value=100),
    st.integers(min_value=-10**400, max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(KINDS),
    st.text(max_size=8),
)
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=16)
TERMS = st.lists(st.fixed_dictionaries({"h": JSON_VALUES, "omega": JSON_VALUES}), max_size=2)


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(kind=st.one_of(st.sampled_from(KINDS), JSON_VALUES),
       keys=st.dictionaries(st.sampled_from(CONFIG_KEYS),
                            st.one_of(JSON_VALUES, TERMS), max_size=8))
def test_validate_any_json_object_exits_0_or_1(tmp_path_factory, kind, keys):
    config = dict(keys, kind=kind)
    path = tmp_path_factory.mktemp("property") / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["validate", str(path)]) in (0, 1)


class TestRun:
    def test_writes_outputs(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(small_config), "--out", str(out)]) == 0
        assert (out / "exact.csv").exists()
        assert (out / "effective.csv").exists()
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["validity_ok"] is True
        printed = json.loads(capsys.readouterr().out)
        assert printed == report

    def test_out_of_regime_run_warns(self, tmp_path, capsys):
        # the validity ratio is b / 2 = 1.25: the run completes, flagged
        path = tmp_path / "strong.json"
        path.write_text(json.dumps({"kind": "ac_stark", "b": 2.5, "t_max": 20, "dt": 0.01}),
                        encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == (
            "warning: validity ratio >= 1, second-order truncation is not justified "
            "for this scenario\n")

    def test_positivity_warning_is_prefixed(self, tmp_path, capsys):
        # the averaged Raman state leaves the positive cone within t = 20; the
        # run result words that, and the CLI prints it as one of its warnings
        path = tmp_path / "raman.json"
        path.write_text(json.dumps({"kind": "raman", "Omega1": 0.1, "Omega2": 0.1,
                                    "omega1": 1.0, "omega2": 1.02, "t_max": 20, "dt": 0.02}),
                        encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == (
            "warning: averaged evolution dipped to min eigenvalue -1.933e-04\n")
        assert not logging.getLogger("avgdyn").handlers

    def test_warnings_printed_once_and_nothing_logged(self, tmp_path, capsys, caplog):
        # Omega = 1.5: the averaged state dips and the validity ratio is >= 1
        path = tmp_path / "strong_raman.json"
        path.write_text(json.dumps({"kind": "raman", "Omega1": 1.5, "Omega2": 1.5,
                                    "omega1": 1.0, "omega2": 1.02, "t_max": 20, "dt": 0.005}),
                        encoding="utf-8")
        with caplog.at_level(logging.DEBUG, logger="avgdyn"):
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert caplog.records == []
        assert capsys.readouterr().err == (
            "warning: averaged evolution dipped to min eigenvalue -3.556e-04\n"
            "warning: validity ratio >= 1, second-order truncation is not justified "
            "for this scenario\n")

    def test_large_entries_run(self, tmp_path):
        # Hermitian, with H(t) entries of 1e7: rounding in H(t) - H(t)^dagger
        # is far above 1e-10 and must not read as non-Hermitian
        path = tmp_path / "large.json"
        path.write_text(json.dumps(
            {"kind": "custom_harmonic", "h0": [[1e7, [3e6, 1e6]], [[3e6, -1e6], -1e7]],
             "terms": [{"h": [[2e6, [1e6, 7e5]], [[4e6, 3e5], 1e6]], "omega": 3e7}],
             "initial": [[1, 0], [0, 0]], "t_max": 1e-6, "dt": 1e-9}
        ), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_unresolved_time_step_is_validation_error(self, tmp_path, capsys):
        # at |t| = 1e17 one ulp is 16: t0 + k * dt rounds to t0 for every k,
        # which a run would find only after propagating 200 000 steps
        path = tmp_path / "far.json"
        path.write_text(json.dumps(
            {"kind": "ac_stark", "b": 0.3, "t0": 1e17, "t_max": 1.00000000000002e17, "dt": 0.01}
        ), encoding="utf-8")
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert main(argv) == 1
            assert capsys.readouterr() == (
                "", "error: grid: dt 0.01 is lost to rounding at |t| = 1e+17; "
                    "it must be at least 1.68e+07\n")
        assert not out.exists()

    @pytest.mark.parametrize("b, norm", [(30, "4.5"), (300, "450"), (1e100, "5e+197")],
                             ids=["30", "300", "1e100"])
    def test_unstable_grid_is_validation_error(self, tmp_path, capsys, b, norm):
        # the averaged Liouvillian's norm bound is b**2 / 2: RK4 at dt = 0.01
        # would diverge, so validate, derive and run all reject the grid, with
        # one line and no numpy warnings (filterwarnings = error)
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(
            {"kind": "ac_stark", "b": b, "t_max": 2, "dt": 0.01}
        ), encoding="utf-8")
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["derive", "--order", "3", str(path)],
                     ["run", str(path), "--out", str(out)]):
            assert main(argv) == 1
            assert capsys.readouterr() == (
                "", f"error: grid: dt * ||L|| = {norm} for the averaged equation "
                    "exceeds the RK4 stability limit 2.55\n")
        assert not out.exists()

    @pytest.mark.parametrize("omega, product", [(1e8, "1e+06"), (1e100, "1e+98")],
                             ids=["1e8", "1e100"])
    def test_unresolved_drive_is_validation_error(self, tmp_path, capsys, omega, product):
        # a weak drive, so dt * ||L|| is small, but far faster than the grid
        # samples: run would diverge at the first step, or, from omega ~ 1e155
        # on, print numpy warnings first
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(
            {"kind": "custom_harmonic", "h0": [[0, 0], [0, 0]],
             "terms": [{"h": [[0, 0], [0.1, 0]], "omega": omega}],
             "initial": [[1, 0], [0, 0]], "t_max": 20, "dt": 0.01}
        ), encoding="utf-8")
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert main(argv) == 1
            assert capsys.readouterr() == (
                "", f"error: grid: dt * max omega = {product} is not below pi, "
                    "so the steps cannot resolve the fastest drive\n")
        assert not out.exists()

    def test_report_is_strict_json(self, tmp_path, capsys):
        # a cutoff that passes the DC bin alone leaves amplitude_b = 0: the
        # amplitude ratio is null, not Infinity
        path = tmp_path / "dc.json"
        path.write_text(json.dumps({"kind": "ac_stark", "b": 0.3, "t_max": 20, "dt": 0.01,
                                    "cutoff": 1e-10}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        report = strict_json((out / "report.json").read_text(encoding="utf-8"))
        assert report["comparison"]["amplitude_b"] == 0.0
        assert report["comparison"]["amplitude_ratio"] is None
        assert strict_json(capsys.readouterr().out) == report

    def test_blown_up_averaged_model_runs_with_three_warnings(self, tmp_path, capsys):
        # validity ratio >= 1: the averaged state grows to ~1e66 but stays finite.
        # Its trace is measured, never rescaled, and worded once; a numpy warning
        # would fail the run (filterwarnings = error).  Digits follow BLAS rounding.
        path = tmp_path / "huge10.json"
        path.write_text(json.dumps(HUGE10), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 3
        assert all(line.startswith("warning: ") for line in lines)
        assert sum(line.startswith("warning: trace drifted by ") for line in lines) == 1
        for name in ("exact.csv", "effective.csv"):
            assert np.isfinite(np.loadtxt(out / name, delimiter=",", skiprows=1)).all()

    def test_overflowing_report_value_is_named(self, tmp_path, capsys):
        # the averaged state reaches ~5e170: finite, but its purity overflows
        path = tmp_path / "over.json"
        path.write_text(json.dumps(OVER), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("warning: ")]
        assert len(errors) == 1
        assert errors[0].startswith("error: purity_drift_effective is ")

    def test_failed_run_leaves_no_report(self, small_config, tmp_path, capsys):
        # a run into a directory that holds a finished run's report fails: its CSVs
        # are written, and the old report is gone rather than left beside them
        out = tmp_path / "out"
        assert main(["run", str(small_config), "--out", str(out)]) == 0
        assert (out / "report.json").is_file()
        path = tmp_path / "over.json"
        path.write_text(json.dumps(OVER), encoding="utf-8")
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert "purity_drift_effective" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        for name in ("exact.csv", "effective.csv"):
            assert (out / name).read_text(encoding="utf-8").startswith("t,rho11_re,rho22_re,")

    @pytest.mark.parametrize("cutoff", [1e-320, 5e-324])
    def test_tiny_cutoff_runs(self, tmp_path, capsys, cutoff):
        # one kernel width, 2*pi / (cutoff * dt) samples, overflows at 1e-320
        # and divides by zero at 5e-324; like 1e-10, both pass the DC bin alone
        comparisons = []
        for c in (cutoff, 1e-10):
            path = tmp_path / f"{c}.json"
            path.write_text(json.dumps({"kind": "ac_stark", "b": 0.3, "t_max": 20,
                                        "dt": 0.01, "cutoff": c}), encoding="utf-8")
            out = tmp_path / f"out{c}"
            assert main(["run", str(path), "--out", str(out)]) == 0
            report = strict_json((out / "report.json").read_text(encoding="utf-8"))
            comparisons.append(report["comparison"])
        assert capsys.readouterr().err == ""
        tiny, dc = comparisons
        assert tiny.pop("cutoff") == cutoff
        assert dc.pop("cutoff") == 1e-10
        assert tiny == dc

    def test_step_longer_than_grid_is_validation_error(self, tmp_path, capsys):
        # n_steps once rounded up to 1, and exact.csv held a row at t = 2
        path = tmp_path / "long_step.json"
        path.write_text(json.dumps(
            {"kind": "custom_harmonic", "h0": [[0.1, 0], [0, -0.1]], "terms": [],
             "initial": [[1, 0], [0, 0]], "t_max": 1, "dt": 2}
        ), encoding="utf-8")
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert main(argv) == 1
            assert capsys.readouterr() == (
                "", "error: grid: dt 2.0 exceeds the span t_max - t0 = 1.0\n")
        assert not out.exists()
        # a step equal to the span in decimal, 0.3 - 0.1 = 0.19999999999999998, is one step
        path.write_text(json.dumps(
            {"kind": "custom_harmonic", "h0": [[0.1, 0], [0, -0.1]], "terms": [],
             "initial": [[1, 0], [0, 0]], "t0": 0.1, "t_max": 0.3, "dt": 0.2}
        ), encoding="utf-8")
        assert main(["validate", str(path)]) == 0

    def test_shipped_raman_equal_detuning(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", str(CONFIG_DIR / "raman_equal_detuning.json"),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["purity_drift_effective"] <= 1e-9


class TestCompare:
    def test_compare_run_outputs(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(small_config), "--out", str(out)])
        capsys.readouterr()
        code = main(["compare", str(out / "exact.csv"),
                     str(out / "effective.csv"), "--cutoff", "0.5"])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        assert set(metrics) >= {"frequency_difference", "amplitude_ratio",
                                "max_deviation"}

    def test_non_finite_metric_is_named(self, small_config, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        main(["run", str(small_config), "--out", str(out)])
        capsys.readouterr()
        monkeypatch.setattr(avgdyn.cli, "compare_trajectories",
                            lambda *args, **kwargs: {"max_deviation": float("nan")})
        assert main(["compare", str(out / "exact.csv"),
                     str(out / "effective.csv"), "--cutoff", "0.5"]) == 2
        assert capsys.readouterr() == (
            "", "error: max_deviation is nan, which is not JSON compliant\n")

    @pytest.mark.parametrize("rows, message", [
        ([], "trajectories have 0 samples, comparing them needs at least 64"),
        (["0,0.5"], "trajectories have 1 samples, comparing them needs at least 64"),
        (["0,0.5"] + [f"{0.1 * k:g},0.5" for k in range(100)],
         "time step must be positive, got 0"),
        ([f"{0.1 * k:g},0.5" for k in range(100)]
         + [f"{9.9 + 0.5 * k:g},0.5" for k in range(1, 101)],
         "times are not evenly spaced: t = 9.9 to 10.4 steps by 0.5, the first step is 0.1"),
    ], ids=["header_only", "one_row", "repeated_time", "uneven_times"])
    def test_uncomparable_csv_is_runtime_error(self, tmp_path, capsys, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["t,rho12_re"] + rows) + "\n", encoding="utf-8")
        assert main(["compare", str(path), str(path), "--cutoff", "0.5"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_tiny_cutoff(self, tmp_path, capsys):
        a, b = self._write_pair(tmp_path)
        assert main(["compare", str(a), str(b), "--cutoff", "1e-320"]) == 0
        metrics = strict_json(capsys.readouterr().out)
        assert metrics["cutoff"] == 1e-320 and metrics["amplitude_ratio"] is None

    @pytest.mark.parametrize("cutoff", ["0", "-1", "nan"])
    def test_bad_cutoff_rejected_before_reading(self, tmp_path, capsys, cutoff):
        missing = str(tmp_path / "missing.csv")
        assert main(["compare", missing, missing, "--cutoff", cutoff]) == 1
        assert capsys.readouterr().err == "error: --cutoff must be positive\n"

    def test_infinite_cutoff_rejected_before_reading(self, tmp_path, capsys):
        # a metric holding the cutoff could not be written as strict JSON
        missing = str(tmp_path / "missing.csv")
        assert main(["compare", missing, missing, "--cutoff", "inf"]) == 1
        assert capsys.readouterr().err == "error: --cutoff must be finite\n"

    def test_unknown_column_message_unquoted(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        rows = [f"{0.1 * k:g},0.5" for k in range(100)]
        path.write_text("\n".join(["t,rho12_re"] + rows) + "\n", encoding="utf-8")
        assert main(["compare", str(path), str(path), "--cutoff", "0.5",
                     "--column", "nope"]) == 1
        assert capsys.readouterr().err == (
            "error: no column 'nope'; have ('t', 'rho12_re')\n")

    @pytest.mark.parametrize("header, message", [
        ("t,rho11_re", "no column 'rho12_re'; have ('t', 'rho11_re')"),
        ("time,rho12_re", "no column 't'; have ('time', 'rho12_re')"),
    ], ids=["no_column", "no_time"])
    def test_headers_checked_before_data(self, tmp_path, capsys, header, message):
        # rows loadtxt cannot parse: reading any data would exit 2 instead
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("t,rho12_re\nnot,numbers\n", encoding="utf-8")
        bad.write_text(f"{header}\nnot,numbers\n", encoding="utf-8")
        assert main(["compare", str(good), str(bad), "--cutoff", "0.5"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @staticmethod
    def _write_pair(tmp_path):
        # columns of a d = 2 run; the last field of every row ends in "e-17"
        n = 100
        t = 0.1 * np.arange(n)
        data = np.column_stack([t, np.cos(t), np.sin(t), 0.5 * np.cos(t), 0.5 * np.sin(t),
                                np.ones(n), np.full(n, -1.25e-17)])
        record = TrajectoryRecord(("t", "rho11_re", "rho22_re", "rho12_re", "rho12_im",
                                   "purity", "min_eig"), data)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(record, a)
        emit_csv(record, b)
        return a, b

    @pytest.mark.parametrize("which", ["a", "b", "both"])
    @pytest.mark.parametrize("damage, message", [
        pytest.param("fewer_fields", "line 51: expected 7 fields, found 6", id="fewer_fields"),
        pytest.param("more_fields", "line 51: expected 7 fields, found 8", id="more_fields"),
        pytest.param("cut_mid_row", "the last row does not end in a line feed",
                     id="cut_mid_row"),
        pytest.param("cut_in_last_field", "the last row does not end in a line feed",
                     id="cut_in_last_field"),
        pytest.param("fewer_fields_after_blank_lines", "line 54: expected 7 fields, found 6",
                     id="fewer_fields_after_blank_lines"),
        pytest.param("whitespace_line", "line 2: expected 7 fields, found 1",
                     id="whitespace_line"),
        pytest.param("not_utf8_header", "line 1 is not UTF-8", id="not_utf8_header"),
        pytest.param("not_utf8_first_row", "line 2 is not UTF-8", id="not_utf8_first_row"),
        pytest.param("not_utf8_unread_column", "line 51 is not UTF-8",
                     id="not_utf8_unread_column"),
        pytest.param("underscore_number", "line 51: rho12_re field '1_0' is not a number",
                     id="underscore_number"),
        pytest.param("underscore_then_text", "line 51: rho12_re field '1_0' is not a number",
                     id="underscore_then_text"),
        pytest.param("non_ascii_digit", "line 51: rho12_re field '\u0661' is not a number",
                     id="non_ascii_digit"),
        pytest.param("empty_file", "empty CSV", id="empty_file"),
        pytest.param("nan_field", "line 51: rho12_re field 'nan' is not a finite number",
                     id="nan_field"),
        pytest.param("inf_field", "line 51: rho12_re field '-inf' is not a finite number",
                     id="inf_field"),
    ])
    def test_damaged_csv_is_runtime_error(self, tmp_path, capsys, which, damage, message):
        # every one exits 2 when every column is parsed too; a per-column
        # read (loadtxt usecols) would accept the field-count and cut-row
        # ones.  Lines are counted in the file, from 1 with the header and
        # the lines loadtxt skips, which are empty before any "#" comment.
        # Python's float() accepts "1_0" and "\u0661"; loadtxt does not.
        # loadtxt parses "nan" and "-inf", which no run writes.  When both
        # files are damaged, a is named, as the file read first
        a, b = self._write_pair(tmp_path)
        damaged = {"a": [a], "b": [b], "both": [a, b]}[which]
        for bad in damaged:
            text = bad.read_text(encoding="utf-8")
            lines = text.splitlines(keepends=True)
            if damage.startswith("fewer_fields"):
                lines[50] = lines[50].rsplit(",", 1)[0] + "\n"
                if damage.endswith("blank_lines"):
                    lines[1:1] = ["\n", "# comment\n", "\n"]
            elif damage == "whitespace_line":
                lines[1:1] = ["  \n"]
            elif damage.startswith("not_utf8"):
                # byte 0xff (written through surrogateescape) in the header's
                # rho12_re, the first row's t, or a later row's unread purity
                row, field = {"header": (0, 3), "first_row": (1, 0),
                              "unread_column": (50, 5)}[damage[len("not_utf8_"):]]
                fields = lines[row].split(",")
                fields[field] += "\udcff"
                lines[row] = ",".join(fields)
            elif damage in ("underscore_number", "underscore_then_text", "non_ascii_digit",
                            "nan_field", "inf_field"):
                values = {"underscore_number": ["1_0"], "underscore_then_text": ["1_0", "oops"],
                          "non_ascii_digit": ["\u0661"], "nan_field": ["nan"],
                          "inf_field": ["-inf"]}[damage]
                for row, value in enumerate(values, start=50):
                    fields = lines[row].split(",")
                    fields[3] = value
                    lines[row] = ",".join(fields)
            elif damage == "empty_file":
                lines = []
            elif damage == "more_fields":
                lines[50] = lines[50].rstrip("\n") + ",0\n"
            elif damage == "cut_mid_row":
                # inside rho12_im, past the compared rho12_re
                head = lines[-1].split(",")[:5]
                lines[-1] = ",".join(head)[:-3]
            else:
                assert lines[-1].endswith("e-17\n")
                lines[-1] = lines[-1][:-len("17\n")]
            bad.write_text("".join(lines), encoding="utf-8", errors="surrogateescape")
        assert main(["compare", str(a), str(b), "--cutoff", "0.5"]) == 2
        assert_no_child_left()
        assert capsys.readouterr().err == f"error: {damaged[0]}: {message}\n"

    def test_non_numeric_compared_field_is_runtime_error(self, tmp_path, capsys):
        a, b = self._write_pair(tmp_path)
        lines = b.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[10].split(",")
        fields[3] = "oops"
        lines[10] = ",".join(fields)
        b.write_text("".join(lines), encoding="utf-8")
        assert main(["compare", str(a), str(b), "--cutoff", "0.5"]) == 2
        assert capsys.readouterr().err == (
            f"error: {b}: line 11: rho12_re field 'oops' is not a number\n")

    def test_fields_of_columns_not_read_are_not_parsed(self, tmp_path, capsys):
        a, b = self._write_pair(tmp_path)
        assert main(["compare", str(a), str(b), "--cutoff", "0.5"]) == 0
        clean = capsys.readouterr().out
        lines = b.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[10].split(",")
        fields[1], fields[5] = "oops", ""
        lines[10] = ",".join(fields)
        b.write_text("".join(lines), encoding="utf-8")
        assert main(["compare", str(a), str(b), "--cutoff", "0.5"]) == 0
        assert capsys.readouterr().out == clean
        # the same field in the compared column is parsed, and fails
        assert main(["compare", str(a), str(b), "--cutoff", "0.5",
                     "--column", "rho11_re"]) == 2

    def test_grid_mismatch_is_runtime_error(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(small_config), "--out", str(out)])
        short = tmp_path / "short.csv"
        lines = (out / "exact.csv").read_text().splitlines()
        short.write_text("\n".join(lines[:100]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["compare", str(out / "exact.csv"), str(short),
                     "--cutoff", "0.5"]) == 2


class TestDerive:
    def test_prints_generators(self, small_config, capsys):
        assert main(["derive", "--order", "2", str(small_config)]) == 0
        out = capsys.readouterr().out
        assert "effective Hamiltonian" in out
        assert "order-2 generator" in out

    def test_order_out_of_range(self, small_config, capsys):
        assert main(["derive", "--order", "5", str(small_config)]) == 1

    def test_order_checked_before_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "ac_stark", "b": -3, "t_max": 1}', encoding="utf-8")
        assert main(["derive", "--order", "5", str(path)]) == 1
        assert capsys.readouterr().err == "error: --order must be between 0 and 3\n"

    def test_overflowing_series_is_validation_error(self, tmp_path, capsys):
        # the closed-form generator is finite, the order-3 products are not;
        # numpy warnings would fail the test (filterwarnings = error); the
        # grid is fine enough for RK4 to be stable
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(
            {"kind": "ac_stark", "b": 1e150, "t_max": 1e-298, "dt": 1e-300}
        ), encoding="utf-8")
        assert main(["derive", "--order", "3", str(cfg)]) == 1
        assert capsys.readouterr() == (
            "", "error: drive operators too large: the generator series overflows\n")

    @pytest.mark.parametrize("name", ["ac_stark.json", "raman.json", "raman_equal_detuning.json",
                                      "custom_d4"])
    def test_printout_matches_library(self, name, tmp_path, capsys):
        if name == "custom_d4":
            # d = 4 with three drives 0.05 apart: their differences pass the
            # default cutoff, their sums do not
            rng = np.random.default_rng(4)
            a, *hs = 0.1 * (rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4)))

            def as_json(m):
                return [[[v.real, v.imag] for v in row] for row in m]
            path = tmp_path / "custom_d4.json"
            path.write_text(json.dumps({
                "kind": "custom_harmonic", "h0": as_json((a + a.conj().T) / 2),
                "terms": [{"h": as_json(h), "omega": 1.0 + 0.05 * k} for k, h in enumerate(hs)],
                "initial": np.diag([1.0, 0, 0, 0]).tolist(), "t_max": 10, "dt": 0.01,
            }), encoding="utf-8")
        else:
            path = CONFIG_DIR / name
        assert main(["derive", "--order", "3", str(path)]) == 0
        headers, blocks = [], []
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("#"):
                headers.append(line)
                blocks.append([])
            else:
                blocks[-1].append([complex(token) for token in line.split()])
        cfg = load_scenario(path)
        t0 = cfg.grid.t0
        assert headers == [f"# scenario kind: {cfg.kind}",
                           "# effective Hamiltonian at t0=0",
                           "# decoherence superoperator at t0=0",
                           *(f"# order-{k} generator at t0=0 (acts on vec(rho))" for k in (1, 2, 3))]
        series = generator_series(cfg.hamiltonian.as_fourier(), cfg.averaging_filter(), t0, 3)
        want = [cfg.generator.effective_hamiltonian(t0), cfg.generator.decoherence_superop(t0),
                *(series.maps[k].evaluate(t0) for k in (1, 2, 3))]
        d = cfg.hamiltonian.dim
        assert blocks[0] == []
        for k, (rows, matrix) in enumerate(zip(blocks[1:], want, strict=True)):
            n = d if k == 0 else d * d  # H_eff, then the superoperators on vec(rho)
            assert [len(row) for row in rows] == [n] * n
            got = np.array(rows)
            np.testing.assert_allclose(got.real, matrix.real, rtol=0, atol=5e-7)
            np.testing.assert_allclose(got.imag, matrix.imag, rtol=0, atol=5e-7)

    def test_format_edge_cases(self):
        # values below 5e-7 print as +-0.000000, the sign kept
        assert _format_matrix(np.array([[1e-9, -1e-9], [-0.0, 12.5 - 3.25j]])) == (
            " 0.000000+0.000000j  -0.000000+0.000000j\n"
            "-0.000000+0.000000j   12.500000-3.250000j")
        lines = _format_matrix(np.arange(256.0).reshape(16, 16) * (1 - 1j)).split("\n")
        assert [len(line.split()) for line in lines] == [16] * 16
        assert _format_matrix(np.array([[2 - 1e-3j]])) == " 2.000000-0.001000j"


def test_delta_only_labels_the_run(tmp_path, capsys):
    # ac_stark is built in units of delta: the CSVs and the derived matrices
    # are the same for every delta, and the report differs only in params
    outputs = []
    for delta in (1, 2, 0.37):
        path = tmp_path / f"delta_{delta}.json"
        path.write_text(json.dumps({"kind": "ac_stark", "b": 0.3, "t_max": 20, "dt": 0.01,
                                    "t0": 1, "delta": delta}), encoding="utf-8")
        out = tmp_path / f"out_{delta}"
        assert main(["run", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["derive", "--order", "3", str(path)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report.pop("params") == {"b": 0.3, "delta": delta, "Omega": 0.3 * delta}
        outputs.append(((out / "exact.csv").read_bytes(), (out / "effective.csv").read_bytes(),
                        capsys.readouterr().out, report))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert "# effective Hamiltonian at t0=1\n" in outputs[0][2]


@pytest.mark.parametrize("command", ["run", "derive"])
def test_one_effective_generator_per_command(small_config, tmp_path, monkeypatch, command):
    built = []
    init = EffectiveGenerator.__init__

    def counting_init(self, hamiltonian):
        built.append(hamiltonian)
        init(self, hamiltonian)

    monkeypatch.setattr(EffectiveGenerator, "__init__", counting_init)
    argv = {"run": ["run", str(small_config), "--out", str(tmp_path / "out")],
            "derive": ["derive", str(small_config)]}[command]
    assert main(argv) == 0
    assert len(built) == 1


@pytest.mark.parametrize("command, reason", [
    ("validate", "Is a directory"), ("compare", "Is a directory"), ("run", "File exists"),
], ids=["validate_directory", "compare_directory", "run_out_is_a_file"])
def test_unusable_path_is_one_line_validation_error(small_config, tmp_path, capsys,
                                                    command, reason):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    argv = {"validate": ["validate", str(tmp_path)],
            "compare": ["compare", str(tmp_path), str(tmp_path), "--cutoff", "0.5"],
            "run": ["run", str(small_config), "--out", str(taken)]}[command]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: [Errno ") and reason in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, line", [
    (["compare", "a", "b", "--cutoff", "abc"], r"argument --cutoff: invalid float value: 'abc'"),
    (["derive", "--order", "x", "c.json"], r"argument --order: invalid int value: 'x'"),
    (["run", "c.json"], r"the following arguments are required: --out"),
    (["bogus"], r"argument command: invalid choice: 'bogus' \(choose from .*\)"),
    ([], r"the following arguments are required: command"),
], ids=["cutoff", "order", "no_out", "bogus", "no_command"])
def test_argument_error_is_one_line_validation_error(capsys, argv, line):
    # argparse would exit 2, the runtime-error code, with a usage line and an error line
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(f"error: {line}\n", err)


def test_parser_built_once_carries_nothing_between_calls(small_config, tmp_path, capsys,
                                                        monkeypatch):
    # main builds its parser once per process; every call, whatever came before
    # it, exits and prints as it does through a freshly built parser
    t = np.arange(2001) * 0.01
    for name, phase in (("a.csv", 0.0), ("b.csv", 0.1)):
        record = TrajectoryRecord(("t", "rho12_re"), np.column_stack([t, np.cos(t + phase)]))
        emit_csv(record, tmp_path / name)
    calls = [["derive", "--order", "x", str(small_config)],
             ["validate", str(small_config)],
             ["derive", "--order", "3", str(small_config)],
             ["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--cutoff", "0.5"],
             ["derive", "--order", "4", str(small_config)],
             ["derive", "--order", "1", str(small_config)],
             ["derive", str(small_config)]]

    def outcomes():
        return [(main(argv), *capsys.readouterr()) for argv in calls]

    cached = outcomes()
    assert avgdyn.cli._build_parser() is avgdyn.cli._build_parser()
    fresh = avgdyn.cli._build_parser.__wrapped__
    monkeypatch.setattr(avgdyn.cli, "_build_parser", lambda: fresh())
    assert outcomes() == cached
    assert [code for code, _, _ in cached] == [1, 0, 0, 0, 1, 0, 0]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--help"])
    assert exc.value.code == 0
    assert "--cutoff" in capsys.readouterr().out


def _raise_if(exc):
    if exc is not None:
        raise exc


def _exit_in_child(code):
    if code:
        os._exit(code)


class TestTwoProcesses:
    """run writes exact.csv in a child while the averaged model runs, and
    compare reads its two CSVs in two processes."""

    def test_results_in_call_order(self):
        with _in_child(divmod, 7, 2) as child:
            parent = divmod(9, 4)
        assert child == [(3, 1)] and parent == (2, 1)
        assert_no_child_left()

    @pytest.mark.parametrize("exc", [
        FileNotFoundError(2, "No such file or directory", "a.csv"),
        IsADirectoryError(21, "Is a directory", "out/exact.csv"),
        ValueError("a.csv: line 51: expected 7 fields, found 6"),
        KeyError("no column 'x'; have ('t',)"),
    ], ids=["file_not_found", "is_a_directory", "value", "key"])
    @pytest.mark.parametrize("second", [None, ValueError("second")], ids=["second_ok", "second_fails"])
    def test_child_exception_comes_back(self, exc, second):
        # the call runs in the child; its exception wins over the block's
        with pytest.raises(type(exc)) as info:
            with _in_child(_raise_if, exc):
                _raise_if(second)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        assert info.value.args == exc.args
        assert_no_child_left()

    def test_parent_exception_when_the_child_succeeds(self):
        with pytest.raises(KeyError, match="second"):
            with _in_child(_raise_if, None) as child:
                _raise_if(KeyError("second"))
        assert child == []
        assert_no_child_left()

    def test_child_without_a_result(self):
        with pytest.raises(ValueError, match="exit code 3 and no result"):
            with _in_child(_exit_in_child, 3):
                pass
        assert_no_child_left()

    @pytest.mark.parametrize("command, fn", [("run", "emit_csv"), ("compare", "read_csv")])
    def test_failed_fork_is_one_line_runtime_error(self, small_config, tmp_path, capsys,
                                                   monkeypatch, command, fn):
        out = tmp_path / "out"
        if command == "compare":
            assert main(["run", str(small_config), "--out", str(out)]) == 0
            capsys.readouterr()
        pipes, real_pipe = [], os.pipe

        def pipe():
            pipes.extend(fds := real_pipe())
            return fds

        def fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "pipe", pipe)
        monkeypatch.setattr(os, "fork", fork)
        argv = {"run": ["run", str(small_config), "--out", str(out)],
                "compare": ["compare", str(out / "exact.csv"), str(out / "effective.csv"),
                            "--cutoff", "0.5"]}[command]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot start a process for {fn}: [Errno {errno.EAGAIN}] "
                f"{os.strerror(errno.EAGAIN)}\n")
        # the pipe meant for the child is closed
        assert len(pipes) == 2
        for fd in pipes:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_averaged_stage_failing_after_the_exact_child_started(self, small_config, tmp_path,
                                                                 capsys, monkeypatch):
        reference = tmp_path / "reference.csv"
        emit_csv(run_scenario(load_scenario(small_config)).exact, reference)

        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr(avgdyn.scenarios, "propagate_effective", boom)
        out = tmp_path / "out"
        assert main(["run", str(small_config), "--out", str(out)]) == 2
        assert_no_child_left()
        assert capsys.readouterr() == ("", "error: boom\n")
        # the child, started before the averaged stage, finishes exact.csv;
        # nothing else is written
        assert (out / "exact.csv").read_bytes() == reference.read_bytes()
        assert sorted(path.name for path in out.iterdir()) == ["exact.csv"]

    def test_failed_averaged_stage_wins_over_an_unwritable_exact_csv(self, small_config,
                                                                     tmp_path, capsys,
                                                                     monkeypatch):
        # as before the child existed: the run's error, not the CSV's, exit 2
        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr(avgdyn.scenarios, "propagate_effective", boom)
        out = tmp_path / "out"
        (out / "exact.csv").mkdir(parents=True)
        assert main(["run", str(small_config), "--out", str(out)]) == 2
        assert_no_child_left()
        assert capsys.readouterr() == ("", "error: boom\n")

    @pytest.mark.parametrize("config", ["ac_stark.json", "raman.json"])
    def test_run_csvs_match_in_process_writes(self, tmp_path, capsys, config):
        result = run_scenario(load_scenario(CONFIG_DIR / config))
        emit_csv(result.exact, tmp_path / "exact.csv")
        emit_csv(result.effective, tmp_path / "effective.csv")
        out = tmp_path / "out"
        assert main(["run", str(CONFIG_DIR / config), "--out", str(out)]) == 0
        assert_no_child_left()
        for name in ("exact.csv", "effective.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("config, n_columns", [
        ({"kind": "raman", "Omega1": 0.1, "Omega2": 0.1, "omega1": 1.0, "omega2": 1.02,
          "t_max": 20, "dt": 0.02}, 20),
        ({"kind": "ac_stark", "b": 0.3, "t_max": 20, "dt": 0.01}, 7),
    ], ids=["raman", "ac_stark"])
    def test_run_csvs_match_the_per_value_reference(self, tmp_path, capsys, config, n_columns):
        # exact.csv is written by the forked child, effective.csv in process
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        result = run_scenario(load_scenario(path))
        assert len(result.exact.columns) == n_columns
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert_no_child_left()
        for name, record in (("exact.csv", result.exact), ("effective.csv", result.effective)):
            assert (out / name).read_bytes() == csv_reference(record).encode("utf-8")

    @pytest.mark.parametrize("blocked", [("exact.csv",), ("effective.csv",),
                                         ("exact.csv", "effective.csv")],
                             ids=["exact", "effective", "both"])
    def test_unwritable_csv_is_one_line(self, small_config, tmp_path, capsys, blocked):
        out = tmp_path / "out"
        for name in blocked:
            (out / name).mkdir(parents=True)
        assert main(["run", str(small_config), "--out", str(out)]) == 1
        assert_no_child_left()
        named = out / blocked[0]
        assert capsys.readouterr() == (
            "", f"error: [Errno 21] Is a directory: {str(named)!r}\n")
        # the other file is written all the same
        for name in {"exact.csv", "effective.csv"} - set(blocked):
            assert (out / name).read_text(encoding="utf-8").startswith("t,")


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"kind": "ac_stark", "b": 0.3, "t_max": 2, "dt": 0.01}
        ), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "avgdyn", "validate", str(cfg)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "OK" in proc.stdout


def test_dumps_names_the_first_non_finite_value_in_written_order():
    report = {"b": {"z": float("nan"), "a": [1.0, float("-inf")]}, "a": 1.0, "c": float("inf")}
    with pytest.raises(ValueError, match=r"^b\.a\.1 is -inf, which is not JSON compliant$"):
        _dumps(report)
    assert strict_json(_dumps({"a": [1.0, None], "b": {"c": 2}})) == {"a": [1.0, None],
                                                                      "b": {"c": 2}}
