import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgdyn.cli import main
from avgdyn.harmonic import EffectiveGenerator
from avgdyn.scenarios import KINDS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

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
    ], ids=["nan_h0", "inf_term", "nan_initial", "long_int_number", "long_int_entry",
            "over_digit_limit", "bool_number", "string_number", "string_nan",
            "string_entries", "string_matrix", "bool_pair", "overflowing_drive",
            "overflowing_generator", "overflowing_raman_generator"])
    def test_malformed_numbers(self, tmp_path, capsys, keys, message):
        # NaN, Infinity and integers of any length are valid Python JSON; only
        # numbers count as numbers, and a drive whose operator overflows is
        # rejected at validation rather than at run time
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

    @pytest.mark.parametrize("rows, message", [
        ([], "trajectories have 0 samples, comparing them needs at least 64"),
        (["0,0.5"], "trajectories have 1 samples, comparing them needs at least 64"),
        (["0,0.5"] + [f"{0.1 * k:g},0.5" for k in range(100)],
         "time step must be positive, got 0"),
    ], ids=["header_only", "one_row", "repeated_time"])
    def test_uncomparable_csv_is_runtime_error(self, tmp_path, capsys, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["t,rho12_re"] + rows) + "\n", encoding="utf-8")
        assert main(["compare", str(path), str(path), "--cutoff", "0.5"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("cutoff", ["0", "-1", "nan"])
    def test_bad_cutoff_rejected_before_reading(self, tmp_path, capsys, cutoff):
        missing = str(tmp_path / "missing.csv")
        assert main(["compare", missing, missing, "--cutoff", cutoff]) == 1
        assert capsys.readouterr().err == "error: --cutoff must be positive\n"

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
