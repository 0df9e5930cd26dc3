import json
import subprocess
import sys
from pathlib import Path

import pytest

from avgdyn.cli import main

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
        ("nan", "t0: must be a finite number, got nan"),
        ("inf", "t0: must be a finite number, got inf"),
    ])
    def test_malformed_t0(self, tmp_path, capsys, t0, message):
        path = tmp_path / "t0.json"
        path.write_text(json.dumps(
            {"kind": "ac_stark", "b": 0.3, "t_max": 20, "dt": 0.01, "t0": t0}
        ), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

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
