"""Command-line interface.

Subcommands: run a scenario and emit CSVs plus a JSON report, compare
two trajectory CSVs, derive the generator matrices of a scenario for
inspection, or just validate a config.  Exit codes: 0 success, 1
validation error, 2 runtime/propagation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .averaging import MAX_ORDER, generator_series
from .harmonic import EffectiveGenerator
from .scenarios import (
    ScenarioError,
    compare_trajectories,
    emit_csv,
    load_scenario,
    read_csv,
    run_scenario,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgdyn",
        description="Exact vs averaged density-matrix dynamics for harmonic drives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="propagate a scenario and write CSVs")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, required=True, help="output directory")

    p_cmp = sub.add_parser("compare", help="compare two trajectory CSVs")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    p_cmp.add_argument("--cutoff", type=float, required=True,
                       help="low-pass cutoff in rad/time")
    p_cmp.add_argument("--column", default="rho12_re")

    p_der = sub.add_parser("derive", help="print generator matrices of a scenario")
    p_der.add_argument("config", type=Path)
    p_der.add_argument("--order", type=int, default=2, metavar="K",
                       help=f"series order, at most {MAX_ORDER}")

    p_val = sub.add_parser("validate", help="validate a scenario config")
    p_val.add_argument("config", type=Path)
    return parser


def _cmd_run(args) -> int:
    cfg = load_scenario(args.config)
    result = run_scenario(cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    emit_csv(result.exact, args.out / "exact.csv")
    emit_csv(result.effective, args.out / "effective.csv")
    report_text = json.dumps(result.report, indent=2, sort_keys=True)
    (args.out / "report.json").write_text(report_text + "\n", encoding="utf-8")
    print(report_text)
    if not result.report["validity_ok"]:
        print("warning: validity ratio >= 1, second-order truncation is "
              "not justified for this scenario", file=sys.stderr)
    return EXIT_OK


def _cmd_compare(args) -> int:
    if not args.cutoff > 0:
        print("error: --cutoff must be positive", file=sys.stderr)
        return EXIT_VALIDATION
    rec_a = read_csv(args.a)
    rec_b = read_csv(args.b)
    metrics = compare_trajectories(rec_a, rec_b, args.cutoff, column=args.column)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return EXIT_OK


def _format_matrix(m) -> str:
    return np.array2string(np.asarray(m), precision=6, suppress_small=True,
                           max_line_width=120)


def _cmd_derive(args) -> int:
    cfg = load_scenario(args.config)
    if not 0 <= args.order <= MAX_ORDER:
        print(f"error: --order must be between 0 and {MAX_ORDER}", file=sys.stderr)
        return EXIT_VALIDATION
    t0 = cfg.grid.t0
    generator = EffectiveGenerator(cfg.hamiltonian)
    # drives too large for floats overflow in the series products; reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        series = generator_series(
            cfg.hamiltonian.as_fourier(), cfg.averaging_filter(), t0, args.order
        )
    if not np.isfinite([m.max_abs() for m in series.maps]).all():
        print("error: drive operators too large: the generator series overflows",
              file=sys.stderr)
        return EXIT_VALIDATION
    print(f"# scenario kind: {cfg.kind}")
    print(f"# effective Hamiltonian at t0={t0:g}")
    print(_format_matrix(generator.effective_hamiltonian(t0)))
    print(f"# decoherence superoperator at t0={t0:g}")
    print(_format_matrix(generator.decoherence_superop(t0)))
    for k in range(1, args.order + 1):
        print(f"# order-{k} generator at t0={t0:g} (acts on vec(rho))")
        print(_format_matrix(series.maps[k].evaluate(t0)))
    return EXIT_OK


def _cmd_validate(args) -> int:
    load_scenario(args.config)
    print(f"{args.config}: OK")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "derive": _cmd_derive,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except KeyError as exc:
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
