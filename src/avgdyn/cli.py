"""Command-line interface.

Subcommands: run a scenario and emit CSVs plus a JSON report, compare
two trajectory CSVs, derive the generator matrices of a scenario for
inspection, or just validate a config.  Exit codes: 0 success, 1
invalid input (a config, an argument, or a path that cannot be read or
written), 2 runtime/propagation error, a fork that fails included.

``run`` and ``compare`` each fork one child through :func:`_in_child`.
``run`` forks it from ``run_scenario``'s ``write`` hook once the exact
record is built, so ``exact.csv`` is formatted while the parent
propagates the averaged model, compares, and writes ``effective.csv``;
``compare`` reads ``a`` in the child and ``b`` in the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import sys
from pathlib import Path

import numpy as np

from .averaging import MAX_ORDER, generator_series
from .scenarios import (
    ScenarioError,
    compare_trajectories,
    emit_csv,
    load_scenario,
    read_csv,
    read_csv_columns,
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
    p_run.set_defaults(handler=_cmd_run)
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, required=True, help="output directory")

    p_cmp = sub.add_parser("compare", help="compare two trajectory CSVs")
    p_cmp.set_defaults(handler=_cmd_compare)
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    p_cmp.add_argument("--cutoff", type=float, required=True,
                       help="low-pass cutoff in rad/time")
    p_cmp.add_argument("--column", default="rho12_re")

    p_der = sub.add_parser("derive", help="print generator matrices of a scenario")
    p_der.set_defaults(handler=_cmd_derive)
    p_der.add_argument("config", type=Path)
    p_der.add_argument("--order", type=int, default=2, metavar="K",
                       help=f"series order, at most {MAX_ORDER}")

    p_val = sub.add_parser("validate", help="validate a scenario config")
    p_val.set_defaults(handler=_cmd_validate)
    p_val.add_argument("config", type=Path)
    return parser


def _non_finite(obj, path=()):
    """(key path, value) of the first NaN or infinite float in ``obj``, keys in
    sorted order as :func:`_dumps` writes them, or None."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return None if not isinstance(obj, float) or math.isfinite(obj) else (path, obj)
    for key, value in items:
        if found := _non_finite(value, path + (key,)):
            return found
    return None


def _dumps(obj) -> str:
    """Strict JSON: a NaN or infinite value raises ValueError (exit 2) naming its key."""
    if found := _non_finite(obj):
        path, value = found
        raise ValueError(f"{'.'.join(map(str, path))} is {value}, which is not JSON compliant")
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


@contextlib.contextmanager
def _in_child(fn, *args):
    """Run ``fn(*args)`` in a forked child process while the block runs.

    The block gets an empty list, which holds the child's result once the
    block has ended.  The child sends its result, or its exception, back to
    the parent pickled through a pipe, and ends in ``os._exit``: it runs no
    ``atexit`` handler and flushes none of the buffers it inherited.  The
    block's end waits for the child, so none is left behind, even when the
    block raises.  The child's exception wins over the block's, and a
    failed fork is a ``ValueError``.  Needs POSIX ``os.fork``.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise ValueError(f"cannot start a process for {fn.__name__}: {exc}") from None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, fn(*args))
            except Exception as exc:
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    result, block_error = [], None
    try:
        # closed before the wait, so a child still writing gets EPIPE, not a hang
        with open(read_fd, "rb") as pipe:
            try:
                yield result
            except Exception as exc:
                block_error = exc
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    # the child exits 0 only once its whole outcome is written
    if code := os.waitstatus_to_exitcode(status):
        raise ValueError(f"the child process for {fn.__name__} ended with exit "
                         f"code {code} and no result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    if block_error is not None:
        raise block_error
    result.append(value)


def _cmd_run(args) -> int:
    cfg = load_scenario(args.config)
    args.out.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as children:
        def write(label, record):
            # exact.csv is formatted in a child while the averaged model runs;
            # effective.csv is written below, after the warnings, as before
            if label == "exact":
                children.enter_context(_in_child(emit_csv, record, args.out / "exact.csv"))

        try:
            result = run_scenario(cfg, write)
        except Exception:
            # a failed run is reported, not an exact.csv the child failed meanwhile
            with contextlib.suppress(Exception):
                children.close()
            raise
        for message in result.warnings:
            print(f"warning: {message}", file=sys.stderr)
        emit_csv(result.effective, args.out / "effective.csv")
    report_text = _dumps(result.report)
    (args.out / "report.json").write_text(report_text + "\n", encoding="utf-8")
    print(report_text)
    return EXIT_OK


def _cmd_compare(args) -> int:
    if not args.cutoff > 0:
        raise ScenarioError(["--cutoff must be positive"])
    if np.isinf(args.cutoff):
        raise ScenarioError(["--cutoff must be finite"])
    names = ("t", args.column)
    for columns in map(read_csv_columns, (args.a, args.b)):
        for name in names:
            if name not in columns:
                raise ScenarioError([f"no column {name!r}; have {columns}"])
    with _in_child(read_csv, args.a, names) as child:
        b = read_csv(args.b, names)
    [a] = child
    metrics = compare_trajectories(a, b, args.cutoff, column=args.column)
    print(_dumps(metrics))
    return EXIT_OK


def _format_matrix(m) -> str:
    return np.array2string(np.asarray(m), precision=6, suppress_small=True,
                           max_line_width=120)


def _cmd_derive(args) -> int:
    if not 0 <= args.order <= MAX_ORDER:
        raise ScenarioError([f"--order must be between 0 and {MAX_ORDER}"])
    cfg = load_scenario(args.config)
    t0 = cfg.grid.t0
    # drives too large for floats overflow in the series products; reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        series = generator_series(cfg.hamiltonian.as_fourier(), cfg.averaging_filter(),
                                  t0, args.order)
    if not np.isfinite([m.max_abs() for m in series.maps]).all():
        raise ScenarioError(["drive operators too large: the generator series overflows"])
    print(f"# scenario kind: {cfg.kind}")
    print(f"# effective Hamiltonian at t0={t0:g}")
    print(_format_matrix(cfg.generator.effective_hamiltonian(t0)))
    print(f"# decoherence superoperator at t0={t0:g}")
    print(_format_matrix(cfg.generator.decoherence_superop(t0)))
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
    try:
        return args.handler(args)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
