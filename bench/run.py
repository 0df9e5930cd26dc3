#!/usr/bin/env python3
"""avgdyn benchmark: one workload, one seed, one client in a closed loop.

    python3 bench/run.py --workload ac_stark_long --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``
there and nowhere else.  Every metric is printed by name with its unit,
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
Workloads, metrics and layers are described in README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
# Every matrix here is at most 16 x 16, where BLAS threads cannot help and
# only add scheduling noise: the whole benchmark runs on one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metric -> span whose self time it reports, per op
SPAN_METRICS = {
    "dynamics.propagate_exact_s": "dynamics.propagate_exact",
    "dynamics.propagate_effective_s": "dynamics.propagate_effective",
    "scenarios.run_scenario_self_s": "scenarios.run_scenario",
    "scenarios.build_record_s": "scenarios.build_record",
    "scenarios.emit_csv_s": "scenarios.emit_csv",
    "scenarios.read_csv_s": "scenarios.read_csv",
    "scenarios.compare_trajectories_self_s": "scenarios.compare_trajectories",
    "scenarios.load_scenario_s": "scenarios.load_scenario",
    "signals.lowpass_series_s": "signals.lowpass_series",
    "signals.dominant_frequency_s": "signals.dominant_frequency",
    "averaging.validity_ratio_s": "averaging.validity_ratio",
    "averaging.generator_series_s": "averaging.generator_series",
    "harmonic.EffectiveGenerator_init_s": "harmonic.EffectiveGenerator_init",
    "cli.run_self_s": "cli.run",
    "cli.compare_self_s": "cli.compare",
    "cli.derive_self_s": "cli.derive",
    "raman.integrate_bloch_s": "raman.integrate_bloch",
    "raman.RotatingSolution_s": "raman.RotatingSolution",
}
COUNT_METRICS = (
    "fourier.evaluate_calls",
    "fourier.operators_built",
    "fourier.terms_L3",
    "harmonic.master_rhs_calls",
    "linalg.bloch_decompose_calls",
    "dynamics.trace_renorm_warnings",
    "dynamics.positivity_warnings",
)
BYTE_METRICS = ("scenarios.emit_csv_bytes", "scenarios.read_csv_bytes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="keep starting ops while they are expected to end within this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import avgdyn from this checkout's src/, never an installed copy."""
    package = SRC / "avgdyn"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no avgdyn sources at {package}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import avgdyn
    if Path(avgdyn.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported avgdyn from {avgdyn.__file__}, not {package}")


def setup_seconds(args) -> float:
    """Median wall time of fresh processes that do only the set-up: start
    Python, import avgdyn, generate the seeded inputs and write them."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms,
        # which would quantize the samples
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def reference_loop(n=16_000):
    """Fixed pure-Python work, about 1 ms on a 2-vCPU x86-64 virtual machine."""
    total = 0
    for i in range(n):
        total += i * i
    return total


class SpeedSampler:
    """Samples how fast the machine runs while the ops run.

    Every ``period_s`` of wall time a timer signal runs ``reference_loop``
    in the main thread and records its duration; ops report their time
    net of these samples.  On a shared machine the speed of both drifts
    together, by 10-30 % over tens of seconds, so op time over reference
    time is steady where raw seconds are not.
    """

    def __init__(self, period_s=0.1):
        self.period_s = period_s
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_op(wl, ctx, op_id, index, config, path, tracer, sampler):
    """Run one op; returns its record and outputs (None if it raised)."""
    record = {"op": op_id, "config": index, "traced": tracer.traced,
              "failures": [], "diagnostics": {}}
    outputs = None
    sampled = sampler.spent if sampler else 0.0
    start = time.perf_counter()
    try:
        with tracer.installed(op_id), tracer.span("op"):
            outputs = wl.OPS[ctx.workload](ctx.for_op(op_id), config, path, tracer)
    except Exception:
        record["failures"].append("op raised:\n" + traceback.format_exc())
    record["wall_s"] = time.perf_counter() - start
    record["own_s"] = record["wall_s"] - ((sampler.spent if sampler else 0.0) - sampled)
    return record, outputs


def check_op(wl, ctx, record, config, outputs):
    """Check one op's outputs, then delete its scratch files."""
    op_ctx = ctx.for_op(record["op"])
    if outputs is not None:
        try:
            failures, record["diagnostics"] = wl.CHECKS[ctx.workload](
                op_ctx, record["config"], config, outputs)
            record["failures"] += failures
        except Exception:
            record["failures"].append("check raised:\n" + traceback.format_exc())
    shutil.rmtree(op_ctx.workdir, ignore_errors=True)


def measure(wl, ctx, args, tracers, sampler):
    """Closed loop over whole passes of the workload's configs until the
    next pass is expected to end after ``args.seconds``.

    Each op runs once per tracer; traced runs pass an untraced and a
    traced one, so the two can be compared, and no sampler.  The first
    pass is checked only after it ends, once the peak resident set of
    ops alone has been read; later ops are checked as they end.
    """
    configs = wl.make_configs(ctx.workload, args.seed)
    paths = wl.write_configs(configs, ctx.workdir)
    records, unchecked, pass_walls = [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    with sampler or contextlib.nullcontext():
        while True:
            pass_start = time.perf_counter()
            for index, (config, path) in enumerate(zip(configs, paths)):
                for tracer in tracers:
                    record, outputs = run_op(wl, ctx, len(records), index, config, path,
                                             tracer, sampler)
                    records.append(record)
                    if peak_rss_mb is None:
                        unchecked.append((record, config, outputs))
                    else:
                        check_op(wl, ctx, record, config, outputs)
            now = time.perf_counter()
            pass_walls.append(now - pass_start)
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                for item in unchecked:
                    check_op(wl, ctx, *item)
            if now - start + statistics.median(pass_walls) > args.seconds:
                return records, peak_rss_mb


def percentile(values, q):
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(records, setup_s, peak_rss_mb, sampler):
    """The gated metrics, then raw op seconds that are printed only."""
    own = [r["own_s"] for r in records]
    ref_s = statistics.median(sampler.samples)
    p50, p90 = percentile(own, 50), percentile(own, 90)
    gated = {
        "setup_s": (setup_s, "s"),
        "op_p50_ref": (p50 / ref_s, "ref"),
        "op_p90_ref": (p90 / ref_s, "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    printed = {"op_p50_s": (p50, "s"), "op_p90_s": (p90, "s"), "ref_s": (ref_s, "s")}
    return gated, printed


def layer_metrics(records, tracer):
    """Per-op medians over the traced ops, plus the tracing overhead."""
    per_op = []
    for r in records:
        if not r["traced"]:
            continue
        self_s = tracer.self_times(r["op"])
        counts = tracer.counts[r["op"]]
        row = {name: self_s.get(span, 0.0) for name, span in SPAN_METRICS.items()}
        for name in COUNT_METRICS + BYTE_METRICS:
            row[name] = counts[name]
        exact_steps, effective_steps = (counts["dynamics.exact_steps"],
                                        counts["dynamics.effective_steps"])
        row["dynamics.steps"] = exact_steps + effective_steps
        row["dynamics.exact_us_per_step"] = (
            1e6 * row["dynamics.propagate_exact_s"] / exact_steps if exact_steps else 0.0)
        row["dynamics.effective_us_per_step"] = (
            1e6 * row["dynamics.propagate_effective_s"] / effective_steps
            if effective_steps else 0.0)
        per_op.append(row)
    metrics = {}
    for name in per_op[0]:
        unit = ("us" if name.endswith("_us_per_step") else "s" if name.endswith("_s")
                else "B" if name in BYTE_METRICS else "count")
        metrics[name] = (statistics.median(row[name] for row in per_op), unit)
    untraced = statistics.median(r["wall_s"] for r in records if not r["traced"])
    traced = statistics.median(r["wall_s"] for r in records if r["traced"])
    metrics["trace_overhead_frac"] = ((traced - untraced) / untraced, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import_program()
    import tracing
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(wl.WORKLOADS)}")
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    if args.setup_probe:
        wl.write_configs(wl.make_configs(args.workload, args.seed), workdir)
        shutil.rmtree(workdir)
        return 0

    setup_s = None if args.trace else setup_seconds(args)
    ctx = wl.Context(args.workload, args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    tracers = (tracing.NULL_TRACER, tracer) if tracer else (tracing.NULL_TRACER,)
    sampler = None if tracer else SpeedSampler()
    try:
        records, peak_rss_mb = measure(wl, ctx, args, tracers, sampler)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics, printed = end_to_end_metrics(records, setup_s, peak_rss_mb, sampler)
    else:
        metrics, printed = layer_metrics(records, tracer), {}
    failed = [r for r in records if r["failures"]]
    attempted = len(records)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops attempted, {len(failed)} failed")
    print(f"fail_frac {len(failed) / attempted:.6g} ratio ({len(failed)} of {attempted})")
    for name, (value, unit) in {**metrics, **printed}.items():
        samples = f" (n={attempted})" if name.startswith("op_p") else ""
        print(f"{name} {value:.6g} {unit}{samples}")
    worst = {}
    for r in records:
        for key, value in r["diagnostics"].items():
            worst[key] = max(worst.get(key, value), value, key=abs)
    for key, value in sorted(worst.items()):
        print(f"diagnostic {key} {value:.3e} (largest magnitude over ops)")
    for r in failed[:5]:
        print(f"op {r['op']} (config {r['config']}) failed: {r['failures']}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    dump = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "metrics": {**metrics, **printed}, "ops": records,
            "spans": tracer.records() if tracer else [],
            "counts": {op: dict(c) for op, c in tracer.counts.items()} if tracer else {}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dump, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
