"""Per-layer spans and counts, recorded from outside the program.

While an op runs traced, :meth:`Tracer.installed` rebinds each layer's
public functions where the calling module looks them up (for example
``avgdyn.scenarios.propagate_exact`` and ``avgdyn.cli.run_scenario``),
and methods on their classes, to wrappers that record a span or bump a
counter.  The originals are restored when the op ends, so the checks
that run between ops are neither counted nor timed.  Spans stay in
memory as (name, start, end, parent, op id) until the run writes them
out.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import time
from collections import Counter, defaultdict
from pathlib import Path

import avgdyn.cli
import avgdyn.raman
import avgdyn.scenarios
from avgdyn.fourier import FourierOperator
from avgdyn.harmonic import EffectiveGenerator

NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Stand-in for untraced ops: installs nothing, records nothing."""

    traced = False

    def installed(self, op_id):
        return NULL_SPAN

    def span(self, name):
        return NULL_SPAN


NULL_TRACER = NullTracer()


class Tracer:
    traced = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._op_id = None

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _rebindings(self, counts):
        """(owner, attribute, replacement) for every traced boundary;
        counters add to ``counts``."""
        spanned = self._spanned
        cli, sc, raman = avgdyn.cli, avgdyn.scenarios, avgdyn.raman

        def counted(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def file_bytes(name, arg):
            def after(args, result):
                counts[name] += Path(args[arg]).stat().st_size
            return after

        def steps(name):
            def after(args, result):
                counts[name] += len(result.times) - 1
            return after

        def l3_terms(args, result):
            if len(result.maps) > 3:
                counts["fourier.terms_L3"] += len(result.maps[3].terms)

        compare = spanned("scenarios.compare_trajectories", sc.compare_trajectories)
        fit = raman.RotatingSolution.__dict__["fit"].__func__
        return [
            (FourierOperator, "evaluate",
             counted("fourier.evaluate_calls", FourierOperator.evaluate)),
            (FourierOperator, "__init__",
             counted("fourier.operators_built", FourierOperator.__init__)),
            (EffectiveGenerator, "master_rhs",
             counted("harmonic.master_rhs_calls", EffectiveGenerator.master_rhs)),
            (sc, "bloch_decompose",
             counted("linalg.bloch_decompose_calls", sc.bloch_decompose)),
            (cli, "load_scenario", spanned("scenarios.load_scenario", cli.load_scenario)),
            (cli, "run_scenario", spanned("scenarios.run_scenario", cli.run_scenario)),
            (cli, "emit_csv", spanned("scenarios.emit_csv", cli.emit_csv,
                                      file_bytes("scenarios.emit_csv_bytes", 1))),
            (cli, "read_csv", spanned("scenarios.read_csv", cli.read_csv,
                                      file_bytes("scenarios.read_csv_bytes", 0))),
            (cli, "compare_trajectories", compare),
            (sc, "compare_trajectories", compare),
            (cli, "generator_series", spanned("averaging.generator_series",
                                              cli.generator_series, l3_terms)),
            (sc, "validity_ratio", spanned("averaging.validity_ratio", sc.validity_ratio)),
            (sc, "propagate_exact", spanned("dynamics.propagate_exact", sc.propagate_exact,
                                            steps("dynamics.exact_steps"))),
            (sc, "propagate_effective", spanned("dynamics.propagate_effective",
                                                sc.propagate_effective,
                                                steps("dynamics.effective_steps"))),
            (sc, "build_record", spanned("scenarios.build_record", sc.build_record)),
            (sc, "lowpass_series", spanned("signals.lowpass_series", sc.lowpass_series)),
            (sc, "dominant_frequency", spanned("signals.dominant_frequency",
                                               sc.dominant_frequency)),
            (EffectiveGenerator, "__init__", spanned("harmonic.EffectiveGenerator_init",
                                                     EffectiveGenerator.__init__)),
            (raman, "integrate_bloch", spanned("raman.integrate_bloch", raman.integrate_bloch)),
            (raman.RotatingSolution, "fit", classmethod(spanned("raman.RotatingSolution", fit))),
            (raman.RotatingSolution, "sample",
             spanned("raman.RotatingSolution", raman.RotatingSolution.sample)),
        ]

    @contextlib.contextmanager
    def installed(self, op_id):
        """Trace the program for the duration of one op."""
        self._op_id = op_id
        counts = self.counts[op_id]
        rebinds = self._rebindings(counts)
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in rebinds]
        handler = _WarningCounter(counts)
        dynamics_log = logging.getLogger("avgdyn.dynamics")
        dynamics_log.addHandler(handler)
        try:
            for owner, attr, replacement in rebinds:
                setattr(owner, attr, replacement)
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            dynamics_log.removeHandler(handler)
            self._op_id = None

    def self_times(self, op_id) -> dict[str, float]:
        """Span duration minus the time covered by its children, summed by
        name over the spans of one op."""
        own = {i: s for i, s in enumerate(self.spans) if s[4] == op_id}
        child_time = Counter()
        for name, start, end, parent, _ in own.values():
            if parent is not None:
                child_time[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in own.items():
            out[name] += (end - start) - child_time[i]
        return dict(out)

    def records(self):
        keys = ("name", "start", "end", "parent", "op")
        return [dict(zip(keys, s)) for s in self.spans]


class _WarningCounter(logging.Handler):
    """Counts the propagators' two kinds of warning; the message prefixes
    are the program's current wording."""

    KINDS = (("trace drifted", "dynamics.trace_renorm_warnings"),
             ("averaged evolution dipped", "dynamics.positivity_warnings"))

    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self._counts = counts

    def emit(self, record):
        for prefix, key in self.KINDS:
            if record.msg.startswith(prefix):
                self._counts[key] += 1
