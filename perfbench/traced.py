"""Run one spinestat command in-process with spans and counts recorded.

Usage (with src on PYTHONPATH):

    python perfbench/traced.py [--memory] -- <spinestat argv ...>

Every public function of spinestat.trees, .series, .stats and .cli is
wrapped before the command runs; the package itself is not edited.  The
command's stdout is written unchanged to stdout and its exit code is kept.
The last line on stderr is `perfbench-trace <json>` with the per-layer
figures of this command and a per-function summary of the spans.

With --memory, tracemalloc runs too and only the memory figures count: the
slowdown it causes makes that run's times meaningless.
"""

from __future__ import annotations

import gc
import inspect
import io
import json
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

from spinestat import cli, series, stats, trees

LAYERS = (trees, series, stats, cli)
# Small functions called per tree or per recursion step: a span each would
# cost more than the call, so they get top-level call counts only.
HOT = {"trees.encode", "trees.successors", "trees.predecessor", "trees.spine_segments",
       "trees.size", "trees.decode", "trees.internal"}
# Size parameters recorded on a span when the wrapped function takes them.
SIZE_PARAMS = ("n", "k", "degree", "n_max", "max_n")
MB = 2**20


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "child_ns")

    def __init__(self, name: str, parent: Span | None):
        self.name, self.parent = name, parent
        self.start = self.end = self.child_ns = 0
        self.attrs: dict[str, int] = {}


def bit_size(value) -> int:
    """Largest operand bit length in a result: int, Fraction, series or
    distribution (a table counts by its last, largest row)."""
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, series.PowerSeries):
        return max((c.bit_length() for c in value.coeffs), default=0)
    if isinstance(value, stats.SpineDistribution):
        return max([value.total.bit_length(), *(c.bit_length() for c in value.counts)])
    if isinstance(value, list) and value:
        return bit_size(value[-1])
    return 0


class Recorder:
    """Spans kept in memory, plus counts for hot functions and generators."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.active: set[str] = set()
        self.calls: Counter[str] = Counter()
        self.gen_ns: Counter[str] = Counter()
        self.yields: Counter[str] = Counter()
        self.peak_bytes: Counter[str] = Counter()

    def wrap(self, name: str, fn):
        if name in HOT:
            return self._counted(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self._generator(name, fn)
        return self._spanned(name, fn)

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            if name in self.active:
                return fn(*args, **kwargs)
            self.active.add(name)
            self.calls[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.active.discard(name)
        return wrapper

    def _generator(self, name, fn):
        # Time is summed over the generator's own next() steps; the consumer
        # runs between them, so the generator is not a span around it.
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            frame = Span(name, None)
            while True:
                t0 = perf_counter_ns()
                self.stack.append(frame)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.stack.pop()
                    dt = perf_counter_ns() - t0
                    self.gen_ns[name] += dt
                    if self.stack:
                        self.stack[-1].child_ns += dt
                self.yields[name] += 1
                yield item
        return wrapper

    def _spanned(self, name, fn):
        code = fn.__code__
        params = code.co_varnames[:code.co_argcount]
        sized = [(p, params.index(p)) for p in SIZE_PARAMS if p in params]
        peak = self.memory and name == "stats.dist_recurrence"

        def wrapper(*args, **kwargs):
            if name in self.active:
                return fn(*args, **kwargs)
            span = Span(name, self.stack[-1] if self.stack else None)
            self.spans.append(span)
            self.stack.append(span)
            self.active.add(name)
            if peak:
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                self.stack.pop()
                self.active.discard(name)
                if self.stack:
                    self.stack[-1].child_ns += span.end - span.start
            if peak:
                grown = tracemalloc.get_traced_memory()[1] - held
                self.peak_bytes[name] = max(self.peak_bytes[name], grown)
            for param, i in sized:
                value = kwargs.get(param, args[i] if i < len(args) else None)
                if isinstance(value, int):
                    span.attrs[param] = value
            bits = bit_size(result) or (bit_size(args[0]) if args else 0)
            if bits:
                span.attrs["bits"] = bits
            if self.stack:
                # Nor does the parent's self time include this recording.
                self.stack[-1].child_ns += perf_counter_ns() - span.end
            return result
        return wrapper


def install(recorder: Recorder) -> None:
    """Replace every reference, in every spinestat module, to a public
    function of the traced layers by its wrapper."""
    wrapped = {}
    for module in LAYERS:
        layer = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                wrapped[obj] = recorder.wrap(f"{layer}.{name}", obj)
    for module_name, module in list(sys.modules.items()):
        if module_name == "spinestat" or module_name.startswith("spinestat."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])


def figures(rec: Recorder, out_bytes: int) -> dict[str, float]:
    """Per-layer figures of one command, named as in layers.json."""
    incl: Counter[str] = Counter()
    own: Counter[str] = Counter()
    calls: Counter[str] = Counter(rec.calls)
    bits: Counter[str] = Counter()
    for span in rec.spans:
        incl[span.name] += span.end - span.start
        own[span.name] += span.end - span.start - span.child_ns
        calls[span.name] += 1
        # Catalan numbers are the totals the stats routes divide by, not
        # series coefficients.
        layer = "stats" if span.name == "series.catalan" else span.name.split(".")[0]
        bits[layer] = max(bits[layer], span.attrs.get("bits", 0))
    s = 1e-9
    return {
        "trees.enumerate_s": rec.gen_ns["trees.enumerate_trees"] * s,
        "trees.trees_yielded": rec.yields["trees.enumerate_trees"],
        "trees.successors_calls": calls["trees.successors"],
        "trees.predecessor_calls": calls["trees.predecessor"],
        "trees.encode_calls": calls["trees.encode"],
        "trees.sample_s": rec.gen_ns["trees.sample_spines"] * s,
        "trees.samples_drawn": rec.yields["trees.sample_spines"],
        "series.node_gf_s": incl["series.node_gf"] * s,
        "series.node_gf_calls": calls["series.node_gf"],
        "series.ps_mul_s": incl["series.ps_mul"] * s,
        "series.ps_mul_calls": calls["series.ps_mul"],
        "series.coeff_bits_max": bits["series"],
        "series.catalan_s": incl["series.catalan"] * s,
        "series.catalan_calls": calls["series.catalan"],
        "stats.dist_recurrence_s": incl["stats.dist_recurrence"] * s,
        "stats.dist_closed_s": (own["stats.dist_closed_all"] + own["stats.dist_closed"]) * s,
        "stats.dist_series_s": own["stats.dist_series"] * s,
        "stats.dist_exhaustive_s": incl["stats.dist_exhaustive"] * s,
        "stats.table_s": (incl["stats.dist_recurrence_table"]
                          + incl["stats.dist_series_table"]) * s,
        "stats.average_s": incl["stats.average"] * s,
        "stats.render_decimal_s": incl["stats.render_decimal"] * s,
        "stats.render_decimal_calls": calls["stats.render_decimal"],
        "stats.count_bits_max": bits["stats"],
        "cli.self_s": sum(t for name, t in own.items() if name.startswith("cli.")) * s,
        "cli.out_bytes": out_bytes,
    }


def span_summary(rec: Recorder) -> dict[str, dict]:
    """Per function: calls, inclusive and self seconds, largest sizes."""
    summary: dict[str, dict] = {}
    for span in rec.spans:
        row = summary.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += (span.end - span.start) * 1e-9
        row["self_s"] += (span.end - span.start - span.child_ns) * 1e-9
        for key, value in span.attrs.items():
            row[f"max_{key}"] = max(row.get(f"max_{key}", 0), value)
    for name, count in rec.calls.items():
        summary.setdefault(name, {"calls": count})
    for name, ns in rec.gen_ns.items():
        summary[name].update(s=ns * 1e-9, yields=rec.yields[name])
    return summary


def main(argv: list[str]) -> int:
    memory = argv[0] == "--memory"
    command = argv[argv.index("--") + 1:]
    rec = Recorder(memory)
    install(rec)
    if memory:
        tracemalloc.start()
    out = io.StringIO()
    code = cli.main(command, out=out)
    text = out.getvalue()
    result = {"figures": figures(rec, len(text.encode())), "spans": span_summary(rec)}
    if memory:
        # Memory still held by trees after the command returned: the
        # enumeration cache, which outlives every caller.
        gc.collect()
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, trees.__file__)])
        result["figures"] = {
            "trees.retained_mb": sum(stat.size for stat in held.statistics("filename")) / MB,
            "stats.dist_recurrence_peak_mb": rec.peak_bytes["stats.dist_recurrence"] / MB,
        }
        tracemalloc.stop()
    sys.stdout.write(text)
    sys.stdout.flush()
    print("perfbench-trace " + json.dumps(result), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
