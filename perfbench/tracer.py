"""Spans around frobinom's public functions, recorded from outside the program.

`install` wraps every public function and method of the five layer modules
and rebinds each wrapper wherever the original is bound, so calls that cross
a layer through a `from ... import` name are counted too.  Spans stay in
memory as lists [id, parent, op, name, start, end, counts] until the run
writes them out.  A layer's self time is a span's duration minus the
durations of its child spans.
"""

import dataclasses
import functools
import inspect
import sys
import time

LAYERS = ("exactmath", "semigroup", "binomial", "corepartitions", "cli")

# Membership tests run inside the layers' inner loops (O(m^2) times in
# pseudo_frobenius, O(F^2) in a_set); a span per call would swamp the run.
UNTRACED = {"contains"}

ROOT = "bench.op"          # one per operation, around the benchmark's call
STARTUP = "cli.startup"    # process launch to entry into cli.main


# Counts read at a boundary from the arguments and the result of the call.
COUNTERS = {
    "exactmath.binomial": lambda args, result: {"bits": result.bit_length()},
    "semigroup.minimal_generators":
        lambda args, result: {"kept": len(result), "distinct": len(set(args[0]))},
    "semigroup.NumericalSemigroup.__init__":
        lambda args, result: {"apery_entries": args[0].multiplicity},
    "binomial.bn_apery_closed": lambda args, result: {"listed": len(result[1])},
    "corepartitions.a_set": lambda args, result: {"positions": args[0].frobenius + 1},
    "corepartitions.partition_of": lambda args, result: {"positions": args[0].frobenius + 1},
    "corepartitions.hook_set": lambda args, result: {"cells": sum(args[0].parts)},
    "corepartitions.enumerate_admissible":
        lambda args, result: {"positions": args[0].frobenius + 1, "pairs": len(result)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, self.op, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            record[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = clock()
                stack.pop()
            if counter is not None:
                record[6] = counter(args, result)
            return result

        return traced

    def run_op(self, op, fn, *args):
        """Call fn(*args) as operation `op`, under a root span."""
        self.op = op
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self.op = None

    def per_span_overhead_s(self, calls=20000):
        """Measured cost a span adds to one call of a trivial function."""
        def bare():
            return None
        probe = Tracer()
        traced = probe.wrap("probe", bare)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            bare()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def install(tracer):
    """Wrap frobinom's public functions and methods at every binding."""
    import frobinom
    import frobinom.cli  # noqa: F401  (the package does not import it)

    modules = {layer: sys.modules[f"frobinom.{layer}"] for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_methods(tracer, layer, obj)
    for module in [frobinom, *modules.values()]:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])


def _wrap_methods(tracer, layer, cls):
    # Methods are patched on the class, so every instance and binding sees them.
    for attr, member in list(vars(cls).items()):
        if not inspect.isfunction(member) or attr in UNTRACED:
            continue
        generated_init = attr == "__init__" and dataclasses.is_dataclass(cls)
        if attr.startswith("_") and (attr != "__init__" or generated_init):
            continue
        setattr(cls, attr, tracer.wrap(f"{layer}.{cls.__name__}.{attr}", member))


# --- aggregation ---------------------------------------------------------------

def self_times(spans):
    """{span id: duration minus the durations of its direct children}."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[5] - s[4]
    return own


# Per-layer metric -> (span name, what to read).  "self_s" sums self time,
# "calls" counts spans; the rest read the counts recorded at the boundary.
SPAN_METRICS = {
    "exactmath.binomial.calls": ("exactmath.binomial", "calls"),
    "exactmath.binomial.self_s": ("exactmath.binomial", "self_s"),
    "exactmath.factorize.self_s": ("exactmath.factorize", "self_s"),
    "semigroup.construct.self_s": ("semigroup.NumericalSemigroup.__init__", "self_s"),
    "semigroup.pseudo_frobenius.self_s": ("semigroup.NumericalSemigroup.pseudo_frobenius", "self_s"),
    "semigroup.is_telescopic.self_s": ("semigroup.NumericalSemigroup.is_telescopic", "self_s"),
    "semigroup.gaps.self_s": ("semigroup.NumericalSemigroup.gaps", "self_s"),
    "binomial.bn_report.self_s": ("binomial.bn_report", "self_s"),
    "binomial.decompose.self_s": ("binomial.decompose", "self_s"),
    "binomial.bn_apery_closed.calls": ("binomial.bn_apery_closed", "calls"),
    "binomial.verify_closed_vs_oracle.self_s": ("binomial.verify_closed_vs_oracle", "self_s"),
    "corepartitions.algorithm1.self_s": ("corepartitions.algorithm1", "self_s"),
    "corepartitions.exists_admissible_bn.self_s": ("corepartitions.exists_admissible_bn", "self_s"),
    "corepartitions.a_set.self_s": ("corepartitions.a_set", "self_s"),
    "corepartitions.partition_of.self_s": ("corepartitions.partition_of", "self_s"),
    "corepartitions.hook_set.self_s": ("corepartitions.hook_set", "self_s"),
    "corepartitions.enumerate_admissible.self_s": ("corepartitions.enumerate_admissible", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def layer_metrics(spans):
    """Per-layer metrics of a span list (counts and seconds are totals)."""
    own = self_times(spans)
    out = {}
    for layer in LAYERS:
        mine = [s for s in spans if s[3].split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_s"] = sum(own[s[0]] for s in mine)
    by_name = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)
    for metric, (name, what) in SPAN_METRICS.items():
        mine = by_name.get(name, [])
        out[metric] = len(mine) if what == "calls" else sum(own[s[0]] for s in mine)

    def total(name, key):
        return sum(s[6][key] for s in by_name.get(name, []) if s[6])

    out["exactmath.binomial.max_bits"] = max(
        (s[6]["bits"] for s in by_name.get("exactmath.binomial", []) if s[6]), default=0)
    distinct = total("semigroup.minimal_generators", "distinct")
    out["semigroup.minimal_generators.kept_ratio"] = (
        total("semigroup.minimal_generators", "kept") / distinct if distinct else 0.0)
    out["semigroup.apery_entries"] = total("semigroup.NumericalSemigroup.__init__", "apery_entries")
    out["binomial.apery_entries_listed"] = total("binomial.bn_apery_closed", "listed")
    out["corepartitions.set_positions"] = sum(
        total(name, "positions") for name in ("corepartitions.a_set", "corepartitions.partition_of",
                                              "corepartitions.enumerate_admissible"))
    out["corepartitions.hook_cells"] = total("corepartitions.hook_set", "cells")
    out["corepartitions.admissible_pairs"] = total("corepartitions.enumerate_admissible", "pairs")
    out["cli.startup_s"] = sum(s[5] - s[4] for s in by_name.get(STARTUP, []))
    out["trace.span_count"] = len(spans) - len(by_name.get(ROOT, []))
    out["trace.unattributed_s"] = sum(own[s[0]] for s in by_name.get(ROOT, []))
    return out
