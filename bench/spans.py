"""Span tracing of lbdiv's layers, installed from outside the package.

`Tracer.install` wraps every public function of each layer module, at every
module binding: lbdiv imports names with `from .x import y`, so a name
patched in one module is not seen by the others. It also wraps
`Permutation.__init__` and the `chain_values` and `__call__` methods of
every set-function class. Generator functions only count what they yield.
Spans are kept in memory; `Tracer.remove` restores every patched name.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter
from typing import NamedTuple

import numpy as np

LAYERS = ("cli", "dataio", "aggregate", "mallows", "divergence", "lovasz",
          "submodular", "permutation")

# extra counts taken from a call's arguments or result: span -> (key, fn)
MEASURES = {
    "divergence.lb_divergence_batch": (
        "divergence.lb_divergence_batch.rows",
        lambda args, result: np.atleast_2d(args["X"]).shape[0]),
    "dataio.parse_csv_matrix": (
        "dataio.parse_csv_matrix.bytes",
        lambda args, result: len(args["text"].encode("utf-8"))),
    "mallows.estimate_log_Z": (
        "mallows.estimate_log_Z.samples",
        lambda args, result: args["samples"]),
    "aggregate.lb_kmeans": (
        "aggregate.lb_kmeans.iterations",
        lambda args, result: result.iterations),
}

# every per-layer metric, in report order, with its unit
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("cli.output_bytes", "bytes"),
        ("dataio.parse_csv_matrix.calls", "count"),
        ("dataio.parse_csv_matrix.bytes", "bytes"),
        ("dataio.parse_csv_matrix.busy_s", "s"),
        ("aggregate.lb_kmeans.calls", "count"),
        ("aggregate.lb_kmeans.iterations", "count"),
        ("aggregate.lb_kmeans.busy_s", "s"),
        ("aggregate.lb_kmeans.self_s", "s"),
        ("aggregate.aggregation_objective.busy_s", "s"),
        ("mallows.extended_log_density.calls", "count"),
        ("mallows.extended_log_density.busy_s", "s"),
        ("mallows.extended_log_density.self_s", "s"),
        ("mallows.density_batches", "count"),
        ("mallows.energies_per_density", "ratio"),
        ("mallows.estimate_log_Z.samples", "count"),
        ("mallows.estimate_log_Z.busy_s", "s"),
        ("divergence.lb_divergence_batch.calls", "count"),
        ("divergence.lb_divergence_batch.rows", "count"),
        ("divergence.lb_divergence_batch.busy_s", "s"),
        ("divergence.lb_divergence_batch.self_s", "s"),
        ("divergence.lb_divergence.calls", "count"),
        ("divergence.lb_divergence.busy_s", "s"),
        ("divergence.rows_evaluated", "count"),
        ("lovasz.extreme_subgradient.calls", "count"),
        ("lovasz.extreme_subgradient.self_s", "s"),
        ("lovasz.subgradients_per_row", "ratio"),
        ("submodular.chain_values.calls", "count"),
        ("submodular.chain_values.self_s", "s"),
        ("submodular.set_evals", "count"),
        ("permutation.induced_ordering.calls", "count"),
        ("permutation.induced_ordering.self_s", "s"),
        ("permutation.Permutation.calls", "count"),
        ("permutation.Permutation.self_s", "s"),
        ("permutation.all_permutations.yielded", "count"),
        ("trace.ops", "count"),
        ("trace.untraced_s", "s"),
        ("trace.traced_s", "s"),
        ("trace.overhead_s", "s"),
    ])


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int


class Tracer:
    """Records nested spans and counts; single-threaded."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._patches = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        index = len(spans)
        spans.append(None)
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = Span(name, start, end, parent, self.op)

    def _span_wrapper(self, name: str, fn):
        call = self.call
        measure = MEASURES.get(name)
        if measure is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return call(name, fn, *args, **kwargs)
            return traced
        key, amount = measure
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            result = call(name, fn, *args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            self.counts[key] += amount(bound, result)
            return result
        return measured

    def _yield_counter(self, name: str, fn):
        counts, key = self.counts, f"{name}.yielded"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item
        return counted

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        package = [mod for name, mod in list(sys.modules.items())
                   if name == "lbdiv" or name.startswith("lbdiv.")]
        for layer in LAYERS:
            module = importlib.import_module(f"lbdiv.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = (self._yield_counter(name, obj)
                           if inspect.isgeneratorfunction(obj)
                           else self._span_wrapper(name, obj))
                for mod in package:
                    for bound_name, value in list(vars(mod).items()):
                        if value is obj:
                            self._patch(mod, bound_name, wrapper)
        permutation = importlib.import_module("lbdiv.permutation")
        self._patch(permutation.Permutation, "__init__", self._span_wrapper(
            "permutation.Permutation", permutation.Permutation.__init__))
        submodular = importlib.import_module("lbdiv.submodular")
        for cls in vars(submodular).values():
            if not (inspect.isclass(cls) and issubclass(cls, submodular.SetFunction)):
                continue
            for attr, name in (("chain_values", "submodular.chain_values"),
                               ("__call__", "submodular.set_eval")):
                if attr in vars(cls):
                    self._patch(cls, attr,
                                self._span_wrapper(name, vars(cls)[attr]))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def write_spans(path, spans):
    """Write spans to a gzipped CSV file, one row per span."""
    with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(Span._fields)
        writer.writerows(spans)


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for lo, hi in sorted((spans[c].start, spans[c].end)
                             for c in children[index]):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def per_layer_metrics(spans, counts, runs: dict) -> dict:
    """Every PER_LAYER metric from the spans and counts of a traced run.

    `runs` gives the trace.* figures: ops, untraced_s, traced_s.
    """
    selfs = self_times(spans)
    counts = Counter(counts)
    calls, own, busy, layer_self = Counter(), Counter(), Counter(), Counter()
    density_batches = 0
    for index, span in enumerate(spans):
        calls[span.name] += 1
        own[span.name] += selfs[index]
        layer_self[span.name.split(".")[0]] += selfs[index]
        if not _has_ancestor(spans, index, span.name):
            busy[span.name] += span.end - span.start
        if (span.name == "divergence.lb_divergence_batch"
                and _has_ancestor(spans, index, "mallows.extended_log_density")):
            density_batches += 1
    rows = (counts["divergence.lb_divergence_batch.rows"]
            + calls["divergence.lb_divergence"])
    special = {
        "submodular.set_evals": calls["submodular.set_eval"],
        "divergence.rows_evaluated": rows,
        "lovasz.subgradients_per_row":
            calls["lovasz.extreme_subgradient"] / rows if rows else 0.0,
        "mallows.density_batches": density_batches,
        "mallows.energies_per_density":
            (density_batches / calls["mallows.extended_log_density"]
             if calls["mallows.extended_log_density"] else 0.0),
        "trace.ops": runs["ops"],
        "trace.untraced_s": runs["untraced_s"],
        "trace.traced_s": runs["traced_s"],
        "trace.overhead_s": runs["traced_s"] - runs["untraced_s"],
    }
    out = {}
    for name, _unit in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif stat not in ("calls", "self_s", "busy_s"):
            out[name] = counts[name]
        elif stat == "calls":
            out[name] = calls[base]
        elif stat == "busy_s":
            out[name] = busy[base]
        elif base in LAYERS:
            out[name] = layer_self[base]
        else:
            out[name] = own[base]
    return out
