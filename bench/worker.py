"""Runs one workload in this process and prints its report.

Started by run.py, which pins BLAS threads to 1, puts the checkout's `src`
on PYTHONPATH and gives a scratch directory. The load is a closed loop
with one client: each operation starts when the previous one returns.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import numpy as np

import spans
import workloads
from lbdiv import cli

SETUP_REPEATS = 9
TRACE_CYCLES = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# The reference speed: a machine on which calibration_s() takes this long.
# Changing the constant or the loop rescales every reported time.
CALIBRATION_S = 1e-3
CALIBRATION_ROWS = np.random.default_rng(0).random((40, 10))
SETUP_PROBE = """\
import sys
import lbdiv.cli as cli
for spec, n in zip(sys.argv[1::2], sys.argv[2::2]):
    cli.resolve_generator(spec, int(n))
"""


class Runner:
    """Runs operations, times them, checks their outputs, counts failures."""

    def __init__(self, out: Path):
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def run(self, op):
        """Run and check one operation; returns its latency, or None if it
        raised or failed its check."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if op.argv is None:
                result = op.call()
            elif self.tracer is None:
                cli.cli(op.argv, standalone_mode=False)
            else:
                self.tracer.call("cli.invoke", cli.cli, op.argv,
                                 standalone_mode=False)
            elapsed = time.perf_counter() - start
            if op.argv is not None:
                if self.tracer is not None:
                    self.tracer.counts["cli.output_bytes"] += \
                        self.out.stat().st_size
                result = json.loads(self.out.read_text(encoding="utf-8"))
            problems = op.check(result)
        except Exception:
            self.failed += 1
            print(f"operation {op.kind} {op.argv} raised:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
            return None
        if problems:
            self.failed += 1
            print(f"operation {op.kind} {op.argv} failed its check: "
                  f"{problems}", file=sys.stderr)
            return None
        return elapsed


def tail_percentile(latencies) -> tuple:
    """The highest ladder percentile (nearest rank) with at least
    TAIL_MIN_BEYOND operations beyond it: (percentile, value, beyond)."""
    ordered = sorted(latencies)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * len(ordered))
        if len(ordered) - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1], len(ordered) - rank
    raise ValueError(f"{len(ordered)} operations are too few for a tail")


def calibration_s() -> float:
    """Time a fixed loop shaped like lbdiv's per-row work: a short argsort,
    a scatter, a cumulative sum and a tuple of ints."""
    start = time.perf_counter()
    for x in CALIBRATION_ROWS:
        order = np.argsort(-x, kind="stable")
        h = np.empty(x.size)
        h[order] = np.diff(np.cumsum(x[order]), prepend=0.0)
        tuple(int(v) for v in order)
    return time.perf_counter() - start


def at_reference_speed(measure, calibrations: int = 1):
    """Run measure() between calibrations; return its wall time and that
    time scaled to the reference speed, or None if it returned None.

    Other tenants of a shared host slow every process on it by tens of
    percent for seconds at a time; the calibrations on either side see the
    same slowdown, so the scaled time does not."""
    before = [calibration_s() for _ in range(calibrations)]
    wall = measure()
    after = [calibration_s() for _ in range(calibrations)]
    if wall is None:
        return None
    return wall, wall * CALIBRATION_S / statistics.median(before + after)


def _probe(args) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, *args], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_seconds(workload) -> list:
    """(wall, scaled) times of fresh interpreters importing lbdiv.cli and
    building the workload's generators. A probe takes a few hundred
    milliseconds, so it gets more calibrations than an operation."""
    args = [str(v) for spec_n in workload.setup_specs for v in spec_n]
    return [at_reference_speed(lambda: _probe(args), calibrations=10)
            for _ in range(SETUP_REPEATS)]


def warm_up(workload, runner):
    """Run cycle 0, checked but not timed."""
    for op in workload.cycle(0):
        runner.run(op)


def timed(workload, runner, seconds: float) -> dict:
    """Whole cycles until the operations' summed wall time reaches `seconds`.
    Times are reported at the reference speed; wall times are printed too."""
    setup = setup_seconds(workload)
    warm_up(workload, runner)
    wall, scaled, cycle = [], [], 1
    while sum(wall) < seconds or len(wall) < 2 * TAIL_MIN_BEYOND:
        for op in workload.cycle(cycle):
            timing = at_reference_speed(lambda: runner.run(op))
            if timing is not None:
                wall.append(timing[0])
                scaled.append(timing[1])
        cycle += 1
    n = len(scaled)
    p, tail, beyond = tail_percentile(scaled)
    _, wall_tail, _ = tail_percentile(wall)
    setup_wall, setup_scaled = zip(*setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (n / sum(scaled), "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"ops_per_s {metrics['ops_per_s'][0]:.4f} 1/s ({n} operations in "
        f"{cycle - 1} cycles; wall {n / sum(wall):.4f} 1/s)",
        f"op_p50_ms {metrics['op_p50_ms'][0]:.4f} ms (median of {n} "
        f"operations; wall {statistics.median(wall) * 1e3:.4f} ms)",
        f"op_tail_ms {metrics['op_tail_ms'][0]:.4f} ms (p{p:g} of {n} "
        f"operations, {beyond} beyond it; wall {wall_tail * 1e3:.4f} ms)",
        f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(setup)} fresh "
        f"interpreters; wall {statistics.median(setup_wall):.4f} s)",
        f"peak_rss_mb {rss_mb:.2f} MB (this process)",
        f"failed_frac {runner.failed / runner.attempted:g} "
        f"({runner.failed} failed of {runner.attempted} attempted)",
        f"machine slowdown {statistics.median(w / s for w, s in zip(wall, scaled)):.4f} "
        f"(median wall / reference-speed time)",
    ]
    return {"lines": lines, "metrics": metrics, "consistent": True}


def traced(workload, runner, spans_path: Path) -> dict:
    """Each operation runs untraced, then traced; the summed difference is
    the tracing overhead. The spans are written to spans_path."""
    warm_up(workload, runner)
    ops = [op for c in range(1, TRACE_CYCLES + 1)
           for op in workload.cycle(c)]
    tracer = spans.Tracer()
    untraced_s = traced_s = 0.0
    for index, op in enumerate(ops):
        untraced_s += runner.run(op) or 0.0
        tracer.op = index
        tracer.install()
        runner.tracer = tracer
        try:
            traced_s += runner.run(op) or 0.0
        finally:
            tracer.remove()
            runner.tracer = None
    spans.write_spans(spans_path, tracer.spans)
    values = spans.per_layer_metrics(
        tracer.spans, tracer.counts,
        {"ops": len(ops), "untraced_s": untraced_s, "traced_s": traced_s})
    layers_self = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
    roots_s = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    gap = traced_s - layers_self
    overhead = values["trace.overhead_s"]
    # self times partition the root spans, which lie inside the op timers
    consistent = (abs(layers_self - roots_s) <= 1e-9 * max(roots_s, 1.0)
                  and roots_s <= traced_s)
    lines = [f"{name} {values[name]:.6f} {unit}" if unit in ("s", "ratio")
             else f"{name} {values[name]} {unit}"
             for name, unit in spans.PER_LAYER]
    lines.append(
        f"layers' self time {layers_self:.6f} s of traced operation time "
        f"{traced_s:.6f} s: gap {gap:.6f} s, "
        f"{'within' if abs(gap) <= overhead else 'NOT within'} the tracing "
        f"overhead {overhead:.6f} s; {len(tracer.spans)} spans in {spans_path}")
    metrics = {name: (values[name], unit) for name, unit in spans.PER_LAYER}
    return {"lines": lines, "metrics": metrics, "consistent": consistent}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    # one CPU for the whole run, so that the set-up interpreters, which
    # inherit it, run where their calibrations do
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    out = args.workdir / "report.json"
    workload = workloads.BUILDERS[args.workload](args.seed, args.workdir,
                                                 str(out))
    runner = Runner(out)
    # beside the run's scratch directory, which run.py removes
    spans_path = args.workdir.parent / f"spans-{args.workload}-{args.seed}.csv.gz"
    result = (traced(workload, runner, spans_path) if args.trace
              else timed(workload, runner, args.seconds))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"inputs {json.dumps(workload.inputs)}")
    print(f"env nproc={os.cpu_count()} pinned_cpu={min(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} "
          f"numpy={np.__version__} click={metadata.version('click')} "
          f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS')} "
          f"load=closed-loop,1-client,1-process")
    for line in result["lines"]:
        print(line)
    print(json.dumps({
        "correct": runner.failed == 0 and result["consistent"],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
