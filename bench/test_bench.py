"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
import worker
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run_op(op, runner):
    assert runner.run(op) is not None, "operation failed before corruption"
    return json.loads(runner.out.read_text()) if op.argv else op.call()


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_checker_flags_corrupted_output(tmp_path, name):
    out = tmp_path / "report.json"
    workload = workloads.BUILDERS[name](3, tmp_path, str(out))
    runner = worker.Runner(out)
    corruptions = {
        "cluster": lambda r: r.update(objective=r["objective"] * (1 + 1e-6)),
        "aggregate": lambda r: r.update(ordering=r["ordering"][::-1]),
        "grid": lambda r: r["rows"][7].__setitem__(-1, r["rows"][7][-1] + 1e-6),
        "logZ": lambda r: r.update(log_Z=r["log_Z"] + 1.0),
        "map": lambda r: r.update(map=r["map"][::-1]),
    }
    seen = set()
    for op in workload.cycle(0):
        if op.kind in seen:
            continue
        seen.add(op.kind)
        result = _run_op(op, runner)
        assert op.check(result) == []
        if op.kind == "density":
            result = result._replace(log_density=result.log_density - 1e-6)
        else:
            corruptions[op.kind](result)
        assert op.check(result), f"corrupted {op.kind} output passed"
    assert runner.failed == 0


def test_self_times_of_nested_spans():
    S = spans.Span
    trace = [
        S("cli.invoke", 0.0, 10.0, -1, 0),
        S("aggregate.lb_kmeans", 1.0, 4.0, 0, 0),
        S("divergence.lb_divergence_batch", 2.0, 3.0, 1, 0),
        S("dataio.parse_csv_matrix", 5.0, 9.0, 0, 0),
        S("permutation.Permutation", 6.0, 8.0, 3, 0),
        S("permutation.Permutation", 7.0, 8.5, 3, 0),  # overlaps its sibling
        S("mallows.extended_log_density", 20.0, 22.0, -1, 1),
    ]
    assert spans.self_times(trace) == pytest.approx(
        [3.0, 2.0, 1.0, 1.5, 2.0, 1.5, 2.0])
    nested = trace[:5] + trace[6:]  # one thread: siblings never overlap
    values = spans.per_layer_metrics(
        nested, {}, {"ops": 2, "untraced_s": 11.0, "traced_s": 12.0})
    assert values["cli.self_s"] == pytest.approx(3.0)
    assert values["dataio.self_s"] == pytest.approx(2.0)
    assert values["permutation.Permutation.calls"] == 1
    assert values["dataio.parse_csv_matrix.busy_s"] == pytest.approx(4.0)
    assert values["trace.overhead_s"] == pytest.approx(1.0)
    layers = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers == pytest.approx(12.0)  # the two root spans


def _bindings():
    import lbdiv.permutation
    import lbdiv.submodular

    modules = [m for n, m in sys.modules.items()
               if n == "lbdiv" or n.startswith("lbdiv.")]
    owners = modules + [cls for cls in vars(lbdiv.submodular).values()
                        if isinstance(cls, type)]
    owners.append(lbdiv.permutation.Permutation)
    return {(id(o), attr): value for o in owners
            for attr, value in list(vars(o).items())}


def test_tracing_restores_every_patched_name():
    import lbdiv
    from lbdiv import aggregate, divergence

    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert divergence.lb_divergence_batch is aggregate.lb_divergence_batch
        assert divergence.lb_divergence_batch is lbdiv.lb_divergence_batch
        assert divergence.lb_divergence_batch is not \
            before[(id(divergence), "lb_divergence_batch")]
        matrix = aggregate.ScoreMatrix(np.arange(12.0).reshape(4, 3))
        f = lbdiv.GraphCut.uniform(3)
        aggregate.aggregation_objective(matrix, f, lbdiv.Permutation([1, 2, 3]))
    finally:
        tracer.remove()
    assert _bindings() == before
    names = {s.name for s in tracer.spans}
    assert {"aggregate.aggregation_objective", "divergence.lb_divergence_batch",
            "lovasz.extreme_subgradient", "submodular.chain_values",
            "permutation.induced_ordering", "permutation.Permutation"} <= names
    assert tracer.counts["divergence.lb_divergence_batch.rows"] == 4


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _ in spans.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == \
        [unit for _, unit in spans.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.BUILDERS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_smoke_run_reports_every_metric(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
