"""Seeded inputs and operation mixes for the benchmark's workloads.

A workload writes its input files once, then hands out its operations in
cycles: every cycle holds the same mix of operations, in a seeded order,
on seeded inputs. An operation is either an in-process CLI invocation
(`argv`, whose JSON report goes to the output file) or one library call.
Each carries the check of its output against `reference`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from lbdiv import mallows
from lbdiv.aggregate import ScoreMatrix
from lbdiv.permutation import Permutation
from lbdiv.submodular import CardinalityConcave

import reference as ref

N_ITEMS = 10
REF_SAMPLES = 100_000  # draws behind each set-up reference estimate of log Z
# k-means stops here at the latest, so an operation's cost does not hinge on
# how quickly its seeded start happens to converge
KMEANS_ITERATIONS = 4


@dataclass
class Op:
    kind: str
    argv: list | None
    call: Callable | None
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    inputs: dict  # shapes and sizes, for the report
    setup_specs: list  # (generator spec, n) pairs the workload builds
    cycle: Callable[[int], list]  # cycle number -> its operations


def _decimals(X, digits: int) -> tuple:
    """Round X to `digits` decimals as text, and the values that text parses to."""
    text = [[f"{v:.{digits}f}" for v in row] for row in np.atleast_2d(X)]
    return text, np.array([[float(c) for c in row] for row in text])


def _write_csv(path: Path, text_rows):
    path.write_text("\n".join(",".join(map(str, row)) for row in text_rows)
                    + "\n", encoding="utf-8")


def _shuffled(rng, ops: list) -> list:
    return [ops[i] for i in rng.permutation(len(ops))]


def _log_Z_op(out, spec, sigma, theta, samples, seed, reference):
    argv = ["--generator", spec, "--seed", str(seed), "--output", out,
            "mallows", "logZ", "--samples", str(samples),
            "--theta", repr(theta), "--sigma", ",".join(map(str, sigma))]
    return Op("logZ", argv, None,
              lambda report: ref.check_log_Z(report, reference, samples))


def build_cut(seed: int, workdir: Path, out: str) -> Workload:
    """Planted-mixture scores under a sparse graph cut and top-3; every
    generator here takes the per-row path through the layers."""
    rows_per_set, n_sets, n_centres = 200, 8, 4
    grid_res, grid_ops, mc_samples = 6, 13, 4000
    rng = np.random.default_rng([seed, 0])
    mask = np.triu(rng.random((N_ITEMS, N_ITEMS)) < 0.4, 1)
    _, upper = _decimals(np.where(mask, rng.uniform(0.5, 2.0, mask.shape), 0.0), 3)
    W = upper + upper.T
    _write_csv(workdir / "W.csv", [[f"{v:.3f}" for v in row] for row in W])
    cut_spec = f"cut:file={workdir / 'W.csv'}"
    cut, top3 = ref.Cut(W), ref.Cardinality.top_m(N_ITEMS, 3)
    sets = []
    for s in range(n_sets):
        centres = rng.random((n_centres, N_ITEMS))
        X = (centres[rng.integers(0, n_centres, rows_per_set)]
             + 0.1 * rng.standard_normal((rows_per_set, N_ITEMS)))
        text, X = _decimals(X, 6)
        path = workdir / f"scores{s}.csv"
        _write_csv(path, text)
        sets.append((str(path), X))
    log_Z_configs = []
    for spec, gen in ((cut_spec, cut), ("topm:3", top3)):
        sigma = [int(v) + 1 for v in rng.permutation(N_ITEMS)]
        theta = float(round(rng.uniform(0.5, 2.0), 3))
        log_Z_configs.append((spec, sigma, theta, ref.mc_log_Z(
            gen, sigma, theta, REF_SAMPLES, rng)))

    def cycle(c: int) -> list:
        r = np.random.default_rng([seed, 1, c])
        ops = []
        for j in range(2):
            path, X = sets[(2 * c + j) % n_sets]
            argv = ["--generator", cut_spec, "--seed", str(r.integers(2**31)),
                    "--output", out, "cluster", path, "--k", "4",
                    "--max-iter", str(KMEANS_ITERATIONS)]
            ops.append(Op("cluster", argv, None,
                          lambda rep, X=X: ref.check_cluster(rep, X, cut, 4)))
        for j, (spec, gen) in enumerate(((cut_spec, cut), ("topm:3", top3))):
            path, X = sets[(c + j) % n_sets]
            argv = ["--generator", spec, "--output", out, "aggregate", path]
            ops.append(Op("aggregate", argv, None,
                          lambda rep, X=X, gen=gen:
                          ref.check_aggregate(rep, X, gen)))
        for _ in range(grid_ops):
            sigma = [int(v) + 1 for v in r.permutation(3)]
            argv = ["--generator", "cut:uniform", "--output", out, "grid",
                    "--dims", "3", "--resolution", str(grid_res),
                    "--sigma", ",".join(map(str, sigma))]
            ops.append(Op("grid", argv, None,
                          lambda rep, sigma=sigma:
                          ref.check_grid(rep, sigma, grid_res)))
        for spec, sigma, theta, reference in log_Z_configs:
            ops.append(_log_Z_op(out, spec, sigma, theta, mc_samples,
                                 int(r.integers(2**31)), reference))
        return _shuffled(r, ops)

    inputs = {"score_sets": n_sets, "rows": rows_per_set, "items": N_ITEMS,
              "centres": n_centres, "cut_edges": int(mask.sum()),
              "grid": f"{grid_res}^3", "logZ_samples": mc_samples}
    specs = [(cut_spec, N_ITEMS), ("topm:3", N_ITEMS), ("cut:uniform", 3)]
    return Workload("cut", inputs, specs, cycle)


def build_ratings(seed: int, workdir: Path, out: str) -> Workload:
    """Tied integer ratings 0-5 under cardinality:sqrt, as CSV and as JSON;
    the divergence is vectorized here, so parsing and emission dominate."""
    n_rows, n_sets = 3000, 2
    rng = np.random.default_rng([seed, 0])
    files = []
    for s in range(n_sets):
        popularity = rng.uniform(1.0, 4.0, N_ITEMS)
        bias = rng.normal(0.0, 0.7, (n_rows, 1))
        R = np.clip(np.rint(popularity + bias + rng.normal(0.0, 1.0, (n_rows, N_ITEMS))),
                    0, 5).astype(int)
        csv_path, json_path = workdir / f"ratings{s}.csv", workdir / f"ratings{s}.json"
        _write_csv(csv_path, R.tolist())
        json_path.write_text(json.dumps({"rows": R.tolist()}), encoding="utf-8")
        files.append(((str(csv_path), str(json_path)), R.astype(float)))
    sqrt = ref.Cardinality.sqrt(N_ITEMS)

    def cycle(c: int) -> list:
        r = np.random.default_rng([seed, 1, c])
        ops = []
        for j, kind in enumerate(("aggregate", "cluster") * n_sets):
            paths, R = files[j // 2]
            path = paths[(c + j) % 2]  # CSV and JSON in alternation
            if kind == "aggregate":
                argv = ["--generator", "cardinality:sqrt", "--output", out,
                        "aggregate", path]
                check = (lambda rep, R=R: ref.check_aggregate(rep, R, sqrt))
            else:
                argv = ["--generator", "cardinality:sqrt", "--seed",
                        str(r.integers(2**31)), "--output", out, "cluster",
                        path, "--k", "4", "--max-iter", str(KMEANS_ITERATIONS)]
                check = (lambda rep, R=R: ref.check_cluster(rep, R, sqrt, 4))
            ops.append(Op(kind, argv, None, check))
        return _shuffled(r, ops)

    inputs = {"rating_sets": n_sets, "rows": n_rows, "items": N_ITEMS,
              "values": "integers 0-5", "formats": ["csv", "json"]}
    return Workload("ratings", inputs, [("cardinality:sqrt", N_ITEMS)], cycle)


def build_mallows(seed: int, workdir: Path, out: str) -> Workload:
    """Exact normalization over 7! permutations, MAP and Monte-Carlo log Z
    under cardinality:sqrt; no per-row cut loop is involved."""
    n_density, n_rows, mc_samples = 7, 20, 100_000
    rng = np.random.default_rng([seed, 0])
    text, X = _decimals(rng.random((n_rows, n_density)), 6)
    _write_csv(workdir / "rows.csv", text)
    theta_text, thetas = _decimals(rng.uniform(0.2, 1.0, (1, n_rows)), 3)
    thetas = thetas[0]
    (workdir / "thetas.txt").write_text(",".join(theta_text[0]), encoding="utf-8")
    model = mallows.ExtendedLovaszMallows(
        CardinalityConcave.sqrt(n_density), ScoreMatrix(X), tuple(thetas))
    table = ref.DensityTable(ref.Cardinality.sqrt(n_density), X, thetas)
    sqrt = ref.Cardinality.sqrt(N_ITEMS)
    log_Z_configs = []
    for _ in range(2):
        sigma = [int(v) + 1 for v in rng.permutation(N_ITEMS)]
        theta = float(round(rng.uniform(1.0, 3.0), 3))
        log_Z_configs.append((sigma, theta, ref.mc_log_Z(
            sqrt, sigma, theta, REF_SAMPLES, rng)))
    map_argv = ["--generator", "cardinality:sqrt", "--output", out, "mallows",
                "map", "--matrix", str(workdir / "rows.csv"),
                "--thetas", f"@{workdir / 'thetas.txt'}"]

    def density_op(sigma):
        perm = Permutation(sigma)
        return Op("density", None,
                  lambda: mallows.extended_log_density(model, perm),
                  lambda result: ref.check_density(result, table, sigma))

    def cycle(c: int) -> list:
        r = np.random.default_rng([seed, 1, c])
        ops = [density_op([int(v) + 1 for v in r.permutation(n_density)])
               for _ in range(2)]
        ops += [Op("map", map_argv, None,
                   lambda rep: ref.check_map(rep, X, thetas))] * 2
        for sigma, theta, reference in log_Z_configs * 2:
            ops.append(_log_Z_op(out, "cardinality:sqrt", sigma, theta,
                                 mc_samples, int(r.integers(2**31)), reference))
        return _shuffled(r, ops)

    inputs = {"density_rows": n_rows, "density_items": n_density,
              "permutations": 5040, "logZ_items": N_ITEMS,
              "logZ_samples": mc_samples}
    specs = [("cardinality:sqrt", n_density), ("cardinality:sqrt", N_ITEMS)]
    return Workload("mallows", inputs, specs, cycle)


BUILDERS = {"cut": build_cut, "ratings": build_ratings, "mallows": build_mallows}
