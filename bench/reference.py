"""Reference values and output checks, computed without lbdiv.

Every generator the benchmark uses is described by the paper's closed
forms: the convex extension f^(x) and the extreme subgradient h_sigma, so
that d(x || sigma) = f^(x) - <x, h_sigma>. The checks compare each
operation's output against these and return a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

REL_TOL = 1e-9
MC_SIGMAS = 5.0


def close(value, reference) -> bool:
    """Equal within REL_TOL relative, with unit scale near zero."""
    return abs(value - reference) <= REL_TOL * max(abs(reference), 1.0)


def all_close(values, reference) -> bool:
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if values.shape != reference.shape:
        return False
    return bool(np.all(np.abs(values - reference)
                       <= REL_TOL * np.maximum(np.abs(reference), 1.0)))


class Cardinality:
    """f(A) = g(|A|): f^ is the descending sort of x dotted with the gains,
    and h_sigma puts the k-th gain on the item at rank k."""

    def __init__(self, gains):
        self.gains = np.asarray(gains, dtype=float)
        self.n = self.gains.size

    @classmethod
    def sqrt(cls, n: int) -> "Cardinality":
        k = np.arange(1, n + 1, dtype=float)
        return cls(np.sqrt(k) - np.sqrt(k - 1))

    @classmethod
    def top_m(cls, n: int, m: int) -> "Cardinality":
        """f(A) = min(|A|, m)."""
        return cls(np.arange(n) < m)

    def fhat(self, X) -> np.ndarray:
        return -np.sort(-np.asarray(X, dtype=float), axis=1) @ self.gains

    def h(self, sigma) -> np.ndarray:
        out = np.empty(self.n)
        out[np.asarray(sigma) - 1] = self.gains
        return out


class Cut:
    """Graph cut with symmetric weights W: f^(x) = 1/2 sum W_ij |x_i - x_j|,
    and h_sigma(v) = deg(v) - 2 w(v, items ranked before v)."""

    _CHUNK = 4096

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.n = self.weights.shape[0]

    @classmethod
    def uniform(cls, n: int) -> "Cut":
        return cls(np.ones((n, n)) - np.eye(n))

    def fhat(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(X.shape[0])
        for lo in range(0, X.shape[0], self._CHUNK):
            B = X[lo:lo + self._CHUNK]
            gaps = np.abs(B[:, :, None] - B[:, None, :])
            out[lo:lo + self._CHUNK] = 0.5 * np.einsum("mij,ij->m", gaps,
                                                       self.weights)
        return out

    def h(self, sigma) -> np.ndarray:
        deg = self.weights.sum(axis=1)
        out = np.empty(self.n)
        before = []
        for item in sigma:
            v = int(item) - 1
            out[v] = deg[v] - 2.0 * self.weights[v, before].sum()
            before.append(v)
        return out


def divergence(gen, X, sigma) -> np.ndarray:
    """d(x || sigma) for every row x of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return gen.fhat(X) - X @ gen.h(sigma)


def descending_order(v) -> list:
    """Stable descending argsort, 1-based: ties go to the lower index."""
    return [int(i) + 1 for i in np.argsort(-np.asarray(v), kind="stable")]


def exact_mean(rows, weights=None) -> np.ndarray:
    """Column means of rows, each summed exactly and rounded once."""
    rows = np.asarray(rows, dtype=float)
    if weights is None:
        return np.array([math.fsum(col) for col in rows.T]) / rows.shape[0]
    w = np.asarray(weights, dtype=float)
    return (np.array([math.fsum(col) for col in (rows * w[:, None]).T])
            / math.fsum(w))


def mc_log_Z(gen, sigma, theta: float, samples: int, rng):
    """Monte-Carlo log Z of exp(-theta d(x || sigma)) over the unit cube and
    its standard error, by the delta method."""
    vals = np.exp(-theta * divergence(gen, rng.random((samples, gen.n)), sigma))
    mean = vals.mean()
    se_mean = vals.std() / math.sqrt(samples)
    return math.log(mean), se_mean / mean


class DensityTable:
    """Exact log density of every permutation under the extended model.

    All energies come from one stacked (n! x n) subgradient matmul:
    -sum_i theta_i (f^(x_i) - <x_i, h_sigma>) = -theta.f^(X) + H (X^T theta).
    """

    def __init__(self, gen, rows, thetas):
        rows = np.asarray(rows, dtype=float)
        theta = np.asarray(thetas, dtype=float)
        perms = list(itertools.permutations(range(1, gen.n + 1)))
        H = np.array([gen.h(p) for p in perms])
        energies = -(theta @ gen.fhat(rows)) + H @ (rows.T @ theta)
        shift = energies.max()
        log_Z = shift + math.log(np.exp(energies - shift).sum())
        self.log_density = dict(zip(perms, energies - log_Z))


def _echo(report_rows, rows) -> list:
    if not all_close(np.asarray(report_rows, dtype=float), rows):
        return ["echoed input rows differ from the input"]
    return []


def check_cluster(report, rows, gen, k: int) -> list:
    """The objective is sum_i min_j d(x_i || rep_j) and every assignment
    attains that minimum."""
    m, n = rows.shape
    reps = report["representatives"]
    assignments = np.asarray(report["assignments"])
    if len(reps) != k or any(sorted(r) != list(range(1, n + 1)) for r in reps):
        return [f"representatives are not {k} permutations of 1..{n}"]
    if assignments.shape != (m,) or np.any((assignments < 0)
                                           | (assignments >= k)):
        return ["assignments are not one cluster index per row"]
    D = np.column_stack([divergence(gen, rows, r) for r in reps])
    best = D.min(axis=1)
    problems = _echo(report["inputs"]["rows"], rows)
    if not close(report["objective"], best.sum()):
        problems.append(f"objective {report['objective']} != {best.sum()}")
    attained = D[np.arange(m), assignments]
    if not np.all(attained - best <= REL_TOL * np.maximum(np.abs(best), 1.0)):
        problems.append("an assignment does not attain the row's minimum")
    return problems


def check_aggregate(report, rows, gen) -> list:
    """The ordering is the stable descending argsort of the mean and the
    objective is the rows' total divergence to it."""
    mean = exact_mean(rows)
    order = descending_order(mean)
    problems = _echo(report["inputs"]["rows"], rows)
    if not all_close(report["mean_vector"], mean):
        problems.append("mean vector differs")
    if report["ordering"] != order:
        problems.append(f"ordering {report['ordering']} != {order}")
    objective = divergence(gen, rows, order).sum()
    if not close(report["objective"], objective):
        problems.append(f"objective {report['objective']} != {objective}")
    if not close(report["total_variation_of_mean"], mean.max() - mean.min()):
        problems.append("total variation of the mean differs")
    return problems


def check_grid(report, sigma, resolution: int) -> list:
    """Every lattice point carries the reference divergence at that point."""
    axis = np.linspace(0.0, 1.0, resolution)
    points = np.array(list(itertools.product(axis, repeat=len(sigma))))
    table = np.asarray(report["rows"], dtype=float)
    if table.shape != (points.shape[0], len(sigma) + 1):
        return [f"grid has shape {table.shape}"]
    problems = []
    if not all_close(table[:, :-1], points):
        problems.append("grid points differ from the lattice")
    expected = divergence(Cut.uniform(len(sigma)), points, sigma)
    if not all_close(table[:, -1], expected):
        problems.append("a grid divergence differs from the reference")
    return problems


def check_log_Z(report, reference, samples: int) -> list:
    """Within MC_SIGMAS combined standard errors of the reference estimate."""
    ref_value, ref_se = reference
    if report["samples"] != samples:
        return [f"samples {report['samples']} != {samples}"]
    limit = MC_SIGMAS * math.hypot(report["std_error"], ref_se)
    if not abs(report["log_Z"] - ref_value) <= limit:
        return [f"log_Z {report['log_Z']} is more than {MC_SIGMAS} standard "
                f"errors from {ref_value}"]
    return []


def check_map(report, rows, thetas) -> list:
    """The mode is the ordering of the theta-weighted mean."""
    order = descending_order(exact_mean(rows, thetas))
    if report["map"] != order:
        return [f"map {report['map']} != {order}"]
    return []


def check_density(result, table: DensityTable, sigma) -> list:
    expected = table.log_density[tuple(sigma)]
    if not result.normalized:
        return ["density was not normalized"]
    if not close(float(result.log_density), expected):
        return [f"log density {result.log_density} != {expected}"]
    return []
