"""Rank aggregation, weighted feature inference, and divergence k-means.

The representative ("mean") ordering of a score collection has a closed
form: it is the ordering of the (weighted) arithmetic mean, independent of
the generator. `brute_force_mean` is the enumeration oracle that validates
this.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataio import ParseError, parse_csv_matrix
from .permutation import Permutation, TieRule, induced_ordering
from .submodular import SetFunction
from .divergence import lb_divergence_batch
from .lovasz import extreme_subgradients


@dataclass(frozen=True)
class ScoreMatrix:
    """A stack of real score vectors over a shared item set."""

    rows: np.ndarray
    row_ids: tuple | None = None

    def __post_init__(self):
        try:
            rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"scores must be real numbers: {exc}") from None
        if rows.ndim > 2:
            raise ValueError(f"score matrix must be 2-d, got {rows.ndim}-d")
        if rows.size == 0:
            raise ValueError("need at least one row")
        if not np.all(np.isfinite(rows)):
            raise ValueError("scores must be finite")
        object.__setattr__(self, "rows", rows)
        if self.row_ids is not None:
            ids = tuple(self.row_ids)
            if len(ids) != rows.shape[0]:
                raise ValueError("one id per row required")
            object.__setattr__(self, "row_ids", ids)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_items(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def from_csv(cls, text: str) -> "ScoreMatrix":
        rows, header = parse_csv_matrix(text)
        return cls(rows)

    @classmethod
    def from_json(cls, text: str) -> "ScoreMatrix":
        try:
            raw = json.loads(text)
        except RecursionError:
            raise ParseError("JSON score matrix nested too deeply") from None
        if isinstance(raw, dict):
            if "rows" not in raw:
                raise ParseError("JSON score matrix object needs a 'rows' key")
            ids = raw.get("row_ids")
            if "row_ids" in raw and not isinstance(ids, list):
                raise ParseError("JSON score matrix 'row_ids' must be a list")
            return cls(raw["rows"], None if ids is None else tuple(ids))
        return cls(raw)


def _resolve_weights(matrix: ScoreMatrix, weights):
    if weights is None:
        return np.ones(matrix.n_rows)
    w = np.asarray(weights, dtype=float)
    if w.size != matrix.n_rows:
        raise ValueError("one weight per row required")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("weights must be finite and positive")
    return w


def mean_ordering(matrix: ScoreMatrix, weights=None,
                  rule: TieRule = TieRule.LOWEST_INDEX_FIRST):
    """The divergence-minimizing representative ordering and the mean itself.

    Returns (sigma_mu, mu) with mu the weighted arithmetic mean of the
    rows. The minimizer does not depend on the generator.
    """
    w = _resolve_weights(matrix, weights)
    mu = w @ matrix.rows / w.sum()
    return induced_ordering(mu, rule), mu


def aggregation_objective(matrix: ScoreMatrix, f: SetFunction,
                          sigma: Permutation, weights=None) -> float:
    """Weighted total divergence of the rows to sigma."""
    w = _resolve_weights(matrix, weights)
    return float(w @ lb_divergence_batch(f, matrix.rows, sigma))


def brute_force_mean(matrix: ScoreMatrix, f: SetFunction,
                     weights=None) -> Permutation:
    """Enumeration oracle (n <= lovasz.ENUMERATION_LIMIT): the lexicographically
    first sigma whose objective w . f-hat(X) - <h_sigma, X^T w> is within
    1e-9 of the minimum, relative to the largest |h_sigma| . |X^T w|, so
    that ties do not depend on the order of summation."""
    if matrix.n_items != f.n:
        raise ValueError("score width does not match the ground set")
    P, H = extreme_subgradients(f)
    v = _resolve_weights(matrix, weights) @ matrix.rows
    linear = H @ v
    tol = 1e-9 * (np.abs(H) @ np.abs(v)).max()
    return Permutation(P[np.flatnonzero(linear >= linear.max() - tol)[0]])


def feature_inference(features: ScoreMatrix, w,
                      rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> Permutation:
    """Ordering minimizing the weighted per-feature divergence total.

    Each row of `features` is one feature's score vector over the items;
    for nonnegative weights the minimizer is the ordering of the weighted
    sum of the rows, i.e. of the linear scores w . x_i per item.
    """
    w = np.asarray(w, dtype=float)
    if w.size != features.n_rows:
        raise ValueError("one weight per feature required")
    if not np.all(np.isfinite(w)):
        raise ValueError("feature weights must be finite")
    return induced_ordering(w @ features.rows, rule)


@dataclass(frozen=True)
class ClusteringResult:
    """Outcome of divergence k-means: representatives are permutations."""

    assignments: tuple
    representatives: tuple
    objective: float
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {
            "assignments": list(self.assignments),
            "representatives": [list(s.items) for s in self.representatives],
            "objective": self.objective,
            "iterations": self.iterations,
            "converged": self.converged,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def lb_kmeans(matrix: ScoreMatrix, f: SetFunction, k: int, init="sample",
              max_iter: int = 100, tol: float = 1e-9, seed: int = 0,
              rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> ClusteringResult:
    """Alternating assignment/update clustering of score rows.

    Representatives are permutations; the update step replaces each with
    the ordering of its cluster mean, so the objective never increases.
    init is "sample" (k distinct seeded rows) or an explicit list of k
    permutations. Each empty cluster is reseeded with a distinct row, the
    one farthest from its representative among clusters with at least two
    members. A row joins the cluster of least computed divergence, the
    lowest index among equal computed values; rows tied only in exact
    arithmetic are decided by the rounding of f-hat(x) - <x, h_sigma>.
    Each pass takes f-hat of every row once, for all k orderings.
    """
    rows = matrix.rows
    m, n = rows.shape
    if not 1 <= k <= m:
        raise ValueError(f"k={k} outside 1..{m}")
    if max_iter < 1 or tol < 0:
        raise ValueError("max_iter >= 1 and tol >= 0 required")

    if init == "sample":
        rng = np.random.default_rng(seed)
        chosen = rng.choice(m, size=k, replace=False)
        reps = [induced_ordering(rows[i], rule) for i in chosen]
        # re-draw duplicated orderings a few times, then accept
        for _ in range(n):
            if len(set(reps)) == k:
                break
            chosen = rng.choice(m, size=k, replace=False)
            reps = [induced_ordering(rows[i], rule) for i in chosen]
    else:
        reps = list(init)
        if len(reps) != k or any(len(s) != n for s in reps):
            raise ValueError("init must provide k permutations of the items")

    assignments = np.zeros(m, dtype=int)
    objective = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # assignment step: f-hat of the rows once for all k orderings;
        # argmin sends ties in the computed distances to the lowest index
        dists = lb_divergence_batch(f, rows, reps, rule)
        assignments = np.argmin(dists, axis=1)
        sizes = np.bincount(assignments, minlength=k)
        for j in np.flatnonzero(sizes == 0):
            # k <= m, so some cluster can spare a row while one is empty
            spare = sizes[assignments] >= 2
            own = dists[np.arange(m), assignments]
            worst = int(np.argmax(np.where(spare, own, -np.inf)))
            sizes[assignments[worst]] -= 1
            sizes[j] = 1
            assignments[worst] = j
        new_objective = float(dists[np.arange(m), assignments].sum())
        # update step
        reps = [induced_ordering(rows[assignments == j].mean(axis=0), rule)
                for j in range(k)]
        if objective - new_objective < tol:
            objective = new_objective
            converged = True
            break
        objective = new_objective

    # report the objective consistent with the final assignments
    dists = lb_divergence_batch(f, rows, reps, rule)
    assignments = np.argmin(dists, axis=1)
    objective = float(dists[np.arange(m), assignments].sum())
    return ClusteringResult(tuple(assignments.tolist()), tuple(reps),
                            objective, iterations, converged)
