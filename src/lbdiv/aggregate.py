"""Rank aggregation, weighted feature inference, and divergence k-means.

The representative ("mean") ordering of a score collection has a closed
form: it is the ordering of the (weighted) arithmetic mean, independent of
the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .permutation import Permutation, TieRule, induced_ordering
from .submodular import SetFunction
from .divergence import lb_divergence_batch


@dataclass(frozen=True)
class ScoreMatrix:
    """A stack of real score vectors over a shared item set."""

    rows: np.ndarray

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

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_items(self) -> int:
        return self.rows.shape[1]


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


def lb_kmeans(matrix: ScoreMatrix, f: SetFunction, k: int,
              max_iter: int = 100, tol: float = 1e-9, seed: int = 0,
              rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> ClusteringResult:
    """Alternating assignment/update clustering of score rows.

    Representatives are permutations; the update step replaces each with
    the ordering of its cluster mean, so the objective never increases.
    The first representatives are the orderings of k distinct seeded rows.
    Each empty cluster is reseeded with a distinct row, the one farthest
    from its representative among clusters with at least two members. A
    row joins the cluster of least computed divergence, the lowest index
    among equal computed values; rows tied only in exact arithmetic are
    decided by the rounding of f-hat(x) - <x, h_sigma>.
    Each pass takes f-hat of every row once, for all k orderings.
    """
    rows = matrix.rows
    m, n = rows.shape
    if not 1 <= k <= m:
        raise ValueError(f"k={k} outside 1..{m}")
    if max_iter < 1 or not tol >= 0:
        raise ValueError("max_iter >= 1 and tol >= 0 required")

    rng = np.random.default_rng(seed)
    chosen = rng.choice(m, size=k, replace=False)
    reps = [induced_ordering(rows[i], rule) for i in chosen]
    # re-draw duplicated orderings a few times, then accept
    for _ in range(n):
        if len(set(reps)) == k:
            break
        chosen = rng.choice(m, size=k, replace=False)
        reps = [induced_ordering(rows[i], rule) for i in chosen]

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
