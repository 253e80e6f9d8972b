"""Score/permutation divergences: the generic inner-product form, its
specialized closed forms, and ranking measures (NDCG, AUC, partial orders).

The generic form <x, h_{sigma_x} - h_sigma> is the single source of truth;
every specialization is validated against it in the test suite.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .permutation import Permutation, TieRule, induced_ordering, reject_ties
from .submodular import CardinalityConcave, GraphCut, SetFunction
from .lovasz import extreme_subgradient

_ZERO_GUARD = 1e-12


def _clamp(value: float) -> float:
    # floating-point guard: tiny negatives are exact zeros
    if -_ZERO_GUARD <= value < 0.0:
        return 0.0
    return value


def lb_divergence(f: SetFunction, x, sigma: Permutation,
                  rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> float:
    """Distortion between the score vector x and the permutation sigma.

    Equals <x, h_{sigma_x} - h_sigma>; nonnegative for submodular f and
    zero when sigma sorts x. The value is independent of how ties in x are
    broken. The one-row case of lb_divergence_batch.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return float(lb_divergence_batch(f, x, sigma, rule)[0])


def lb_divergence_batch(f: SetFunction, X,
                        sigma: Permutation | Sequence[Permutation],
                        rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> np.ndarray:
    """lb_divergence of every row of X against sigma.

    sigma is one Permutation, giving a vector with one value per row, or a
    sequence of k of them, giving an (m, k) matrix whose column j equals
    the call with sigma[j] alone. Computed as f.lovasz_batch(X) - X h_sigma:
    the generator's batch Lovasz extension (a sorted-row dot product for
    the cardinality families, the weighted total variation for graph cuts,
    X w for modular functions), taken once for all orderings, minus one
    extreme subgradient per ordering. Under TieRule.REJECT a row with tied
    entries raises TieError. Raises if a result is not finite, which
    covers non-finite scores and scores large enough to overflow.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    single = isinstance(sigma, Permutation)
    sigmas = [sigma] if single else list(sigma)
    if not sigmas:
        raise ValueError("need at least one ordering")
    if X.shape[1] != f.n or any(len(s) != f.n for s in sigmas):
        raise ValueError("length mismatch")
    if rule is TieRule.REJECT:
        reject_ties(X)
    fhat, absX = f.lovasz_batch(X), np.abs(X)
    out = np.empty((X.shape[0], len(sigmas)))
    for j, s in enumerate(sigmas):
        h = extreme_subgradient(f, s)
        vals = fhat - X @ h
        if not np.all(np.isfinite(vals)):
            raise ValueError("divergence overflowed or scores are not finite")
        # f-hat and <x, h_sigma> round differently; noise within the guard is 0
        guard = _ZERO_GUARD * np.maximum(absX @ np.abs(h), 1.0)
        out[:, j] = np.where(np.abs(vals) <= guard, 0.0, vals)
    return out[:, 0] if single else out


def lb_cardinality(gains, x, sigma: Permutation,
                   rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> float:
    """Closed form for cardinality-based generators.

    sum_i x(sigma_x(i)) gains(i) - sum_i x(sigma(i)) gains(i).
    """
    gains = CardinalityConcave(gains).gains
    x = np.asarray(x, dtype=float)
    if gains.size != x.size or len(sigma) != x.size:
        raise ValueError("length mismatch")
    sx = induced_ordering(x, rule)
    xs = x[np.array(sx.items) - 1]
    xo = x[np.array(sigma.items) - 1]
    return _clamp(float((xs - xo) @ gains))


def lb_cut(W, x, sigma: Permutation, orientation_count: int = 2,
           rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> float:
    """Pairwise discordance form for graph-cut generators.

    Sums W(a, b) |x_a - x_b| over pairs placed discordantly by sigma versus
    the ordering of x. orientation_count = 2 counts both orientations of
    each pair and matches the generic inner-product form; 1 counts each
    pair once (the weighted-Kendall convention).
    """
    W = GraphCut(W).weights
    x = np.asarray(x, dtype=float)
    n = x.size
    if W.shape != (n, n) or len(sigma) != n:
        raise ValueError("length mismatch")
    if orientation_count not in (1, 2):
        raise ValueError("orientation_count must be 1 or 2")
    inv_x = induced_ordering(x, rule).inverse()
    total = 0.0
    for i in range(1, n + 1):
        a = sigma(i)
        for j in range(i + 1, n + 1):
            b = sigma(j)
            if inv_x(a) > inv_x(b):
                total += W[a - 1, b - 1] * abs(x[a - 1] - x[b - 1])
    return _clamp(orientation_count * total)


@dataclass(frozen=True)
class DiscountProfile:
    """Positional discounts D(1) >= D(2) >= ... > 0 with a rank cutoff."""

    values: tuple
    cutoff: int

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals or not all(0 < v < math.inf for v in vals):
            raise ValueError("discounts must be finite and strictly positive")
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise ValueError("discounts must be non-increasing")
        if not 1 <= self.cutoff <= len(vals):
            raise ValueError("cutoff outside 1..len(values)")

    @classmethod
    def log2(cls, n: int, cutoff: int | None = None) -> "DiscountProfile":
        """D(i) = 1 / log2(i + 1), the usual web-ranking discount."""
        vals = [1.0 / np.log2(i + 1) for i in range(1, n + 1)]
        return cls(tuple(vals), n if cutoff is None else cutoff)

    @classmethod
    def from_json(cls, text: str, cutoff: int | None = None) -> "DiscountProfile":
        vals = json.loads(text)
        return cls(tuple(vals), len(vals) if cutoff is None else cutoff)


def ndcg_loss(r, sigma: Permutation, profile: DiscountProfile,
              rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> float:
    """Discounted-gain shortfall of sigma relative to the ideal ordering of r,
    normalized by the ideal gain; lies in [0, 1]."""
    r = np.asarray(r, dtype=float)
    if r.size != len(sigma):
        raise ValueError("length mismatch")
    if np.any(r < 0):
        raise ValueError("relevance must be nonnegative")
    k = profile.cutoff
    D = np.asarray(profile.values[:k])
    sr = induced_ordering(r, rule)
    ideal = float(r[[sr(i) - 1 for i in range(1, k + 1)]] @ D)
    if ideal == 0:
        raise ValueError("all-zero relevance: ideal gain is zero")
    actual = float(r[[sigma(i) - 1 for i in range(1, k + 1)]] @ D)
    if not math.isfinite(ideal) or not math.isfinite(actual):
        raise ValueError("discounted gain overflowed: it is not finite")
    return _clamp((ideal - actual) / ideal)


def auc_loss(good, bad, sigma: Permutation) -> float:
    """Fraction of (good, bad) pairs that sigma ranks in the wrong order."""
    G = frozenset(int(g) for g in good)
    B = frozenset(int(b) for b in bad)
    if not G or not B:
        raise ValueError("good and bad sets must be nonempty")
    if G & B:
        raise ValueError(f"good and bad sets overlap: {sorted(G & B)}")
    inv = sigma.inverse()
    bad_pairs = sum(1 for g in G for b in B if inv(g) > inv(b))
    return bad_pairs / (len(G) * len(B))


@dataclass(frozen=True)
class PartialOrder:
    """Weighted pairwise constraints: each (above, below, weight) asks for
    x(above) >= x(below)."""

    constraints: tuple

    def __post_init__(self):
        cons = []
        for above, below, weight in self.constraints:
            above, below, weight = int(above), int(below), float(weight)
            if above == below:
                raise ValueError(f"constraint pairs item {above} with itself")
            if not 0 < weight < math.inf:
                raise ValueError(
                    "constraint weights must be finite and positive")
            cons.append((above, below, weight))
        object.__setattr__(self, "constraints", tuple(cons))

    @classmethod
    def from_json(cls, text: str) -> "PartialOrder":
        raw = json.loads(text)
        return cls(tuple((c["above"], c["below"], c.get("weight", 1.0))
                         for c in raw))


def partial_order_distortion(order: PartialOrder, x) -> float:
    """Weighted hinge violation of the pairwise constraints by x."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("scores must be finite")
    total = 0.0
    for above, below, weight in order.constraints:
        if not (1 <= above <= x.size and 1 <= below <= x.size):
            raise ValueError(f"constraint ({above}, {below}) outside 1..{x.size}")
        total += weight * max(x[below - 1] - x[above - 1], 0.0)
    return total


def confidence_bound(f: SetFunction, x) -> float:
    """Upper bound on the divergence from x to any permutation.

    eps * n * (max_j f({j}) - min_j f(j | V minus j)) with
    eps = max_{i,j} |x_i - x_j|. Holds for every submodular f, monotone
    or not: both extreme subgradients sum to f(V), so the divergence is
    <x - min x, h_{sigma_x} - h_sigma>, and submodularity puts each
    component of either in [f(j | V minus j), f({j})].
    """
    x = np.asarray(x, dtype=float)
    if x.size != f.n:
        raise ValueError("length mismatch")
    if not np.all(np.isfinite(x)):
        raise ValueError("scores must be finite")
    eps = float(x.max() - x.min())
    if eps == 0.0:
        return 0.0
    full = frozenset(range(1, f.n + 1))
    singleton_max = max(f({j}) for j in full)
    last_gain_min = min(f.marginal(j, full - {j}) for j in full)
    return eps * f.n * (singleton_max - last_gain_min)
