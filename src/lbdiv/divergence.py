"""Score/permutation divergences: the generic inner-product form and the
ranking measures built on it (NDCG, AUC, partial orders).

The generic form <x, h_{sigma_x} - h_sigma> is the single source of truth;
NDCG is computed through it, and the closed forms for cardinality and cut
generators are kept in the test suite as oracles against it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .permutation import (Permutation, TieRule, _items, _ordering, _scores,
                          reject_ties)
from .submodular import CardinalityConcave, SetFunction
from .lovasz import extreme_subgradient

_ZERO_GUARD = 1e-12


def lb_divergence(f: SetFunction, x, sigma: Permutation,
                  rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> float:
    """Distortion between the score vector x and the permutation sigma.

    Equals <x, h_{sigma_x} - h_sigma>; nonnegative for submodular f and
    zero when sigma sorts x. The value is independent of how ties in x are
    broken. The one-row case of lb_divergence_batch.
    """
    sigma = _ordering(sigma, f.n)
    x = _scores(x, f.n)[None]
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
    sigmas = [_ordering(s, f.n) for s in ([sigma] if single else sigma)]
    if not sigmas:
        raise ValueError("need at least one ordering")
    if X.shape[1] != f.n:
        raise ValueError(
            f"length mismatch: {X.shape[1]} scores, expected {f.n}")
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


def ndcg_loss(r, sigma: Permutation, discounts: CardinalityConcave,
              rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> float:
    """Discounted-gain shortfall of sigma relative to the ideal ordering of r,
    normalized by the ideal gain; lies in [0, 1].

    The discounts are a truncated cardinality generator, as
    CardinalityConcave.truncated(D, k) builds it: rank gains D(1) >= ... >=
    D(k) > 0 up to the cutoff k and 0 after it. With g those gains over the
    items of r, the loss is d(r || sigma) / g-hat(r): the shortfall ideal -
    actual is the divergence, and the ideal gain is g's Lovasz extension.
    """
    sigma = _ordering(sigma)
    r = _scores(r, len(sigma))
    if np.any(r < 0):
        raise ValueError("relevance must be nonnegative")
    D = discounts.gains
    if not D[0] > 0 or D.min() < 0:
        raise ValueError("discounts must be positive up to the cutoff, then 0")
    k = int(np.flatnonzero(D)[-1]) + 1  # the cutoff: every later gain is 0
    if k > r.size:
        raise ValueError(f"cutoff m={k} outside 1..{r.size}")
    gains = np.zeros(r.size)
    gains[:k] = D[:k]
    g = CardinalityConcave(gains)
    shortfall = lb_divergence(g, r, sigma, rule)  # ties and overflow raise
    ideal = float(g.lovasz_batch(r[None])[0])
    if ideal == 0:
        raise ValueError("all-zero relevance: ideal gain is zero")
    return shortfall / ideal


def auc_loss(good, bad, sigma: Permutation) -> float:
    """Fraction of (good, bad) pairs that sigma ranks in the wrong order."""
    G, B = frozenset(_items(good)), frozenset(_items(bad))
    if not G or not B:
        raise ValueError("good and bad sets must be nonempty")
    if G & B:
        raise ValueError(f"good and bad sets overlap: {sorted(G & B)}")
    n = len(_ordering(sigma))
    outside = sorted(i for i in G | B if not 1 <= i <= n)
    if outside:
        raise ValueError(f"items {outside} outside 1..{n}")
    rank = np.array(sigma.inverse().items)
    g, b = rank[np.fromiter(G, int) - 1], rank[np.fromiter(B, int) - 1]
    bad_pairs = int(np.count_nonzero(g[:, None] > b))
    return bad_pairs / (len(G) * len(B))


@dataclass(frozen=True)
class PartialOrder:
    """Weighted pairwise constraints: each (above, below, weight) asks for
    x(above) >= x(below)."""

    constraints: tuple

    def __post_init__(self):
        cons = []
        for above, below, weight in self.constraints:
            (above, below), weight = _items((above, below)), float(weight)
            if above == below:
                raise ValueError(f"constraint pairs item {above} with itself")
            if not 0 < weight < math.inf:
                raise ValueError(
                    "constraint weights must be finite and positive")
            cons.append((above, below, weight))
        object.__setattr__(self, "constraints", tuple(cons))


def partial_order_distortion(order: PartialOrder, x) -> float:
    """Weighted hinge violation of the pairwise constraints by x."""
    x = _scores(x)
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
    x = _scores(x, f.n)
    eps = float(x.max() - x.min())
    if eps == 0.0:
        return 0.0
    # f-hat at the singletons, their complements and V: f({j}) and
    # f(j | V minus j) = f(V) - f(V minus j), all without f(empty)
    I = np.eye(f.n)
    v = f.lovasz_batch(np.vstack([I, 1.0 - I, np.ones(f.n)]))
    last_gains = v[-1] - v[f.n:-1]
    return eps * f.n * float(v[:f.n].max() - last_gains.min())
