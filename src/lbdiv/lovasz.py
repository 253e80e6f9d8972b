"""The Lovasz extension, its extreme subgradients, and the tie-averaged map."""

from __future__ import annotations

import math

import numpy as np

from .permutation import (Permutation, TieRule, _ordering, _scores,
                          reject_ties)
from .submodular import SetFunction, _subset_values, _tabulate

ENUMERATION_LIMIT = 8  # largest n for the exhaustive n! enumerations


def extreme_subgradient(f: SetFunction, sigma: Permutation) -> np.ndarray:
    """Greedy marginal gains of f along the prefix chain of sigma.

    h[j - 1] is the component for item j: the difference of f-hat at the
    indicators of the prefix sets ending and starting at j's rank. The
    components telescope to f(V).
    """
    ranks = np.argsort(_ordering(sigma, f.n).items)
    chain = np.zeros(f.n + 1)
    chain[1:] = f.lovasz_batch(np.arange(f.n)[:, None] >= ranks)
    return chain[ranks + 1] - chain[ranks]


def extreme_subgradients(f: SetFunction):
    """Every extreme subgradient at once (n <= ENUMERATION_LIMIT): P holds the
    n! orderings, 1-based, in all_permutations order, and H[k] is h_{P[k]},
    the differences of f's 2^n-value table along P[k]'s prefix bitmasks."""
    if f.n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration limited to n <= {ENUMERATION_LIMIT}")
    # lexicographic: each first item k, then the shorter orderings shifted past k
    P = np.zeros((1, 0), dtype=int)
    for m in range(1, f.n + 1):
        k = np.arange(m)[:, None, None]
        P = np.concatenate((np.broadcast_to(k, (m, len(P), 1)), P + (P >= k)),
                           axis=2).reshape(-1, m)
    chains = _tabulate(f)[np.cumsum(1 << P, axis=1)]
    gains = np.diff(chains, axis=1, prepend=0.0)
    return P + 1, np.take_along_axis(gains, np.argsort(P, axis=1), axis=1)


def lovasz_extension(f: SetFunction, x,
                     rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> float:
    """The greedy (Choquet) value of the convex extension of f at x.

    The value is independent of how ties in x are broken; under
    TieRule.REJECT tied entries raise TieError. The one-row case of
    f.lovasz_batch.
    """
    x = _scores(x, f.n)
    if rule is TieRule.REJECT:
        reject_ties(x)
    return float(f.lovasz_batch(x.reshape(1, -1))[0])


def averaged_subgradient(f: SetFunction, y,
                         zero_at_origin: bool = False) -> np.ndarray:
    """Arithmetic mean of the extreme subgradients over all orderings of y.

    For totally ordered y this is the single greedy subgradient. Within a
    tie block B ranked after the items P, the mean is the Shapley value of
    the game S -> f(P + S) - f(P) (Shapley 1953): the weights
    |S|! (|B| - |S| - 1)! / |B|! on the 2^|B| values of f-hat at P + S,
    with no ordering enumerated. A block may hold at most 20 items. With
    `zero_at_origin`, y = 0 maps to the zero vector instead of the plain
    average (the conventional pin for normalized monotone generators).
    """
    y = _scores(y, f.n)
    if zero_at_origin and np.all(y == 0):
        return np.zeros(f.n)
    h = np.empty(f.n)
    above = []
    for value in np.unique(y)[::-1]:
        block = np.flatnonzero(y == value)
        F = _subset_values(f, block, above)
        b = block.size
        weights = np.array([1.0 / (b * math.comb(b - 1, s)) for s in range(b)])
        masks = np.arange(1 << b)
        for t, item in enumerate(block):
            S = masks[masks & 1 << t == 0]
            h[item] = weights[np.bitwise_count(S)] @ (F[S | 1 << t] - F[S])
        above.extend(block)
    return h


def has_distinct_extreme_points(f: SetFunction, tol: float = 1e-9) -> bool:
    """Check that all n! extreme subgradients of f are pairwise distinct.

    Exhaustive (n <= ENUMERATION_LIMIT); a proxy for the generator class
    on which the divergence vanishes only on consistent (x, sigma) pairs.
    """
    _, H = extreme_subgradients(f)
    # lexicographic sort makes near-duplicates adjacent
    H = H[np.lexsort(H.T[::-1])]
    gaps = np.max(np.abs(np.diff(H, axis=0)), axis=1)
    return bool(np.all(gaps > tol))
