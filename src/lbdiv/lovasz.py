"""The Lovasz extension, its extreme subgradients, and the tie-averaged map."""

from __future__ import annotations

import math

import numpy as np

from .permutation import (Permutation, TieRule, _ordering, _scores,
                          reject_ties)
from .submodular import SetFunction, _pairwise_margins, _subset_values


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


def averaged_subgradient(f: SetFunction, y) -> np.ndarray:
    """Arithmetic mean of the extreme subgradients over all orderings of y.

    For totally ordered y this is the single greedy subgradient. Within a
    tie block B ranked after the items P, the mean is the Shapley value of
    the game S -> f(P + S) - f(P) (Shapley 1953): the weights
    |S|! (|B| - |S| - 1)! / |B|! on the 2^|B| values of f-hat at P + S,
    with no ordering enumerated. A block may hold at most 20 items.
    """
    y = _scores(y, f.n)
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

    Swapping i and j after a prefix A moves h by the margin
    f(A + i) + f(A + j) - f(A + i + j) - f(A), so this holds when every
    margin exceeds `tol`: for submodular f the base polytope then has no
    zero-length edge, and its n! vertices are distinct. Any other f has a
    negative margin and gives False. Exhaustive over the 2^n subsets
    (n <= 20); a proxy for the generator class on which the divergence
    vanishes only on consistent (x, sigma) pairs.
    """
    return all(np.all(m > tol) for m in _pairwise_margins(f))
