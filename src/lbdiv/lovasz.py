"""The Lovasz extension, its extreme subgradients, and the tie-averaged map."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .permutation import Permutation, TieRule, all_permutations, reject_ties
from .submodular import SetFunction

DEFAULT_ENUMERATION_CAP = 40320  # 8!


@dataclass(frozen=True)
class ExtremeSubgradient:
    """The vector of greedy marginal gains of `generator` along `order`.

    values[j - 1] is the component for item j; the components telescope to
    f(V).
    """

    values: np.ndarray
    generator: SetFunction = field(repr=False)
    order: Permutation

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def extreme_subgradient(f: SetFunction, sigma: Permutation) -> ExtremeSubgradient:
    """Greedy marginal gains of f along the prefix chain of sigma."""
    if len(sigma) != f.n:
        raise ValueError("permutation length does not match the ground set")
    chain = f.chain_values(sigma.items)
    marginals = np.diff(chain, prepend=0.0)
    h = np.empty(f.n)
    h[np.array(sigma.items) - 1] = marginals
    return ExtremeSubgradient(h, f, sigma)


def lovasz_extension(f: SetFunction, x,
                     rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> float:
    """The greedy (Choquet) value of the convex extension of f at x.

    The value is independent of how ties in x are broken; under
    TieRule.REJECT tied entries raise TieError. The one-row case of
    f.lovasz_batch.
    """
    x = np.asarray(x, dtype=float)
    if x.size != f.n:
        raise ValueError("length mismatch")
    if rule is TieRule.REJECT:
        reject_ties(x)
    return float(f.lovasz_batch(x.reshape(1, -1))[0])


def tie_consistent_count(y) -> int:
    """Number of descending orderings consistent with y (product of block factorials)."""
    y = np.asarray(y, dtype=float)
    _, counts = np.unique(y, return_counts=True)
    count = 1
    for c in counts:
        count *= math.factorial(int(c))
    return count


def tie_consistent_permutations(y):
    """Yield every permutation that sorts y in (weakly) descending order."""
    y = np.asarray(y, dtype=float)
    values = np.unique(y)[::-1]
    blocks = [[int(i) + 1 for i in np.flatnonzero(y == v)] for v in values]
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        yield Permutation(itertools.chain.from_iterable(parts))


def averaged_subgradient(f: SetFunction, y, zero_at_origin: bool = False,
                         cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """Arithmetic mean of the extreme subgradients over all orderings of y.

    For totally ordered y this is the single greedy subgradient. With
    `zero_at_origin`, y = 0 maps to the zero vector instead of the plain
    average (the conventional pin for normalized monotone generators).
    Raises if the number of consistent orderings exceeds `cap`.
    """
    y = np.asarray(y, dtype=float)
    if y.size != f.n:
        raise ValueError("length mismatch")
    if zero_at_origin and np.all(y == 0):
        return np.zeros(f.n)
    count = tie_consistent_count(y)
    if count > cap:
        raise ValueError(
            f"{count} tie-consistent orderings exceed the enumeration cap {cap}")
    total = np.zeros(f.n)
    for sigma in tie_consistent_permutations(y):
        total += extreme_subgradient(f, sigma).values
    return total / count


def has_distinct_extreme_points(f: SetFunction, tol: float = 1e-9) -> bool:
    """Check that all n! extreme subgradients of f are pairwise distinct.

    Exhaustive (n <= 8); a proxy for the generator class on which the
    divergence vanishes only on consistent (x, sigma) pairs.
    """
    if f.n > 8:
        raise ValueError("exhaustive extreme-point check limited to n <= 8")
    H = np.array([extreme_subgradient(f, s).values for s in all_permutations(f.n)])
    # lexicographic sort makes near-duplicates adjacent
    order = np.lexsort(H.T[::-1])
    H = H[order]
    gaps = np.max(np.abs(np.diff(H, axis=0)), axis=1)
    return bool(np.all(gaps > tol))
