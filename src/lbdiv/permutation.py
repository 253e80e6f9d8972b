"""Permutations, score-induced orderings, and classical permutation metrics.

All ranks and items are 1-based. A permutation sigma maps ranks to items:
sigma(i) is the item placed at rank i, sigma^-1(j) is the rank of item j.
"""

from __future__ import annotations

import itertools
from enum import Enum

import numpy as np


class TieRule(Enum):
    """How to turn a score vector with tied entries into a single permutation."""

    LOWEST_INDEX_FIRST = "lowest_index_first"
    REJECT = "reject"


class TieError(ValueError):
    """Raised when TieRule.REJECT meets tied entries.

    `items` holds the 1-based indices involved in at least one tie.
    """

    def __init__(self, items):
        self.items = tuple(sorted(items))
        super().__init__(f"tied entries among items {self.items}")


class Permutation:
    """A bijection on {1..n}, stored as the rank -> item mapping."""

    __slots__ = ("_items",)

    def __init__(self, mapping):
        items = tuple(int(v) for v in mapping)
        n = len(items)
        if n < 1:
            raise ValueError("permutation must have length >= 1")
        if sorted(items) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {items}")
        self._items = items

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Permutation":
        return cls(rng.permutation(n) + 1)

    @property
    def items(self) -> tuple:
        """The rank -> item mapping as a 1-based tuple."""
        return self._items

    def __len__(self):
        return len(self._items)

    def __call__(self, rank: int) -> int:
        """Item at `rank` (1-based)."""
        return self._items[rank - 1]

    def rank_of(self, item: int) -> int:
        """Rank assigned to `item` (1-based)."""
        return self._items.index(item) + 1

    def inverse(self) -> "Permutation":
        inv = [0] * len(self._items)
        for rank, item in enumerate(self._items, start=1):
            inv[item - 1] = rank
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """The combined permutation (self other)(i) = self(other(i))."""
        if len(self) != len(other):
            raise ValueError("length mismatch in composition")
        return Permutation(self._items[j - 1] for j in other._items)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        return f"Permutation({list(self._items)})"

    def to_json(self) -> list:
        return list(self._items)

    def to_csv(self) -> str:
        return ",".join(str(v) for v in self._items)


def all_permutations(n: int):
    """Yield every permutation of {1..n} in lexicographic order of the mapping."""
    for items in itertools.permutations(range(1, n + 1)):
        yield Permutation(items)


def induced_ordering(x, rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> Permutation:
    """Permutation sigma_x sorting x in descending order.

    Under LOWEST_INDEX_FIRST, equal values are ordered by ascending item
    index; under REJECT, tied entries raise TieError. x must be finite.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("score vector must be 1-d and nonempty")
    if not np.all(np.isfinite(x)):
        raise ValueError("score vector must be finite")
    if rule is TieRule.REJECT:
        reject_ties(x)
    # stable sort on -x keeps ascending index inside tie blocks
    order = np.argsort(-x, kind="stable") + 1
    return Permutation(order)


def reject_ties(X) -> None:
    """Raise TieError if a row of X has tied entries.

    X is one score vector or a matrix of them; the error names the tied
    items of the first offending row.
    """
    X = np.atleast_2d(X)
    S = np.sort(X, axis=1)
    tied_rows = np.flatnonzero((S[:, 1:] == S[:, :-1]).any(axis=1))
    if tied_rows.size:
        row = X[tied_rows[0]]
        vals, counts = np.unique(row, return_counts=True)
        tied = np.isin(row, vals[counts > 1])
        raise TieError(int(i) + 1 for i in np.flatnonzero(tied))


def relabel_scores(tau: Permutation, x):
    """The relabeled vector (tau x)(i) = x(tau^-1(i))."""
    x = np.asarray(x, dtype=float)
    if len(tau) != x.size:
        raise ValueError("length mismatch")
    out = np.empty_like(x)
    out[np.array(tau.items) - 1] = x
    return out


def _check_pair(sigma: Permutation, pi: Permutation):
    if len(sigma) != len(pi):
        raise ValueError("length mismatch")


def kendall_tau(sigma: Permutation, pi: Permutation) -> int:
    """Number of pairwise swaps separating the two permutations.

    Counts pairs i < j with sigma^-1(pi(i)) > sigma^-1(pi(j)).
    """
    _check_pair(sigma, pi)
    inv = sigma.inverse()
    r = [inv(pi(i)) for i in range(1, len(pi) + 1)]
    n = len(r)
    return sum(1 for i in range(n) for j in range(i + 1, n) if r[i] > r[j])


def spearman_footrule(sigma: Permutation, pi: Permutation) -> int:
    """Sum over items of the absolute rank displacement."""
    _check_pair(sigma, pi)
    a = np.array(sigma.inverse().items)
    b = np.array(pi.inverse().items)
    return int(np.abs(a - b).sum())


def rank_correlation(sigma: Permutation, pi: Permutation) -> int:
    """Sum over items of the squared rank displacement."""
    _check_pair(sigma, pi)
    a = np.array(sigma.inverse().items)
    b = np.array(pi.inverse().items)
    return int(((a - b) ** 2).sum())
