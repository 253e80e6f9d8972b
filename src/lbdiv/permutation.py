"""Permutations, score-induced orderings, and classical permutation metrics.

All ranks and items are 1-based. A permutation sigma maps ranks to items:
sigma(i) is the item placed at rank i, sigma^-1(j) is the rank of item j.
"""

from __future__ import annotations

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
        items = _items(mapping)
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

    def inverse(self) -> "Permutation":
        inv = [0] * len(self._items)
        for rank, item in enumerate(self._items, start=1):
            inv[item - 1] = rank
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """The combined permutation (self other)(i) = self(other(i))."""
        _ordering(other, len(self))
        return Permutation(self._items[j - 1] for j in other._items)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        return f"Permutation({list(self._items)})"


def _scores(x, n: int | None = None) -> np.ndarray:
    """x as a score vector: float, 1-d, nonempty, finite, and of length n
    when n is given."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("score vector must be 1-d and nonempty")
    if n is not None and x.size != n:
        raise ValueError(f"length mismatch: {x.size} scores, expected {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("score vector must be finite")
    return x


def _items(values) -> tuple:
    """values as item numbers: ints, each equal to the finite number given."""
    values = list(values)
    try:
        items = tuple(map(int, values))
    except (OverflowError, ValueError):  # inf, nan or text that is no number
        items = ()
    if list(items) != values:
        raise ValueError("items must be finite integers")
    return items


def _ordering(sigma, n: int | None = None) -> Permutation:
    """sigma as an ordering: a Permutation, of n items when n is given."""
    if not isinstance(sigma, Permutation):
        raise TypeError(
            f"ordering must be a Permutation, not {type(sigma).__name__}")
    if n is not None and len(sigma) != n:
        raise ValueError(
            f"length mismatch: ordering has {len(sigma)} items, expected {n}")
    return sigma


def induced_ordering(x, rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> Permutation:
    """Permutation sigma_x sorting x in descending order.

    Under LOWEST_INDEX_FIRST, equal values are ordered by ascending item
    index; under REJECT, tied entries raise TieError. x must be finite.
    """
    x = _scores(x)
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
    x = _scores(x, len(_ordering(tau)))
    out = np.empty_like(x)
    out[np.array(tau.items) - 1] = x
    return out


def kendall_tau(sigma: Permutation, pi: Permutation) -> int:
    """Number of pairwise swaps separating the two permutations.

    Counts pairs i < j with sigma^-1(pi(i)) > sigma^-1(pi(j)).
    """
    _ordering(pi, len(_ordering(sigma)))
    r = np.array(sigma.inverse().items)[np.array(pi.items) - 1]
    return int(np.count_nonzero(np.triu(r[:, None] > r, 1)))


def spearman_footrule(sigma: Permutation, pi: Permutation) -> int:
    """Sum over items of the absolute rank displacement."""
    _ordering(pi, len(_ordering(sigma)))
    a = np.array(sigma.inverse().items)
    b = np.array(pi.inverse().items)
    return int(np.abs(a - b).sum())
