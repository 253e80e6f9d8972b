import itertools
import math

import numpy as np
import pytest

from lbdiv import (CardinalityConcave, ExplicitTable, GraphCut, Modular,
                   Permutation, ScoreMatrix, SetFunction, Sum, TieRule,
                   induced_ordering)
from lbdiv.aggregate import _resolve_weights
from lbdiv.divergence import _ZERO_GUARD
from lbdiv.permutation import _ordering, _scores
from lbdiv.submodular import _tabulate

ENUMERATION_LIMIT = 8  # largest n for the exhaustive n! enumerations


def random_concave_gains(rng, n):
    """A strictly decreasing positive gain table."""
    steps = np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
    return steps


def random_cardinality(rng, n):
    return CardinalityConcave(random_concave_gains(rng, n))


def log2_discounts(n, k=None):
    """NDCG's discounts 1 / log2(i + 1), as a generator truncated at rank k."""
    D = 1.0 / np.log2(np.arange(2.0, n + 2))
    return CardinalityConcave.truncated(D, n if k is None else k)


def random_graph_cut(rng, n):
    W = rng.uniform(0.1, 1.0, size=(n, n))
    W = (W + W.T) / 2
    np.fill_diagonal(W, 0.0)
    return GraphCut(W)


def random_top_m(rng, n):
    m = int(rng.integers(1, n + 1))
    return CardinalityConcave.truncated(random_concave_gains(rng, n), m)


def generator_zoo(rng, n):
    """One of each built-in family with random parameters."""
    return [
        CardinalityConcave.sqrt(n),
        random_cardinality(rng, n),
        random_graph_cut(rng, n),
        random_top_m(rng, n),
    ]


def every_family(rng, n):
    """One generator of each built-in family, including a sum and a table."""
    gains = np.sort(rng.uniform(-1.0, 2.0, n))[::-1]
    W = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < 0.7)
    W = np.triu(W, 1) + np.triu(W, 1).T
    cut = GraphCut(W)
    modular = Modular(rng.uniform(-2.0, 2.0, n))
    return [
        CardinalityConcave(gains),
        # truncation needs a nonnegative gain at the cutoff to stay concave
        CardinalityConcave.truncated(np.maximum(gains, 0.0),
                                     int(rng.integers(1, n + 1))),
        cut,
        CardinalityConcave.top_m(n, 1),
        CardinalityConcave.top_m(n, int(rng.integers(1, n + 1))),
        CardinalityConcave.proper_subset(n),
        modular,
        Sum([cut, CardinalityConcave.sqrt(n), modular]),
        ExplicitTable(n, rng.normal(size=1 << n)),
    ]


class Coverage(SetFunction):
    """A user subclass that defines only __call__: how many elements the
    items' cover sets reach together."""

    def __init__(self, covers):
        super().__init__(len(covers))
        self.covers = [frozenset(c) for c in covers]

    def __call__(self, A) -> float:
        return float(len(frozenset().union(*(self.covers[i - 1] for i in A))))


class OffsetCoverage(Coverage):
    """Coverage with f(empty) = 10 above every singleton: non-monotone and
    non-submodular only through the empty set."""

    def __call__(self, A) -> float:
        A = frozenset(A)
        return super().__call__(A) if A else 10.0


def user_subclasses(rng, n):
    covers = [np.flatnonzero(rng.random(6) < 0.4) for _ in range(n)]
    return [Coverage(covers), OffsetCoverage(covers)]


def chain_subgradient(f, sigma):
    """Oracle for extreme_subgradient, independent of lovasz_batch: the
    differences of f(S_k) through __call__ along sigma's prefix sets S_k,
    with f(S_0) taken as 0."""
    chain = [0.0] + [f(sigma.items[:k]) for k in range(1, f.n + 1)]
    h = np.empty(f.n)
    h[np.array(sigma.items) - 1] = np.diff(chain)
    return h


def _clamp(value: float) -> float:
    # floating-point guard: tiny negatives are exact zeros
    if -_ZERO_GUARD <= value < 0.0:
        return 0.0
    return value


def lb_cardinality(gains, x, sigma: Permutation,
                   rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> float:
    """Closed form for cardinality-based generators, an oracle for
    lb_divergence.

    sum_i x(sigma_x(i)) gains(i) - sum_i x(sigma(i)) gains(i).
    """
    gains = CardinalityConcave(gains).gains
    x = _scores(x, gains.size)
    _ordering(sigma, x.size)
    sx = induced_ordering(x, rule)
    xs = x[np.array(sx.items) - 1]
    xo = x[np.array(sigma.items) - 1]
    return _clamp(float((xs - xo) @ gains))


def lb_cut(W, x, sigma: Permutation, orientation_count: int = 2,
           rule: TieRule = TieRule.LOWEST_INDEX_FIRST) -> float:
    """Pairwise discordance form for graph-cut generators, an oracle for
    lb_divergence.

    Sums W(a, b) |x_a - x_b| over pairs placed discordantly by sigma versus
    the ordering of x. orientation_count = 2 counts both orientations of
    each pair and matches the generic inner-product form; 1 counts each
    pair once (the weighted-Kendall convention).
    """
    W = GraphCut(W).weights
    n = len(W)
    x = _scores(x, n)
    _ordering(sigma, n)
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


def all_permutations(n: int):
    """Yield every permutation of {1..n} in lexicographic order of the mapping."""
    for items in itertools.permutations(range(1, n + 1)):
        yield Permutation(items)


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


def brute_force_mean(matrix: ScoreMatrix, f: SetFunction,
                     weights=None) -> Permutation:
    """Enumeration oracle (n <= ENUMERATION_LIMIT): the lexicographically
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


def tie_consistent_count(y) -> int:
    """Number of descending orderings consistent with y (product of block factorials)."""
    _, counts = np.unique(np.asarray(y, dtype=float), return_counts=True)
    return math.prod(math.factorial(int(c)) for c in counts)


def tie_consistent_permutations(y):
    """Yield every permutation that sorts y in (weakly) descending order."""
    y = np.asarray(y, dtype=float)
    values = np.unique(y)[::-1]
    blocks = [[int(i) + 1 for i in np.flatnonzero(y == v)] for v in values]
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        yield Permutation(itertools.chain.from_iterable(parts))


def enumerated_average(f, y):
    """Oracle for averaged_subgradient: the mean of the chain subgradients
    over every ordering consistent with y."""
    perms = list(tie_consistent_permutations(y))
    assert len(perms) == tie_consistent_count(y)
    return np.mean([chain_subgradient(f, s) for s in perms], axis=0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
