import itertools
import math

import numpy as np
import pytest

from lbdiv import (CardinalityConcave, ExplicitTable, GraphCut, Modular,
                   Permutation, SetFunction, Sum)


def random_concave_gains(rng, n):
    """A strictly decreasing positive gain table."""
    steps = np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
    return steps


def random_cardinality(rng, n):
    return CardinalityConcave(random_concave_gains(rng, n))


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
