import numpy as np
import pytest

from lbdiv import CardinalityConcave, GraphCut


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
