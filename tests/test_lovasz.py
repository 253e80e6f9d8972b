import itertools
import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from lbdiv import (CardinalityConcave, ExplicitTable, GraphCut, Permutation,
                   TieError, TieRule, averaged_subgradient, extreme_subgradient,
                   has_distinct_extreme_points, induced_ordering, is_monotone,
                   is_submodular, lovasz_extension)
from lbdiv.submodular import CUT_CHUNK_ROWS, _tabulate
from conftest import (ENUMERATION_LIMIT, all_permutations, chain_subgradient,
                      enumerated_average, every_family, extreme_subgradients,
                      generator_zoo, tie_consistent_count,
                      tie_consistent_permutations, user_subclasses)


def brute_extension(f, x):
    # oracle: the extension is the max of <h_sigma, x> over all permutations
    best = -math.inf
    for items in itertools.permutations(range(1, f.n + 1)):
        h = chain_subgradient(f, Permutation(items))
        best = max(best, float(np.dot(h, x)))
    return best


class TestExtremeSubgradient:
    def test_max_truncation_by_hand(self):
        h = extreme_subgradient(CardinalityConcave.top_m(2, 1),
                                Permutation([2, 1]))
        np.testing.assert_allclose(h, [0.0, 1.0])

    def test_cardinality_places_gains_at_ranks(self, rng):
        n = 5
        f = CardinalityConcave.sqrt(n)
        for _ in range(10):
            sigma = Permutation.random(n, rng)
            h = extreme_subgradient(f, sigma)
            for i in range(1, n + 1):
                assert h[sigma(i) - 1] == pytest.approx(f.gains[i - 1])

    def test_graph_cut_by_hand(self):
        h = extreme_subgradient(GraphCut.uniform(2), Permutation([1, 2]))
        np.testing.assert_allclose(h, [1.0, -1.0])

    def test_telescopes_to_full_set(self, rng):
        for f in generator_zoo(rng, 6):
            sigma = Permutation.random(6, rng)
            h = extreme_subgradient(f, sigma)
            assert h.sum() == pytest.approx(f(range(1, 7)), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            extreme_subgradient(CardinalityConcave.top_m(3, 1),
                                Permutation([1, 2]))

    def test_matches_chain_oracle(self, rng):
        for n in range(1, 7):
            for f in every_family(rng, n) + user_subclasses(rng, n):
                for _ in range(10):
                    sigma = Permutation.random(n, rng)
                    np.testing.assert_allclose(
                        extreme_subgradient(f, sigma),
                        chain_subgradient(f, sigma), rtol=0, atol=1e-12)


class TestLovaszExtension:
    def test_vertex_tightness(self, rng):
        for n in (2, 4, 10):
            for f in generator_zoo(rng, n):
                for mask in range(1 << n):
                    A = {i + 1 for i in range(n) if mask >> i & 1}
                    ind = np.zeros(n)
                    for i in A:
                        ind[i - 1] = 1.0
                    assert lovasz_extension(f, ind) == pytest.approx(
                        f(A), abs=1e-12)

    def test_greedy_formula_by_hand(self):
        f = CardinalityConcave.sqrt(2)
        assert lovasz_extension(f, [1.0, 0.5]) == pytest.approx(
            1 + 0.5 * (math.sqrt(2) - 1), abs=1e-12)

    def test_zero_vector(self, rng):
        for f in generator_zoo(rng, 4):
            assert lovasz_extension(f, np.zeros(4)) == 0.0

    def test_greedy_consistency(self, rng):
        for f in generator_zoo(rng, 5):
            for _ in range(50):
                x = rng.standard_normal(5)
                sigma = induced_ordering(x)
                h = chain_subgradient(f, sigma)
                assert lovasz_extension(f, x) == pytest.approx(
                    float(x @ h), rel=1e-12, abs=1e-12)

    def test_matches_enumeration_oracle(self, rng):
        for f in generator_zoo(rng, 4):
            for _ in range(20):
                x = rng.random(4)
                assert lovasz_extension(f, x) == pytest.approx(
                    brute_extension(f, x), abs=1e-10)

    def test_subgradient_inequality(self, rng):
        for f in generator_zoo(rng, 6):
            for _ in range(30):
                x, y = rng.random(6), rng.random(6)
                h = extreme_subgradient(f, induced_ordering(y))
                assert lovasz_extension(f, x) >= \
                    lovasz_extension(f, y) + float(h @ (x - y)) - 1e-9

    def test_convexity_along_segments(self, rng):
        for f in generator_zoo(rng, 5):
            for _ in range(30):
                x, y = rng.random(5), rng.random(5)
                lam = rng.random()
                assert lovasz_extension(f, lam * x + (1 - lam) * y) <= \
                    lam * lovasz_extension(f, x) + \
                    (1 - lam) * lovasz_extension(f, y) + 1e-9

    def test_tie_rule_independence(self, rng):
        f = CardinalityConcave.sqrt(4)
        x = np.array([0.5, 0.2, 0.5, 0.2])
        value = lovasz_extension(f, x, TieRule.LOWEST_INDEX_FIRST)
        for sigma in tie_consistent_permutations(x):
            h = chain_subgradient(f, sigma)
            assert float(x @ h) == pytest.approx(value, abs=1e-12)
        y = rng.random(4)
        assert lovasz_extension(f, y, TieRule.REJECT) == \
            lovasz_extension(f, y, TieRule.LOWEST_INDEX_FIRST)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lovasz_extension(CardinalityConcave.top_m(3, 1), [1.0, 0.0])


class TestTieEnumeration:
    def test_count(self):
        assert tie_consistent_count([0.5, 0.5, 0.1]) == 2
        assert tie_consistent_count([1.0, 1.0, 1.0]) == 6
        assert tie_consistent_count([3.0, 2.0, 1.0]) == 1

    def test_permutations_sort_descending(self):
        y = np.array([0.1, 0.5, 0.5])
        perms = list(tie_consistent_permutations(y))
        assert len(perms) == 2
        for sigma in perms:
            vals = [y[sigma(i) - 1] for i in range(1, 4)]
            assert vals == sorted(vals, reverse=True)


class TestAveragedSubgradient:
    def test_totally_ordered_equals_extreme(self, rng):
        for f in generator_zoo(rng, 4):
            x = np.array([0.9, 0.1, 0.6, 0.3])
            np.testing.assert_allclose(
                averaged_subgradient(f, x),
                extreme_subgradient(f, induced_ordering(x)))

    def test_two_way_tie_average(self):
        f = CardinalityConcave.sqrt(2)
        np.testing.assert_allclose(
            averaged_subgradient(f, [0.5, 0.5]),
            [math.sqrt(2) / 2, math.sqrt(2) / 2], atol=1e-12)

    def test_origin_plain_average_vs_pin(self):
        f = CardinalityConcave.sqrt(3)
        plain = averaged_subgradient(f, np.zeros(3))
        # mean over all orderings spreads f(V) evenly
        np.testing.assert_allclose(plain, np.full(3, math.sqrt(3) / 3),
                                   atol=1e-12)

    def test_tie_block_limit(self):
        # nine tied items are 9! orderings, averaged without enumerating them
        np.testing.assert_allclose(
            averaged_subgradient(CardinalityConcave.sqrt(9), np.zeros(9)),
            np.full(9, 3.0 / 9), rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="limited to 20 items"):
            averaged_subgradient(CardinalityConcave.sqrt(21), np.zeros(21))

    def test_matches_enumeration_for_random_ties(self, rng):
        for n in range(1, 7):
            for f in every_family(rng, n) + user_subclasses(rng, n):
                for _ in range(3):
                    y = rng.integers(0, 3, n).astype(float)
                    np.testing.assert_allclose(
                        averaged_subgradient(f, y), enumerated_average(f, y),
                        rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            averaged_subgradient(CardinalityConcave.sqrt(2), [0.5, bad])


@pytest.mark.parametrize("fn", [lovasz_extension, averaged_subgradient],
                         ids=lambda fn: fn.__name__)
def test_matrix_of_scores_rejected(fn):
    # a 2x2 matrix has n = 4 entries but is not a score vector
    with pytest.raises(ValueError, match="1-d"):
        fn(CardinalityConcave.sqrt(4), np.ones((2, 2)))


class TestDistinctExtremePoints:
    def test_strictly_decreasing_gains_distinct(self):
        assert has_distinct_extreme_points(CardinalityConcave.sqrt(4))

    def test_tied_gains_not_distinct(self):
        assert not has_distinct_extreme_points(
            CardinalityConcave(np.ones(3)))

    def test_limit(self):
        with pytest.raises(ValueError):
            has_distinct_extreme_points(CardinalityConcave.sqrt(21))

    def test_path_cut_unlinked_items_swap_to_equal_points(self):
        # items 1 and 3 share no edge, so swapping them after any prefix
        # leaves h unchanged up to rounding
        f = GraphCut([[0, .1, 0], [.1, 0, .2], [0, .2, 0]])
        assert not has_distinct_extreme_points(f)

    def test_agrees_with_enumeration_on_submodular_generators(self, rng):
        def distinct_by_enumeration(f, tol=1e-9):
            # every pair of the n! rows differs by more than tol somewhere
            _, H = extreme_subgradients(f)
            gaps = np.abs(H[:, None] - H[None]).max(axis=2)
            np.fill_diagonal(gaps, np.inf)
            return bool(np.all(gaps > tol))

        seen = set()
        for n in range(1, 7):
            for f in every_family(rng, n) + user_subclasses(rng, n):
                if is_submodular(f):
                    expected = distinct_by_enumeration(f)
                    assert has_distinct_extreme_points(f) == expected
                    seen.add(expected)
        assert seen == {True, False}

    def test_not_submodular_is_false(self):
        # a supermodular f: every margin is negative, and its extreme
        # points are distinct all the same
        f = CardinalityConcave.sqrt(4)
        g = ExplicitTable.from_function(4, lambda S: -f(S))
        assert not is_submodular(g)
        assert not has_distinct_extreme_points(g)

    def test_beyond_enumeration(self):
        assert has_distinct_extreme_points(CardinalityConcave.sqrt(12))
        # tied gains at the lattice limit: 20! points, many equal
        assert not has_distinct_extreme_points(
            CardinalityConcave.top_m(20, 19))


class TestUserSubclass:
    def test_structural_checks_see_the_empty_set(self, rng):
        for n in range(2, 6):
            normalized, offset = user_subclasses(rng, n)
            assert is_monotone(normalized) and is_submodular(normalized)
            assert not is_monotone(offset)
            assert not is_submodular(offset)

    def test_tabulation_matches_call(self, rng):
        for n in range(1, 7):
            for f in every_family(rng, n) + user_subclasses(rng, n):
                expected = [f({i + 1 for i in range(n) if m >> i & 1})
                            for m in range(1 << n)]
                np.testing.assert_allclose(_tabulate(f), expected,
                                           rtol=0, atol=1e-12)


class TestExtremeSubgradients:
    def test_rows_match_extreme_subgradient_for_every_family(self, rng):
        for n in range(1, 7):
            for f in every_family(rng, n) + user_subclasses(rng, n):
                P, H = extreme_subgradients(f)
                perms = list(all_permutations(n))
                assert [tuple(p) for p in P.tolist()] == \
                    [s.items for s in perms]
                expected = np.array([chain_subgradient(f, s) for s in perms])
                np.testing.assert_allclose(H, expected, rtol=0, atol=1e-12)

    def test_limit(self):
        with pytest.raises(ValueError, match="limited"):
            extreme_subgradients(
                CardinalityConcave.sqrt(ENUMERATION_LIMIT + 1))


def greedy_values(f, X):
    """Per-row greedy value <x, h_{sigma_x}> and its summands' scale."""
    vals, scales = [], []
    for x in X:
        h = chain_subgradient(f, induced_ordering(x))
        vals.append(float(x @ h))
        scales.append(float(np.abs(x) @ np.abs(h)))
    return np.array(vals), np.array(scales)


def assert_batch_matches_greedy(f, X):
    # 1e-12 relative to the size of the summands: rows whose value cancels
    # to zero still carry rounding on the scale of |x| |h|
    expected, scale = greedy_values(f, X)
    np.testing.assert_array_less(np.abs(f.lovasz_batch(X) - expected),
                                 1e-12 * np.maximum(scale, 1.0))


# a few distinct values make ties, all-equal rows and sign changes common
entries = st.one_of(st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0]),
                    st.floats(-100, 100, allow_nan=False))


@st.composite
def score_matrices(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if draw(st.booleans()):
        rows.append([rows[0][0]] * n)
    return np.array(rows, dtype=float)


class TestLovaszBatch:
    @settings(max_examples=150, deadline=None)
    @given(score_matrices(), st.integers(0, 2**32 - 1))
    def test_matches_greedy_for_every_family(self, X, seed):
        rng = np.random.default_rng(seed)
        n = X.shape[1]
        for f in every_family(rng, n) + user_subclasses(rng, n):
            assert_batch_matches_greedy(f, X)

    def test_cut_crosses_chunk_boundary(self, rng):
        X = np.round(rng.normal(size=(2 * CUT_CHUNK_ROWS + 3, 5)), 1)
        X[CUT_CHUNK_ROWS - 1:CUT_CHUNK_ROWS + 1] = 0.25  # all-equal rows
        f = every_family(rng, 5)[2]
        assert_batch_matches_greedy(f, X)

    def test_extension_is_the_one_row_case(self, rng):
        for f in every_family(rng, 4):
            x = rng.normal(size=4)
            assert lovasz_extension(f, x) == f.lovasz_batch([x])[0]

    def test_extension_rejects_ties_under_reject_rule(self):
        f = GraphCut.uniform(3)
        with pytest.raises(TieError) as exc:
            lovasz_extension(f, [0.5, 0.5, 0.1], TieRule.REJECT)
        assert exc.value.items == (1, 2)
