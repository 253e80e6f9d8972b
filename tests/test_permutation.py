import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbdiv import (Permutation, TieError, TieRule, induced_ordering,
                   kendall_tau, relabel_scores, spearman_footrule)
from conftest import all_permutations


def perms(max_n=8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))))


def perm_triples(max_n):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(*(st.permutations(list(range(1, n + 1))),) * 3))


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])
        with pytest.raises(ValueError):
            Permutation([0, 1])
        with pytest.raises(ValueError):
            Permutation([])

    def test_rejects_non_integral_entries(self):
        for mapping in ([1.5, 2.7], [1, 2.5], np.array([2.0, 0.5])):
            with pytest.raises(ValueError, match="integers"):
                Permutation(mapping)
        # integral floats are the integers they equal
        assert Permutation([2.0, 1.0]) == Permutation([2, 1])
        assert Permutation(np.array([1.0, 3.0, 2.0])).items == (1, 3, 2)

    def test_inverse_roundtrip(self):
        sigma = Permutation([2, 3, 1])
        inv = sigma.inverse()
        for i in range(1, 4):
            assert sigma(inv(i)) == i
            assert inv(sigma(i)) == i


class TestInducedOrdering:
    def test_unique_descending_sort(self):
        assert induced_ordering([0.9, 0.1, 0.5]).items == (1, 3, 2)

    def test_tie_broken_by_index(self):
        assert induced_ordering([0.5, 0.5]).items == (1, 2)
        assert induced_ordering([0.3, 0.5, 0.5]).items == (2, 3, 1)

    def test_reject_rule_raises_on_ties(self):
        with pytest.raises(TieError) as exc:
            induced_ordering([0.5, 0.5], TieRule.REJECT)
        assert exc.value.items == (1, 2)

    def test_reject_rule_passes_distinct(self):
        assert induced_ordering([0.9, 0.1, 0.5],
                                TieRule.REJECT).items == (1, 3, 2)

    @given(st.lists(st.integers(-5000, 5000), min_size=1, max_size=8),
           st.floats(0.1, 10), st.floats(-3, 3))
    def test_positive_affine_invariance(self, xs, a, b):
        # well-separated values: the invariance is exact once rounding
        # cannot reorder near-ties
        x = np.array(xs) / 1000.0
        assert induced_ordering(x) == induced_ordering(a * x + b)


class TestCompose:
    def test_involution(self):
        s = Permutation([2, 1])
        assert s.compose(s) == Permutation([1, 2])

    def test_identity_law(self):
        pi = Permutation([3, 1, 2])
        assert Permutation.identity(3).compose(pi) == pi
        assert pi.compose(Permutation.identity(3)) == pi

    def test_direct_evaluation(self):
        # result(i) = sigma(pi(i)) chased by hand
        assert Permutation([2, 3, 1]).compose(
            Permutation([3, 1, 2])) == Permutation([1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Permutation([2, 1]).compose(Permutation([1, 2, 3]))


class TestRelabelScores:
    def test_identity(self):
        np.testing.assert_array_equal(
            relabel_scores(Permutation([1, 2]), [0.3, 0.7]), [0.3, 0.7])

    def test_swap(self):
        np.testing.assert_array_equal(
            relabel_scores(Permutation([2, 1]), [0.3, 0.7]), [0.7, 0.3])

    def test_index_chase(self):
        np.testing.assert_array_equal(
            relabel_scores(Permutation([3, 1, 2]), [1.0, 2.0, 3.0]),
            [2.0, 3.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            relabel_scores(Permutation([2, 1]), [1.0, 2.0, 3.0])


class TestMetrics:
    def test_identity_cases(self):
        sigma = Permutation([1, 2, 3])
        assert kendall_tau(sigma, sigma) == 0
        assert spearman_footrule(sigma, sigma) == 0

    def test_full_reversal(self):
        sigma, pi = Permutation([1, 2, 3]), Permutation([3, 2, 1])
        assert kendall_tau(sigma, pi) == 3
        assert spearman_footrule(sigma, pi) == 4

    def test_single_swap(self):
        assert kendall_tau(Permutation([1, 2, 3]), Permutation([2, 1, 3])) == 1
        assert spearman_footrule(Permutation([1, 2]), Permutation([2, 1])) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau(Permutation([1, 2]), Permutation([1, 2, 3]))

    def test_kendall_matches_pair_enumeration(self, rng):
        # oracle: count discordant item pairs directly
        for _ in range(50):
            n = int(rng.integers(2, 7))
            sigma = Permutation.random(n, rng)
            pi = Permutation.random(n, rng)
            inv_s, inv_p = sigma.inverse(), pi.inverse()
            expected = sum(
                1 for a, b in itertools.combinations(range(1, n + 1), 2)
                if (inv_s(a) - inv_s(b)) * (inv_p(a) - inv_p(b)) < 0)
            assert kendall_tau(sigma, pi) == expected

    @settings(max_examples=60)
    @given(perm_triples(8))
    def test_kendall_left_invariance(self, triple):
        sigma, pi, tau = (Permutation(p) for p in triple)
        assert kendall_tau(sigma, pi) == kendall_tau(
            tau.compose(sigma), tau.compose(pi))

    @settings(max_examples=60)
    @given(perm_triples(6))
    def test_metric_axioms(self, triple):
        sigma, pi, tau = (Permutation(p) for p in triple)
        for d in (kendall_tau, spearman_footrule):
            assert d(sigma, pi) >= 0
            assert (d(sigma, pi) == 0) == (sigma == pi)
            assert d(sigma, pi) == d(pi, sigma)
            assert d(sigma, pi) <= d(sigma, tau) + d(tau, pi)


def test_all_permutations_lexicographic():
    got = [p.items for p in all_permutations(3)]
    assert got == sorted(got)
    assert len(got) == 6
