import itertools
import math

import numpy as np
import pytest

from lbdiv import (CardinalityConcave, DiscountProfile, ExplicitTable,
                   ExtendedLovaszMallows, GraphCut, LovaszMallows, Modular,
                   PartialOrder, Permutation, ScoreMatrix, Sum, TieError,
                   TieRule, all_permutations, auc_loss, confidence_bound,
                   feature_inference, induced_ordering, kendall_tau,
                   lb_cardinality, lb_cut, lb_divergence, lb_divergence_batch,
                   lovasz_extension, mean_ordering, ndcg_loss,
                   partial_order_distortion, relabel_scores)
from conftest import (chain_subgradient, every_family, generator_zoo,
                      random_concave_gains, random_graph_cut, user_subclasses)

SQRT3_DIV = 0.038550526870925236  # frozen from the by-hand gain-table sums


class TestGenericDivergence:
    def test_constant_vector_is_zero_everywhere(self, rng):
        for f in generator_zoo(rng, 4):
            x = np.full(4, 0.37)
            for sigma in all_permutations(4):
                # zero up to summation order of identical products
                assert 0.0 <= lb_divergence(f, x, sigma) <= 1e-12

    def test_uniform_cut_by_hand(self):
        f = GraphCut.uniform(2)
        assert lb_divergence(f, [0.3, 0.7], Permutation([1, 2])) == \
            pytest.approx(0.8, abs=1e-12)

    def test_sqrt_cardinality_by_hand(self):
        f = CardinalityConcave.sqrt(3)
        assert lb_divergence(f, [0.9, 0.1, 0.5], Permutation([1, 2, 3])) == \
            pytest.approx(SQRT3_DIV, abs=1e-12)

    def test_zero_on_consistent_permutation(self, rng):
        for f in generator_zoo(rng, 5):
            x = rng.random(5)
            assert lb_divergence(f, x, induced_ordering(x)) == 0.0

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_zero_on_consistent_permutation_at_scale(self, rng, scale):
        n = 10
        X = scale * rng.random((100, n))
        for f in (GraphCut.uniform(n), CardinalityConcave.sqrt(n),
                  CardinalityConcave.top_m(n, 3)):
            for x in X:
                assert lb_divergence(f, x, induced_ordering(x)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lb_divergence(CardinalityConcave.top_m(3, 1), [0.1, 0.2],
                          Permutation([1, 2, 3]))

    def test_batch_matches_scalar(self, rng):
        for f in generator_zoo(rng, 5):
            X = rng.random((8, 5))
            sigma = Permutation.random(5, rng)
            batch = lb_divergence_batch(f, X, sigma)
            for i, row in enumerate(X):
                assert batch[i] == pytest.approx(
                    lb_divergence(f, row, sigma), abs=1e-12)

    def test_batch_tie_rule_is_the_same_for_every_generator(self):
        table = ExplicitTable.from_function(3, lambda S: math.sqrt(len(S)))
        sigma = Permutation([3, 1, 2])
        X = np.array([[0.9, 0.2, 0.4], [0.5, 0.1, 0.5], [0.3, 0.3, 0.3]])
        for f in (CardinalityConcave.sqrt(3), GraphCut.uniform(3), table):
            with pytest.raises(TieError) as exc:
                lb_divergence_batch(f, X, sigma, TieRule.REJECT)
            assert exc.value.items == (1, 3)  # the first tied row's items
            with pytest.raises(TieError):
                lb_divergence(f, X[2], sigma, TieRule.REJECT)
            np.testing.assert_array_equal(
                lb_divergence_batch(f, X[:1], sigma, TieRule.REJECT),
                lb_divergence_batch(f, X[:1], sigma))
            assert lb_divergence_batch(f, X, sigma).shape == (3,)

    @pytest.mark.parametrize("rule", [TieRule.LOWEST_INDEX_FIRST,
                                      TieRule.REJECT])
    def test_many_orderings_match_one_at_a_time(self, rng, rule):
        for n in range(1, 7):
            X = rng.random((9, n))  # distinct entries, as REJECT requires
            if rule is TieRule.LOWEST_INDEX_FIRST:
                X = np.round(4 * X) / 4  # tied rows and exact zeros
            # each row's own ordering too, so the zero guard is exercised
            sigmas = ([Permutation.random(n, rng) for _ in range(3)]
                      + [induced_ordering(x) for x in X[:2]])
            for f in every_family(rng, n) + user_subclasses(rng, n):
                D = lb_divergence_batch(f, X, sigmas, rule)
                assert D.shape == (9, 5)
                for j, sigma in enumerate(sigmas):
                    assert np.array_equal(
                        D[:, j], lb_divergence_batch(f, X, sigma, rule))
                assert np.array_equal(
                    lb_divergence_batch(f, X, iter(sigmas[:1]), rule),
                    D[:, :1])

    def test_many_orderings_validation(self):
        f = CardinalityConcave.sqrt(3)
        X = np.ones((2, 3))
        good = Permutation([1, 2, 3])
        for bad in (Permutation([2, 1]), Permutation([1, 2, 3, 4])):
            for sigmas in ([bad, good], [good, bad], [good, good, bad]):
                with pytest.raises(ValueError, match="length mismatch"):
                    lb_divergence_batch(f, X, sigmas)
        with pytest.raises(ValueError, match="at least one ordering"):
            lb_divergence_batch(f, X, [])

    def test_tie_handling_is_value_independent(self):
        # any ordering consistent with tied x gives the same divergence
        f = CardinalityConcave.sqrt(3)
        x = np.array([0.5, 0.5, 0.1])
        sigma = Permutation([3, 1, 2])
        base = lb_divergence(f, x, sigma)
        h_s = chain_subgradient(f, sigma)
        for consistent in (Permutation([1, 2, 3]), Permutation([2, 1, 3])):
            h_x = chain_subgradient(f, consistent)
            assert float(x @ (h_x - h_s)) == pytest.approx(base, abs=1e-12)


class TestSpecializedForms:
    def test_cardinality_by_hand(self):
        gains = np.array([1.0, math.sqrt(2) - 1, math.sqrt(3) - math.sqrt(2)])
        assert lb_cardinality(gains, [0.9, 0.1, 0.5], Permutation([1, 2, 3])) \
            == pytest.approx(SQRT3_DIV, abs=1e-12)

    def test_cardinality_zero_on_own_ordering(self, rng):
        gains = random_concave_gains(rng, 5)
        x = rng.random(5)
        assert lb_cardinality(gains, x, induced_ordering(x)) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cardinality_non_finite_gains_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            lb_cardinality([bad, 0.0], [0.9, 0.1], Permutation([1, 2]))

    def test_cardinality_spearman_like_weights(self, rng):
        # gains n - i turn the divergence into a rank-weighted sum gap
        n = 5
        gains = np.array([float(n - i) for i in range(1, n + 1)])
        x = rng.random(n)
        sigma = Permutation.random(n, rng)
        sx = induced_ordering(x)
        expected = sum(i * x[sigma(i) - 1] for i in range(1, n + 1)) - \
            sum(i * x[sx(i) - 1] for i in range(1, n + 1))
        assert lb_cardinality(gains, x, sigma) == pytest.approx(
            expected, abs=1e-12)

    def test_cut_zero_on_own_ordering(self, rng):
        x = rng.random(4)
        W = random_graph_cut(rng, 4).weights
        assert lb_cut(W, x, induced_ordering(x)) == 0.0

    def test_cut_orientation_conventions(self):
        W = GraphCut.uniform(2).weights
        assert lb_cut(W, [0.3, 0.7], Permutation([1, 2]), 2) == \
            pytest.approx(0.8, abs=1e-12)
        assert lb_cut(W, [0.3, 0.7], Permutation([1, 2]), 1) == \
            pytest.approx(0.4, abs=1e-12)

    def test_cut_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            lb_cut(np.array([[0, 1.0], [2.0, 0]]), [0.1, 0.2],
                   Permutation([1, 2]))

    @pytest.mark.parametrize("W, message", [
        ([[0, -1], [-1, 0]], "nonnegative"),
        ([[0, np.nan], [np.nan, 0]], "finite"),
        ([[1, 1], [1, 0]], "diagonal"),
    ], ids=["negative", "nan", "diagonal"])
    def test_cut_validates_weights_as_graph_cut_does(self, W, message):
        with pytest.raises(ValueError, match=message):
            lb_cut(W, [1.0, 0.0], Permutation([2, 1]))
        with pytest.raises(ValueError, match=message):
            GraphCut(W)

    def test_top_m_single_top_value(self, rng):
        x = rng.random(5)
        sigma = Permutation.random(5, rng)
        assert lb_cardinality([1.0, 0, 0, 0, 0], x, sigma) == pytest.approx(
            x.max() - x[sigma(1) - 1], abs=1e-12)

    def test_top_m_set_insensitive_to_internal_order(self):
        x = np.array([0.9, 0.1, 0.5, 0.3])
        # both orderings place the same top-2 set {1, 3}
        for sigma in (Permutation([1, 3, 2, 4]), Permutation([3, 1, 4, 2])):
            assert lb_cardinality([1.0, 1.0, 0, 0], x, sigma) == 0.0

    def test_top_m_by_hand(self):
        assert lb_cardinality([1.0, 1.0, 0], [0.9, 0.1, 0.5],
                              Permutation([1, 2, 3])) == pytest.approx(
                                  0.4, abs=1e-12)

    def test_top_m_out_of_range(self):
        for m in (0, 4):
            with pytest.raises(ValueError):
                CardinalityConcave.top_m(3, m)

    def test_specialized_agree_with_generic(self, rng):
        n = 5
        for _ in range(30):
            x = rng.random(n)
            sigma = Permutation.random(n, rng)
            gains = random_concave_gains(rng, n)
            assert lb_cardinality(gains, x, sigma) == pytest.approx(
                lb_divergence(CardinalityConcave(gains), x, sigma), abs=1e-12)
            cut = random_graph_cut(rng, n)
            assert lb_cut(cut.weights, x, sigma, 2) == pytest.approx(
                lb_divergence(cut, x, sigma), abs=1e-12)
            m = int(rng.integers(1, n + 1))
            top_m = np.where(np.arange(n) < m, gains, 0.0)
            assert lb_cardinality(top_m, x, sigma) == pytest.approx(
                lb_divergence(CardinalityConcave.truncated(gains, m), x,
                              sigma), abs=1e-12)


class TestRankingMeasures:
    def test_ndcg_zero_on_ideal(self, rng):
        r = rng.random(5)
        assert ndcg_loss(r, induced_ordering(r),
                         DiscountProfile.log2(5)) == 0.0

    def test_ndcg_by_hand(self):
        loss = ndcg_loss([3, 2, 0], Permutation([2, 1, 3]),
                         DiscountProfile.log2(3))
        assert loss == pytest.approx(0.08659840752844575, abs=1e-12)

    def test_ndcg_constant_relevance(self):
        for sigma in all_permutations(3):
            assert ndcg_loss([2, 2, 2], sigma, DiscountProfile.log2(3)) == 0.0

    def test_ndcg_all_zero_relevance(self):
        with pytest.raises(ValueError):
            ndcg_loss([0, 0, 0], Permutation([1, 2, 3]),
                      DiscountProfile.log2(3))

    def test_ndcg_numerator_is_top_m(self, rng):
        n, k = 6, 4
        profile = DiscountProfile.log2(n, k)
        D = np.array(profile.values)
        for _ in range(20):
            r = rng.random(n)
            sigma = Permutation.random(n, rng)
            sr = induced_ordering(r)
            ideal = sum(r[sr(i) - 1] * D[i - 1] for i in range(1, k + 1))
            top_k = np.where(np.arange(n) < k, D, 0.0)
            assert ndcg_loss(r, sigma, profile) * ideal == pytest.approx(
                lb_cardinality(top_k, r, sigma), abs=1e-12)

    def test_auc_perfect_separation(self):
        assert auc_loss({1, 2}, {3, 4}, Permutation([2, 1, 3, 4])) == 0.0

    def test_auc_single_inverted_pair(self):
        assert auc_loss({1}, {2}, Permutation([2, 1])) == 1.0

    def test_auc_half(self):
        assert auc_loss({1, 2}, {3}, Permutation([1, 3, 2])) == 0.5

    def test_auc_validation(self):
        with pytest.raises(ValueError):
            auc_loss(set(), {1}, Permutation([1, 2]))
        with pytest.raises(ValueError):
            auc_loss({1}, {1, 2}, Permutation([1, 2]))

    def test_auc_equals_cut_form(self, rng):
        n = 6
        for _ in range(20):
            size_g = int(rng.integers(1, n))
            items = list(rng.permutation(n) + 1)
            G, B = items[:size_g], items[size_g:]
            sigma = Permutation.random(n, rng)
            W = np.zeros((n, n))
            for g in G:
                for b in B:
                    W[g - 1, b - 1] = W[b - 1, g - 1] = 1.0 / (len(G) * len(B))
            x = np.zeros(n)
            for g in G:
                x[g - 1] = 1.0
            assert auc_loss(G, B, sigma) == pytest.approx(
                lb_cut(W, x, sigma, 1), abs=1e-12)


class TestPartialOrder:
    def test_satisfied_order_is_zero(self):
        P = PartialOrder(((1, 2, 1.0), (3, 2, 1.0)))
        assert partial_order_distortion(P, [0.9, 0.1, 0.5]) == 0.0

    def test_hinge_by_hand(self):
        P = PartialOrder(((1, 2, 1.0), (3, 2, 1.0)))
        assert partial_order_distortion(P, [0.2, 0.5, 0.9]) == \
            pytest.approx(0.3, abs=1e-12)

    def test_linear_in_weights(self, rng):
        cons = ((1, 2, 0.5), (2, 3, 1.5))
        doubled = tuple((a, b, 2 * w) for a, b, w in cons)
        x = rng.random(3)
        assert partial_order_distortion(PartialOrder(doubled), x) == \
            pytest.approx(2 * partial_order_distortion(PartialOrder(cons), x))

    def test_validation(self):
        with pytest.raises(ValueError):
            PartialOrder(((1, 1, 1.0),))
        with pytest.raises(ValueError):
            PartialOrder(((1, 2, 0.0),))
        with pytest.raises(ValueError):
            partial_order_distortion(PartialOrder(((1, 5, 1.0),)), [0.1, 0.2])

    def test_matches_cut_divergence_on_violations(self):
        # the cut form with constraint edges reproduces the hinge total
        P = PartialOrder(((1, 2, 1.0), (3, 2, 1.0)))
        x = np.array([0.2, 0.5, 0.9])
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        W[2, 1] = W[1, 2] = 1.0
        sigma = Permutation([1, 3, 2])  # ranks all "above" items first
        assert lb_cut(W, x, sigma, 1) == pytest.approx(
            partial_order_distortion(P, x), abs=1e-12)


class TestConfidenceBound:
    def test_constant_vector(self):
        assert confidence_bound(CardinalityConcave.sqrt(3),
                                [0.4, 0.4, 0.4]) == 0.0

    def test_uniform_cut_by_hand(self):
        assert confidence_bound(GraphCut.uniform(2), [0.3, 0.7]) == \
            pytest.approx(1.6, abs=1e-12)

    def test_dominates_divergence_exhaustively(self, rng):
        for n in (3, 5, 6):
            # proper_subset is not monotone: the bound needs only
            # submodularity
            for f in generator_zoo(rng, n) + [
                    CardinalityConcave.proper_subset(n)]:
                x = rng.random(n)
                bound = confidence_bound(f, x)
                for sigma in all_permutations(n):
                    assert lb_divergence(f, x, sigma) <= bound + 1e-12

    def test_monotone_second_inequality(self, rng):
        for f in (CardinalityConcave.sqrt(4), CardinalityConcave.top_m(4, 1)):
            x = rng.random(4)
            eps = x.max() - x.min()
            assert confidence_bound(f, x) <= \
                eps * 4 * max(f({j}) for j in range(1, 5)) + 1e-12


class TestAlgebraicProperties:
    def test_nonnegativity(self, rng):
        for n in (2, 4, 6, 8):
            for f in generator_zoo(rng, n):
                for _ in range(10):
                    x = rng.random(n)
                    sigma = Permutation.random(n, rng)
                    assert lb_divergence(f, x, sigma) >= -1e-12

    def test_zero_iff_consistent_restricted_families(self, rng):
        for n in (3, 4, 5):
            gains = random_concave_gains(rng, n)  # strictly decreasing
            fams = [CardinalityConcave(gains), random_graph_cut(rng, n)]
            for f in fams:
                for _ in range(5):
                    x = rng.random(n)
                    sx = induced_ordering(x)
                    for sigma in all_permutations(n):
                        d = lb_divergence(f, x, sigma)
                        if sigma == sx:
                            assert d == 0.0
                        else:
                            assert d > 0.0

    def test_convexity_in_x(self, rng):
        for f in generator_zoo(rng, 5):
            sigma = Permutation.random(5, rng)
            for _ in range(20):
                x, y = rng.random(5), rng.random(5)
                lam = rng.random()
                assert lb_divergence(f, lam * x + (1 - lam) * y, sigma) <= \
                    lam * lb_divergence(f, x, sigma) + \
                    (1 - lam) * lb_divergence(f, y, sigma) + 1e-9

    def test_linearity_in_generator(self, rng):
        n = 5
        f1 = CardinalityConcave.sqrt(n)
        f2 = random_graph_cut(rng, n)
        for _ in range(20):
            x = rng.random(n)
            sigma = Permutation.random(n, rng)
            total = lb_divergence(Sum([f1, f2]), x, sigma)
            parts = lb_divergence(f1, x, sigma) + lb_divergence(f2, x, sigma)
            assert total == pytest.approx(parts, rel=1e-12, abs=1e-12)

    def test_modular_invariance(self, rng):
        n = 5
        for f in generator_zoo(rng, n):
            m = Modular(rng.standard_normal(n))
            for _ in range(10):
                x = rng.random(n)
                sigma = Permutation.random(n, rng)
                assert lb_divergence(Sum([f, m]), x, sigma) == pytest.approx(
                    lb_divergence(f, x, sigma), rel=1e-12, abs=1e-12)

    def test_linear_separation(self, rng):
        # d(x||s1) - d(x||s2) = <x, h_{s2} - h_{s1}> everywhere
        for f in generator_zoo(rng, 5):
            s1, s2 = Permutation.random(5, rng), Permutation.random(5, rng)
            h1 = chain_subgradient(f, s1)
            h2 = chain_subgradient(f, s2)
            for _ in range(20):
                x = rng.random(5)
                diff = lb_divergence(f, x, s1) - lb_divergence(f, x, s2)
                assert diff == pytest.approx(float(x @ (h2 - h1)), abs=1e-10)

    def test_relabeling_invariance_cardinality(self, rng):
        for n in (3, 5, 8):
            gains = random_concave_gains(rng, n)
            f = CardinalityConcave(gains)
            for _ in range(20):
                x = rng.random(n)
                sigma = Permutation.random(n, rng)
                tau = Permutation.random(n, rng)
                assert lb_divergence(f, relabel_scores(tau, x),
                                     tau.compose(sigma)) == pytest.approx(
                    lb_divergence(f, x, sigma), abs=1e-12)

    def test_uniform_cut_kendall_bound(self, rng):
        # for the |X||V-X| cut, divergence <= 2 eps d_T under the
        # both-orientations convention
        n = 5
        f = GraphCut.uniform(n)
        for _ in range(30):
            x = rng.random(n)
            eps = x.max() - x.min()
            sigma = Permutation.random(n, rng)
            assert lb_divergence(f, x, sigma) <= \
                2 * eps * kendall_tau(induced_ordering(x), sigma) + 1e-12

    def test_priority_for_higher_ranks(self):
        # equal-gap scores: an adjacent swap at position k costs
        # gap * (gains[k-1] - gains[k]), strictly decreasing in k
        n = 6
        gap = 0.1
        f = CardinalityConcave.sqrt(n)
        x = np.array([1.0 - gap * i for i in range(n)])
        sx = induced_ordering(x)
        costs = []
        for k in range(1, n):
            swapped = list(sx.items)
            swapped[k - 1], swapped[k] = swapped[k], swapped[k - 1]
            d = lb_divergence(f, x, Permutation(swapped))
            expected = gap * (f.gains[k - 1] - f.gains[k])
            assert d == pytest.approx(expected, abs=1e-12)
            costs.append(d)
        assert all(a > b for a, b in zip(costs, costs[1:]))


class TestKendallRecovery:
    def test_inverse_gap_weights_recover_swap_count(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 8))
            # integer ranks scaled by a power of two keep every
            # reciprocal-weight product exactly 1.0
            scale = 2.0 ** int(rng.integers(-3, 4))
            x = (rng.permutation(n) + 1.0) * scale
            sx = induced_ordering(x)
            W = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i != j:
                        W[i, j] = 1.0 / abs(x[i] - x[j])
            sigma = Permutation.random(n, rng)
            value = lb_cut(W, x, sigma, 1)
            assert value == float(kendall_tau(sx, sigma))


class TestDiscountProfile:
    def test_log2_values(self):
        p = DiscountProfile.log2(3)
        assert p.values[0] == pytest.approx(1.0)
        assert p.values[1] == pytest.approx(1 / math.log2(3))
        assert p.cutoff == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscountProfile((1.0, 2.0), 2)  # increasing
        with pytest.raises(ValueError):
            DiscountProfile((1.0, 0.0), 2)  # nonpositive
        with pytest.raises(ValueError):
            DiscountProfile((1.0, 0.5), 3)  # cutoff too large

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DiscountProfile((bad, 1.0), 1)
        with pytest.raises(ValueError, match="finite"):
            DiscountProfile((1.0, bad), 2)

    def test_from_json(self):
        p = DiscountProfile.from_json("[1.0, 0.5, 0.25]", 2)
        assert p.values == (1.0, 0.5, 0.25)
        assert p.cutoff == 2


def non_finite_calls(bad):
    """Every public entry point that takes a score vector or a weight,
    called with one non-finite entry."""
    f = CardinalityConcave.sqrt(2)
    sigma = Permutation([1, 2])
    x = [0.5, bad]
    two_rows = ScoreMatrix([[1.0, 2.0], [3.0, 4.0]])
    return {
        "induced_ordering": lambda: induced_ordering(x),
        "lb_divergence": lambda: lb_divergence(f, x, sigma),
        "lb_divergence_batch": lambda: lb_divergence_batch(
            GraphCut.uniform(2), [[0.1, 0.2], x], sigma),
        "lovasz_extension": lambda: lovasz_extension(f, x),
        "confidence_bound": lambda: confidence_bound(f, x),
        "partial_order_distortion": lambda: partial_order_distortion(
            PartialOrder(((1, 2, 1.0),)), x),
        "lb_cardinality": lambda: lb_cardinality(f.gains, x, sigma),
        "lb_cut": lambda: lb_cut(GraphCut.uniform(2).weights, x, sigma),
        # a negative relevance is rejected as such before its finiteness
        "ndcg_loss": lambda: ndcg_loss([0.5, abs(bad)], sigma,
                                       DiscountProfile.log2(2)),
        "mean_ordering": lambda: mean_ordering(two_rows, [1.0, bad]),
        "feature_inference": lambda: feature_inference(two_rows, [1.0, bad]),
        "PartialOrder": lambda: PartialOrder(((1, 2, bad),)),
        "LovaszMallows": lambda: LovaszMallows(f, sigma, bad),
        "ExtendedLovaszMallows": lambda: ExtendedLovaszMallows(
            f, two_rows, (1.0, bad)),
    }


# non-finite results are checked after the fact, so numpy may warn first
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(non_finite_calls(0.0)))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(name, bad):
    with pytest.raises(ValueError, match="finite"):
        non_finite_calls(bad)[name]()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflow_to_non_finite_rejected():
    with pytest.raises(ValueError, match="not finite"):
        lb_divergence_batch(GraphCut.uniform(2), [[1e308, -1e308]],
                            Permutation([1, 2]))
    with pytest.raises(ValueError, match="finite"):
        mean_ordering(ScoreMatrix([[1e308, 0.0], [1e308, 0.0]]))
    with pytest.raises(ValueError, match="overflowed"):
        ndcg_loss([1.5e308, 1.5e308, 0], Permutation([3, 1, 2]),
                  DiscountProfile.log2(3))
