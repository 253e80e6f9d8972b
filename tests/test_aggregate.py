import json
import math
import warnings

import numpy as np
import pytest

from lbdiv import (CardinalityConcave, GraphCut, Permutation, ScoreMatrix,
                   aggregation_objective, feature_inference, induced_ordering,
                   lb_divergence, lb_kmeans, mean_ordering)
from lbdiv.dataio import ParseError, parse_matrix
from conftest import (all_permutations, brute_force_mean, generator_zoo,
                      random_cardinality, random_concave_gains,
                      random_graph_cut)

PAPER_ROWS = [[1.9, 2], [1.8, 2], [1.95, 2], [2, 1], [2.5, 1.2]]


class TestScoreMatrix:
    def test_from_csv_with_header(self):
        m = ScoreMatrix(parse_matrix("a,b\n1,2\n3,4\n"))
        np.testing.assert_array_equal(m.rows, [[1, 2], [3, 4]])

    def test_from_csv_crlf(self):
        m = ScoreMatrix(parse_matrix("1,2\r\n3,4\r\n"))
        assert m.n_rows == 2

    def test_from_json(self):
        # keys other than "rows" are ignored
        m = ScoreMatrix(parse_matrix(json.dumps({"rows": [[1, 2]],
                                                 "row_ids": ["r1"]})))
        np.testing.assert_array_equal(m.rows, [[1, 2]])

    def test_validation(self):
        with pytest.raises(ValueError):
            ScoreMatrix(np.empty((0, 3)))

    def test_three_dimensional_rejected(self):
        with pytest.raises(ValueError, match="score matrix must be 2-d"):
            ScoreMatrix([[[1, 2]]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            ScoreMatrix([[1.0, 2.0], [bad, 0.5]])
        with pytest.raises(ValueError):
            ScoreMatrix(parse_matrix(f"1,2\n{bad},0.5\n"))

    def test_json_object_without_rows(self):
        with pytest.raises(ParseError):
            ScoreMatrix(parse_matrix(json.dumps({"row_ids": ["r1"]})))

    @pytest.mark.parametrize("rows", [[[1, {}]], {"a": 1}, [[10 ** 400, 1]],
                                      [[1, "2"]], [[1, True]], [[1.5, False]],
                                      True, "3"])
    def test_json_rows_must_be_real_numbers(self, rows):
        # np.asarray reads "2" and True as reals, and [1, True] as ints
        with pytest.raises(ParseError, match="real numbers"):
            parse_matrix(json.dumps({"rows": rows}))

    @pytest.mark.parametrize("rows", [[[1, "2"]], [[1, True]]])
    def test_json_array_must_hold_real_numbers(self, rows):
        with pytest.raises(ParseError, match="real numbers"):
            parse_matrix(json.dumps(rows))

    def test_other_keys_may_hold_strings_and_booleans(self):
        text = json.dumps({"rows": [[1, 2.5]], "name": "u", "ok": False})
        assert parse_matrix(text).tolist() == [[1.0, 2.5]]

    def test_json_nested_too_deeply(self):
        with pytest.raises(ParseError, match="nested"):
            ScoreMatrix(parse_matrix("[" * 100_000))


class TestMeanOrdering:
    def test_low_confidence_rows_are_outvoted(self):
        sigma, mu = mean_ordering(ScoreMatrix(PAPER_ROWS))
        np.testing.assert_allclose(mu, [2.03, 1.64], atol=1e-12)
        assert sigma(1) == 1

    def test_single_row(self):
        x = [0.2, 0.9, 0.5]
        sigma, mu = mean_ordering(ScoreMatrix([x]))
        assert sigma == induced_ordering(x)
        np.testing.assert_array_equal(mu, x)

    def test_two_rows_brute_checked(self):
        m = ScoreMatrix([[0.9, 0.1, 0.5], [0.2, 0.3, 0.4]])
        sigma, mu = mean_ordering(m)
        np.testing.assert_allclose(mu, [0.55, 0.2, 0.45], atol=1e-12)
        assert sigma == Permutation([1, 3, 2])
        # exhaustive check of minimality
        f = CardinalityConcave.sqrt(3)
        best = min(all_permutations(3),
                   key=lambda s: aggregation_objective(m, f, s))
        assert best == sigma

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            mean_ordering(ScoreMatrix([[1, 2], [2, 1]]), weights=[1.0, 0.0])


class TestAggregationObjective:
    def test_additive_over_rows(self, rng):
        f = CardinalityConcave.sqrt(4)
        rows = rng.random((6, 4))
        sigma = Permutation.random(4, rng)
        total = aggregation_objective(ScoreMatrix(rows), f, sigma)
        parts = sum(lb_divergence(f, r, sigma) for r in rows)
        assert total == pytest.approx(parts, rel=1e-12)

    def test_constant_rows_zero_for_every_sigma(self):
        m = ScoreMatrix([[0.3, 0.3, 0.3], [0.8, 0.8, 0.8]])
        f = CardinalityConcave.sqrt(3)
        for sigma in all_permutations(3):
            assert aggregation_objective(m, f, sigma) <= 1e-12

    def test_mean_ordering_attains_minimum(self, rng):
        for _ in range(10):
            m = ScoreMatrix(rng.random((5, 4)))
            f = GraphCut.uniform(4)
            sigma, _ = mean_ordering(m)
            best = min(aggregation_objective(m, f, s)
                       for s in all_permutations(4))
            assert aggregation_objective(m, f, sigma) == pytest.approx(
                best, abs=1e-12)


def assert_oracle_agreement(m, f, sigma, weights=None, cutoff=None):
    """Mean ordering vs. enumeration oracle.

    A generator truncated at rank `cutoff` ignores the ordering below it, so
    the minimizer is only unique in its top-m prefix; there the oracle's
    lexicographic tie-break fixes the tail differently and we compare the
    prefix and the attained objective instead.
    """
    bf = brute_force_mean(m, f, weights=weights)
    if cutoff is not None:
        prefix = range(1, cutoff + 1)
        assert [bf(i) for i in prefix] == [sigma(i) for i in prefix]
        assert aggregation_objective(m, f, bf, weights) == pytest.approx(
            aggregation_objective(m, f, sigma, weights), abs=1e-12)
    else:
        assert bf == sigma


class TestBruteForceMean:
    def test_agrees_with_closed_form(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            rows = rng.random((int(rng.integers(1, 8)), n))
            m = ScoreMatrix(rows)
            sigma, mu = mean_ordering(m)
            # the generator zoo, drawn here so the top-m cutoff is known
            for f in (CardinalityConcave.sqrt(n), random_cardinality(rng, n),
                      random_graph_cut(rng, n)):
                assert_oracle_agreement(m, f, sigma)
            cutoff = int(rng.integers(1, n + 1))
            f = CardinalityConcave.truncated(random_concave_gains(rng, n),
                                             cutoff)
            assert_oracle_agreement(m, f, sigma, cutoff=cutoff)

    def test_weighted_agrees_with_weighted_mean(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            rows = rng.random((4, n))
            w = rng.uniform(0.2, 2.0, size=4)
            m = ScoreMatrix(rows)
            sigma, _ = mean_ordering(m, weights=w)
            f = CardinalityConcave.sqrt(n)
            assert brute_force_mean(m, f, weights=w) == sigma

    def test_single_row(self, rng):
        x = rng.random(4)
        assert brute_force_mean(ScoreMatrix([x]),
                                GraphCut.uniform(4)) == induced_ordering(x)

    def test_paper_style_two_item_instance(self):
        assert brute_force_mean(ScoreMatrix(PAPER_ROWS),
                                CardinalityConcave.sqrt(2))(1) == 1

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_constant_rows_give_the_identity(self, rng, scale):
        # every ordering attains the minimum; rounding must not pick one
        n = 6
        m = ScoreMatrix(np.full((3, n), 0.37 * scale))
        for f in generator_zoo(rng, n):
            assert brute_force_mean(m, f) == Permutation.identity(n)
            assert brute_force_mean(m, f, weights=[0.3, 1.0, 2.5]) == \
                Permutation.identity(n)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            brute_force_mean(ScoreMatrix(np.zeros((2, 4))),
                             CardinalityConcave.sqrt(3))

    def test_size_limit(self):
        with pytest.raises(ValueError):
            brute_force_mean(ScoreMatrix(np.zeros((1, 9))),
                             CardinalityConcave.sqrt(9))


class TestFeatureInference:
    def test_single_feature(self, rng):
        x = rng.random(5)
        assert feature_inference(ScoreMatrix([x]), [1.0]) == \
            induced_ordering(x)

    def test_zero_weights_degenerate_to_identity(self):
        feats = ScoreMatrix([[0.9, 0.1], [0.2, 0.8]])
        assert feature_inference(feats, [0.0, 0.0]) == Permutation([1, 2])

    def test_weighted_sum_by_hand(self):
        feats = ScoreMatrix([[0.9, 0.1], [0.2, 0.8]])
        assert feature_inference(feats, [1.0, 1.0]) == Permutation([1, 2])

    def test_minimizes_weighted_divergence_total(self, rng):
        # exhaustive oracle over permutations
        n, d = 4, 3
        feats = ScoreMatrix(rng.random((d, n)))
        w = rng.uniform(0.1, 2.0, size=d)
        f = CardinalityConcave.sqrt(n)
        sigma = feature_inference(feats, w)
        objective = lambda s: sum(
            w[j] * lb_divergence(f, feats.rows[j], s) for j in range(d))
        assert objective(sigma) == pytest.approx(
            min(objective(s) for s in all_permutations(n)), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            feature_inference(ScoreMatrix([[1, 2]]), [1.0, 2.0])


def two_population_matrix(rng, rows_per_side=20, gap=0.5):
    top_first = np.column_stack([
        rng.uniform(0.5 + gap / 2, 1.0, rows_per_side),
        rng.uniform(0.0, 0.5 - gap / 2, rows_per_side)])
    bottom_first = top_first[:, ::-1].copy()
    return ScoreMatrix(np.vstack([top_first, bottom_first]))


class TestKMeans:
    def test_k1_reduces_to_mean_ordering(self, rng):
        m = ScoreMatrix(rng.random((6, 3)))
        f = CardinalityConcave.sqrt(3)
        result = lb_kmeans(m, f, k=1, seed=0)
        sigma, _ = mean_ordering(m)
        assert result.representatives == (sigma,)
        assert result.objective == pytest.approx(
            aggregation_objective(m, f, sigma), abs=1e-9)

    def test_two_populations_separate(self, rng):
        m = two_population_matrix(rng)
        f = CardinalityConcave.sqrt(2)
        result = lb_kmeans(m, f, k=2, seed=3)
        first_half = set(result.assignments[:20])
        second_half = set(result.assignments[20:])
        assert len(first_half) == 1 and len(second_half) == 1
        assert first_half != second_half
        cross = min(lb_divergence(f, m.rows[0], Permutation([2, 1])),
                    lb_divergence(f, m.rows[20], Permutation([1, 2])))
        assert result.objective < cross

    def test_objective_matches_recomputation(self, rng):
        m = ScoreMatrix(rng.random((12, 4)))
        f = GraphCut.uniform(4)
        result = lb_kmeans(m, f, k=3, seed=1)
        recomputed = sum(
            lb_divergence(f, m.rows[i], result.representatives[c])
            for i, c in enumerate(result.assignments))
        assert result.objective == pytest.approx(recomputed, abs=1e-9)

    def test_objective_monotone_on_random_data(self, rng):
        # re-run the alternation manually and track the objective
        for trial in range(10):
            m = ScoreMatrix(rng.random((10, 3)))
            f = CardinalityConcave.sqrt(3)
            reps = [induced_ordering(m.rows[i]) for i in (0, 1)]
            prev = np.inf
            for _ in range(10):
                dists = np.column_stack(
                    [[lb_divergence(f, r, s) for s in reps] for r in m.rows])
                assign = np.argmin(dists, axis=0)
                obj = float(dists[assign, np.arange(10)].sum())
                assert obj <= prev + 1e-12
                prev = obj
                reps = [induced_ordering(
                    m.rows[assign == j].mean(axis=0)) if np.any(assign == j)
                    else reps[j] for j in range(2)]

    @pytest.mark.parametrize("seed", [0, 18, 22, 28, 38])
    def test_empty_clusters_reseeded_with_distinct_rows(self, seed):
        # two planted centres and five clusters: the assignment step empties
        # several clusters at once, and reseeding used to hand one row to
        # two of them or strip a singleton, so the update step averaged an
        # empty cluster
        rng = np.random.default_rng(seed)
        centres = rng.random((2, 6))
        X = centres[rng.integers(0, 2, 24)] + 0.05 * rng.standard_normal(
            (24, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = lb_kmeans(ScoreMatrix(X), GraphCut.uniform(6), k=5,
                               seed=0)
        assert set(result.assignments) == set(range(5))

    def test_one_lovasz_batch_of_the_rows_per_pass(self, monkeypatch):
        # f-hat of the score rows once per assignment pass, not once per
        # cluster; the n x n prefix indicators behind each h_sigma aside
        rng = np.random.default_rng(7)
        m = ScoreMatrix(rng.integers(0, 6, (3000, 10)).astype(float))
        f = CardinalityConcave.sqrt(10)
        real = CardinalityConcave.lovasz_batch
        calls = []

        def counting(self, X):
            if np.shape(X) == m.rows.shape:
                calls.append(1)
            return real(self, X)

        monkeypatch.setattr(CardinalityConcave, "lovasz_batch", counting)
        result = lb_kmeans(m, f, k=4, max_iter=4, seed=1)
        assert result.iterations == 4
        assert len(calls) == result.iterations + 1

    def test_deterministic_given_seed(self, rng):
        m = ScoreMatrix(rng.random((8, 3)))
        f = CardinalityConcave.sqrt(3)
        a = lb_kmeans(m, f, k=2, seed=42)
        b = lb_kmeans(m, f, k=2, seed=42)
        assert a == b

    def test_validation(self, rng):
        m = ScoreMatrix(rng.random((3, 2)))
        f = CardinalityConcave.sqrt(2)
        with pytest.raises(ValueError):
            lb_kmeans(m, f, k=4)
        with pytest.raises(ValueError):
            lb_kmeans(m, f, k=0)
        with pytest.raises(ValueError):
            lb_kmeans(m, f, k=2, max_iter=0)
        for tol in (-1.0, math.nan):
            with pytest.raises(ValueError, match="tol >= 0"):
                lb_kmeans(m, f, k=2, tol=tol)

    def test_result_serializes(self, rng):
        m = ScoreMatrix(rng.random((4, 2)))
        result = lb_kmeans(m, CardinalityConcave.sqrt(2), k=2, seed=0)
        raw = json.loads(json.dumps(result.to_dict()))
        assert raw["assignments"] == list(result.assignments)
        assert raw["representatives"] == [list(s.items)
                                          for s in result.representatives]
