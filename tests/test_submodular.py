import json
import math

import numpy as np
import pytest

from lbdiv import (CardinalityConcave, ExplicitTable, GraphCut, MaxTruncation,
                   Modular, ProperSubsetIndicator, RangeIndicator, Sum,
                   TruncatedCardinality, evaluate, from_descriptor,
                   is_monotone, is_submodular, marginal_gain)
from conftest import generator_zoo, random_concave_gains, random_graph_cut


class TestEvaluate:
    def test_graph_cut_single_crossing(self):
        f = GraphCut.uniform(2)
        assert evaluate(f, {1}) == 1.0

    def test_graph_cut_counts_crossing_pairs(self):
        f = GraphCut.uniform(4)
        # |A| |V \ A| for uniform unit weights
        assert evaluate(f, {1, 3}) == 4.0

    def test_sqrt_cardinality(self):
        f = CardinalityConcave.sqrt(6)
        assert evaluate(f, {1, 2, 4, 6}) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("f", [
        CardinalityConcave.sqrt(3), GraphCut.uniform(3), MaxTruncation(3),
        RangeIndicator(3), ProperSubsetIndicator(3),
        TruncatedCardinality.top_m(3, 2), Modular([1.0, 2.0, 3.0]),
    ])
    def test_empty_set_is_zero(self, f):
        assert evaluate(f, set()) == 0.0

    def test_out_of_range_item(self):
        with pytest.raises(ValueError):
            evaluate(CardinalityConcave.sqrt(3), {4})

    def test_max_truncation(self):
        f = MaxTruncation(3)
        assert f({2}) == 1.0
        assert f({1, 2, 3}) == 1.0

    def test_indicators(self):
        assert RangeIndicator(3)({1}) == 1.0
        assert RangeIndicator(3)({1, 2, 3}) == 0.0
        assert ProperSubsetIndicator(3)({1, 2}) == 1.0
        assert ProperSubsetIndicator(3)({1, 2, 3}) == 0.0


class TestMarginalGain:
    def test_sqrt_gain(self):
        f = CardinalityConcave.sqrt(4)
        assert marginal_gain(f, 3, {1, 2}) == pytest.approx(
            math.sqrt(3) - math.sqrt(2), abs=1e-12)

    def test_gain_at_empty_is_singleton_value(self, rng):
        for f in generator_zoo(rng, 4):
            for j in range(1, 5):
                assert marginal_gain(f, j, set()) == pytest.approx(f({j}))

    def test_graph_cut_gain(self):
        f = GraphCut.uniform(3)
        assert marginal_gain(f, 2, {1}) == 0.0

    def test_item_already_present(self):
        with pytest.raises(ValueError):
            marginal_gain(CardinalityConcave.sqrt(3), 1, {1, 2})


class TestStructuralChecks:
    def test_sqrt_cardinality_submodular(self):
        assert is_submodular(CardinalityConcave.sqrt(4))

    def test_squared_cardinality_not_submodular(self):
        f = ExplicitTable.from_function(3, lambda S: len(S) ** 2)
        assert not is_submodular(f)

    def test_graph_cut_submodular(self, rng):
        assert is_submodular(random_graph_cut(rng, 5))

    def test_builtins_submodular_random_params(self, rng):
        for n in (2, 4, 6, 8):
            for f in generator_zoo(rng, n):
                assert is_submodular(f), f.descriptor()["kind"]
        for n in (2, 5):
            assert is_submodular(MaxTruncation(n))
            assert is_submodular(RangeIndicator(n))
            assert is_submodular(ProperSubsetIndicator(n))

    def test_sum_of_submodular_is_submodular(self, rng):
        f = Sum(generator_zoo(rng, 5))
        assert is_submodular(f)

    def test_monotone(self, rng):
        assert is_monotone(CardinalityConcave.sqrt(4))
        assert is_monotone(MaxTruncation(4))
        assert not is_monotone(random_graph_cut(rng, 4))

    def test_too_large_for_exhaustive_check(self):
        with pytest.raises(ValueError):
            is_submodular(CardinalityConcave.sqrt(21))


class TestTruncatedCardinality:
    def test_min_identity_exact(self, rng):
        gains = random_concave_gains(rng, 6)
        g = np.concatenate(([0.0], np.cumsum(gains)))
        f = TruncatedCardinality(gains, 3)
        for k in range(7):
            A = set(range(1, k + 1))
            assert f(A) == min(g[k], g[3])

    def test_cutoff_out_of_range(self):
        with pytest.raises(ValueError):
            TruncatedCardinality(np.ones(3), 4)


class TestValidation:
    def test_increasing_gain_table_rejected(self):
        with pytest.raises(ValueError):
            CardinalityConcave([0.5, 1.0])

    def test_asymmetric_weights_rejected(self):
        with pytest.raises(ValueError):
            GraphCut([[0, 1], [2, 0]])

    def test_near_symmetric_weights_rejected(self):
        W = GraphCut.uniform(3).weights.copy()
        W[0, 2] += 1e-7
        with pytest.raises(ValueError):
            GraphCut(W)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            GraphCut([[0, -1], [-1, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            GraphCut([[1, 1], [1, 1]])


class TestExplicitTable:
    def test_normalization_shifts_empty_to_zero(self):
        f = ExplicitTable(2, [5.0, 6.0, 7.0, 7.5])
        assert f(set()) == 0.0
        assert f({1}) == 1.0
        assert f({1, 2}) == 2.5

    def test_from_json_bitmask_mapping(self):
        f = ExplicitTable.from_json(json.dumps({"0": 0, "1": 1, "2": 1, "3": 1.5}))
        assert f.n == 2
        assert f({1}) == 1.0
        assert f({1, 2}) == 1.5


class TestSerialization:
    def test_descriptor_roundtrip(self, rng):
        zoo = generator_zoo(rng, 4) + [
            MaxTruncation(4), RangeIndicator(4), ProperSubsetIndicator(4),
            Modular([1.0, -2.0, 0.5, 3.0]),
            Sum([CardinalityConcave.sqrt(4), GraphCut.uniform(4)]),
            ExplicitTable.from_function(4, lambda S: math.sqrt(len(S))),
        ]
        for f in zoo:
            g = from_descriptor(json.loads(json.dumps(f.descriptor())))
            for mask in range(16):
                A = {i + 1 for i in range(4) if mask >> i & 1}
                assert g(A) == pytest.approx(f(A), abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_descriptor({"kind": "mystery"})


def test_sum_operator():
    f = CardinalityConcave.sqrt(3) + GraphCut.uniform(3)
    assert f({1}) == pytest.approx(1.0 + 2.0)
