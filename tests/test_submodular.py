import json
import math

import numpy as np
import pytest

from lbdiv import (CardinalityConcave, ExplicitTable, GraphCut, Modular, Sum,
                   from_descriptor, is_monotone, is_submodular)
from conftest import generator_zoo, random_concave_gains, random_graph_cut


class TestEvaluate:
    def test_graph_cut_single_crossing(self):
        f = GraphCut.uniform(2)
        assert f({1}) == 1.0

    def test_graph_cut_counts_crossing_pairs(self):
        f = GraphCut.uniform(4)
        # |A| |V \ A| for uniform unit weights
        assert f({1, 3}) == 4.0

    def test_sqrt_cardinality(self):
        f = CardinalityConcave.sqrt(6)
        assert f({1, 2, 4, 6}) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("f", [
        CardinalityConcave.sqrt(3), GraphCut.uniform(3),
        CardinalityConcave.top_m(3, 1), CardinalityConcave.proper_subset(3),
        CardinalityConcave.proper_subset(1), CardinalityConcave.top_m(3, 2),
        Modular([1.0, 2.0, 3.0]), CardinalityConcave.log(3),
        CardinalityConcave.truncated([2.0, 1.0, -1.0], 2),
        CardinalityConcave([0.5, 0.5, -3.0]),
    ])
    def test_empty_set_is_zero(self, f):
        assert f(set()) == 0.0

    def test_out_of_range_item(self):
        with pytest.raises(ValueError):
            CardinalityConcave.sqrt(3)({4})

    def test_max_truncation(self):
        f = CardinalityConcave.top_m(3, 1)
        assert f({2}) == 1.0
        assert f({1, 2, 3}) == 1.0

    def test_indicators(self):
        f = CardinalityConcave.proper_subset(3)
        assert f({1}) == 1.0
        assert f({1, 2}) == 1.0
        assert f({1, 2, 3}) == 0.0
        assert CardinalityConcave.proper_subset(1)({1}) == 0.0


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
            assert is_submodular(CardinalityConcave.top_m(n, 1))
            assert is_submodular(CardinalityConcave.proper_subset(n))

    def test_sum_of_submodular_is_submodular(self, rng):
        f = Sum(generator_zoo(rng, 5))
        assert is_submodular(f)

    def test_monotone(self, rng):
        assert is_monotone(CardinalityConcave.sqrt(4))
        assert is_monotone(CardinalityConcave.top_m(4, 1))
        assert not is_monotone(CardinalityConcave.proper_subset(4))
        assert not is_monotone(random_graph_cut(rng, 4))

    def test_checks_match_the_mask_loops(self, rng):
        # the per-mask loops the table checks replaced, kept as the reference
        def loop_submodular(F, n, tol=1e-9):
            return not any(
                F[A | 1 << i] + F[A | 1 << j] < F[A | 1 << i | 1 << j] + F[A] - tol
                for A in range(1 << n) for i in range(n) for j in range(i + 1, n)
                if not A >> i & 1 and not A >> j & 1)

        def loop_monotone(F, n, tol=1e-9):
            return not any(F[A | 1 << i] < F[A] - tol
                           for A in range(1 << n) for i in range(n)
                           if not A >> i & 1)

        verdicts = set()
        for n in (1, 2, 3, 4, 5):
            sizes = np.array([bin(m).count("1") for m in range(1 << n)])
            for noise in (0.0, 1e-3, 0.05, 0.5):
                values = np.sqrt(sizes) + noise * rng.normal(size=1 << n)
                f = ExplicitTable(n, values)
                expected = (loop_submodular(f.table, n), loop_monotone(f.table, n))
                assert (is_submodular(f), is_monotone(f)) == expected
                verdicts.add(expected)
        assert len(verdicts) >= 3  # the inputs reach both answers of each check

    def test_too_large_for_exhaustive_check(self):
        with pytest.raises(ValueError):
            is_submodular(CardinalityConcave.sqrt(21))


class TestTruncatedCardinality:
    def test_min_identity_exact(self, rng):
        gains = random_concave_gains(rng, 6)
        g = np.concatenate(([0.0], np.cumsum(gains)))
        f = CardinalityConcave.truncated(gains, 3)
        for k in range(7):
            A = set(range(1, k + 1))
            assert f(A) == min(g[k], g[3])

    def test_cutoff_out_of_range(self):
        for m in (0, 4):
            with pytest.raises(ValueError, match=f"cutoff m={m} outside 1..3"):
                CardinalityConcave.truncated(np.ones(3), m)

    def test_increasing_table_rejected_at_any_cutoff(self):
        # the gains after the cutoff are checked too, not only the kept ones
        for gains, m in (([1.0, 2.0], 2), ([1.0, 0.5, 2.0], 2)):
            with pytest.raises(ValueError, match="non-increasing"):
                CardinalityConcave.truncated(gains, m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gain_at_any_rank_rejected(self, bad):
        for gains, m in (([bad, 1.0], 1), ([1.0, bad], 2), ([1.0, bad], 1)):
            with pytest.raises(ValueError, match="finite"):
                CardinalityConcave.truncated(gains, m)

    def test_negative_gain_at_the_cutoff_rejected(self):
        # rank gains [1, -3, 0] rise after the cutoff: g is not concave
        with pytest.raises(ValueError, match="non-increasing"):
            CardinalityConcave.truncated([1.0, -3.0, -4.0], 2)

    def test_chain_telescopes_from_empty(self):
        f = CardinalityConcave.truncated([1.0, 0.5, -4.0], 2)
        # f-hat at the prefix indicators of (1, 2, 3) is f on the prefix chain
        np.testing.assert_array_equal(f.lovasz_batch(np.tri(3)),
                                      [1.0, 1.5, 1.5])
        assert f(set()) == 0.0


class TestValidation:
    def test_increasing_gain_table_rejected(self):
        with pytest.raises(ValueError):
            CardinalityConcave([0.5, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CardinalityConcave([1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            CardinalityConcave.truncated([bad, 1.0, 0.5], 2)
        with pytest.raises(ValueError, match="finite"):
            Modular([bad])
        with pytest.raises(ValueError, match="finite"):
            ExplicitTable(2, [0.0, bad, 1.0, 2.0])
        # finiteness is checked before symmetry, which NaN would fail
        with pytest.raises(ValueError, match="weights must be finite"):
            GraphCut([[0.0, bad], [bad, 0.0]])

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


class TestSerialization:
    def test_descriptor_roundtrip(self, rng):
        zoo = generator_zoo(rng, 4) + [
            CardinalityConcave.top_m(4, 1), CardinalityConcave.proper_subset(4),
            Modular([1.0, -2.0, 0.5, 3.0]),
            Sum([CardinalityConcave.sqrt(4), GraphCut.uniform(4)]),
            ExplicitTable.from_function(4, lambda S: math.sqrt(len(S))),
        ]
        for f in zoo:
            g = from_descriptor(json.loads(json.dumps(f.descriptor())))
            for mask in range(16):
                A = {i + 1 for i in range(4) if mask >> i & 1}
                assert g(A) == pytest.approx(f(A), abs=1e-12)

    @pytest.mark.parametrize("desc, by_size", [
        ({"kind": "truncated_cardinality", "gains": [1.0, 0.5, 0.25, 0.125],
          "m": 2}, [0.0, 1.0, 1.5, 1.5, 1.5]),
        ({"kind": "max_truncation", "n": 4}, [0.0, 1.0, 1.0, 1.0, 1.0]),
        ({"kind": "range_indicator", "n": 4}, [0.0, 1.0, 1.0, 1.0, 0.0]),
        ({"kind": "proper_subset_indicator", "n": 4},
         [0.0, 1.0, 1.0, 1.0, 0.0]),
    ])
    def test_pre_merge_descriptors(self, desc, by_size):
        # kinds written before the merge still load, on all 2^n subsets
        f = from_descriptor(desc)
        for mask in range(16):
            A = {i + 1 for i in range(4) if mask >> i & 1}
            assert f(A) == by_size[len(A)]
        assert f.descriptor()["kind"] == "cardinality"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_descriptor({"kind": "mystery"})

