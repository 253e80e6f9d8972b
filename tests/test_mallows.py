import math

import numpy as np
import pytest

from lbdiv import (CardinalityConcave, ExplicitTable, ExtendedLovaszMallows,
                   GraphCut, LovaszMallows, Modular, Permutation, ScoreMatrix,
                   estimate_log_Z, extended_log_density, induced_ordering,
                   lb_divergence_batch, log_density_unnormalized,
                   map_permutation, mean_ordering)
from conftest import (all_permutations, every_family, extreme_subgradients,
                      user_subclasses)

SQRT3_DIV = 0.038550526870925236


def sqrt_model(n, sigma=None, theta=1.0):
    return LovaszMallows(CardinalityConcave.sqrt(n),
                         sigma or Permutation.identity(n), theta)


class TestLovaszMallows:
    def test_zero_divergence_scores(self, rng):
        model = sqrt_model(4, theta=2.5)
        x = np.sort(rng.random(4))[::-1]
        assert log_density_unnormalized(model, x) == 0.0

    def test_theta_zero_is_flat(self, rng):
        model = sqrt_model(4, theta=0.0)
        for _ in range(10):
            assert log_density_unnormalized(model, rng.random(4)) == 0.0

    def test_by_hand_value(self):
        model = sqrt_model(3, Permutation([1, 2, 3]), theta=2.0)
        assert log_density_unnormalized(model, [0.9, 0.1, 0.5]) == \
            pytest.approx(-2 * SQRT3_DIV, abs=1e-12)

    def test_outside_cube_rejected(self):
        model = sqrt_model(2)
        with pytest.raises(ValueError):
            log_density_unnormalized(model, [1.2, 0.1])
        with pytest.raises(ValueError):
            log_density_unnormalized(model, [-0.1, 0.5])

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            sqrt_model(2, theta=-1.0)

    def test_json_roundtrip(self):
        model = sqrt_model(3, Permutation([2, 3, 1]), theta=1.5)
        back = LovaszMallows.from_json(model.to_json())
        assert back.reference == model.reference
        assert back.concentration == model.concentration
        assert back.generator({1, 2}) == model.generator({1, 2})


class TestLogZ:
    def test_theta_zero_exact(self):
        est, se = estimate_log_Z(sqrt_model(3, theta=0.0), samples=500)
        assert est == 0.0
        assert se == 0.0

    def test_decreasing_in_theta(self):
        vals = [estimate_log_Z(sqrt_model(3, theta=t), samples=20000,
                               seed=7)[0] for t in (0.0, 1.0, 4.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_reference_invariance_cardinality(self, rng):
        n, theta = 3, 2.0
        estimates = []
        for seed, sigma in ((1, Permutation([1, 2, 3])),
                            (2, Permutation([3, 1, 2]))):
            estimates.append(estimate_log_Z(
                sqrt_model(n, sigma, theta), samples=50000, seed=seed))
        (a, se_a), (b, se_b) = estimates
        assert abs(a - b) <= 3 * math.hypot(se_a, se_b)

    def test_reproducible(self):
        model = sqrt_model(3, theta=1.0)
        assert estimate_log_Z(model, 5000, seed=9) == \
            estimate_log_Z(model, 5000, seed=9)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            estimate_log_Z(sqrt_model(2), samples=50)

    def test_large_theta_does_not_underflow(self):
        # exp(-1e5 d) is 0.0 at every sample; log Z is still finite. The
        # 4000 samples form one chunk, drawn from the first spawned seed.
        model = sqrt_model(10, theta=1e5)
        log_Z, se = estimate_log_Z(model, 4000)
        seed = np.random.SeedSequence(0).spawn(1)[0]
        X = np.random.default_rng(seed).random((4000, 10))
        log_w = -1e5 * lb_divergence_batch(model.generator, X,
                                           model.reference)
        assert np.all(np.exp(log_w) == 0.0)
        top = log_w.max()
        assert log_Z == pytest.approx(
            top + math.log(np.exp(log_w - top).mean()), rel=1e-12)
        assert log_Z == pytest.approx(-1369.41, abs=0.01)
        assert 0.0 < se <= 1.0

    def test_density_integrates_to_one(self):
        # MC estimate of the integral of exp(-theta d)/Z over the cube
        model = sqrt_model(3, theta=1.5)
        log_Z, se = estimate_log_Z(model, samples=100000, seed=11)
        Z = math.exp(log_Z)
        # the same estimator divided by Z must sit near 1
        log_Z2, se2 = estimate_log_Z(model, samples=100000, seed=12)
        ratio = math.exp(log_Z2) / Z
        assert abs(ratio - 1) <= 3 * math.hypot(se, se2)


def random_extended(rng, n, n_rows=4):
    rows = rng.random((n_rows, n))
    theta = rng.uniform(0.2, 3.0, size=n_rows)
    return ExtendedLovaszMallows(CardinalityConcave.sqrt(n),
                                 ScoreMatrix(rows), tuple(theta))


class TestExtendedModel:
    def test_theta_zero_uniform(self, rng):
        model = ExtendedLovaszMallows(
            CardinalityConcave.sqrt(3), ScoreMatrix(rng.random((2, 3))),
            (0.0, 0.0))
        for sigma in all_permutations(3):
            value = extended_log_density(model, sigma)
            assert value.normalized
            assert value.log_density == pytest.approx(-math.log(6), abs=1e-12)

    def test_densities_sum_to_one(self, rng):
        for n in (2, 3, 4):
            model = random_extended(rng, n)
            total = sum(math.exp(extended_log_density(model, s).log_density)
                        for s in all_permutations(n))
            assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("make", [
        GraphCut.uniform,
        lambda n: ExplicitTable.from_function(
            n, lambda S: math.sqrt(len(S)) + 0.1 * len(S) * (n - len(S))),
    ], ids=["cut", "table"])
    def test_matches_per_permutation_normalization(self, rng, make):
        # the oracle: one divergence batch per permutation, summed here
        n = 7
        f = make(n)
        rows = rng.random((5, n))
        theta = rng.uniform(0.2, 3.0, size=5)
        model = ExtendedLovaszMallows(f, ScoreMatrix(rows), tuple(theta))
        energies = np.array([-theta @ lb_divergence_batch(f, rows, s)
                             for s in all_permutations(n)])
        shift = energies.max()
        log_Z = shift + math.log(np.exp(energies - shift).sum())
        for _ in range(5):
            sigma = Permutation.random(n, rng)
            value = extended_log_density(model, sigma)
            assert value.normalized
            expected = -theta @ lb_divergence_batch(f, rows, sigma) - log_Z
            assert value.log_density == pytest.approx(expected, rel=1e-12,
                                                      abs=1e-12)

    def test_length_mismatch(self, rng):
        model = random_extended(rng, 3)
        with pytest.raises(ValueError):
            extended_log_density(model, Permutation.identity(4))

    def test_large_n_unnormalized_flag(self, rng):
        n = 21
        model = ExtendedLovaszMallows(
            CardinalityConcave.sqrt(n), ScoreMatrix(rng.random((2, n))),
            (1.0, 1.0))
        value = extended_log_density(model, Permutation.identity(n))
        assert not value.normalized

    def test_closed_forms_beyond_enumeration(self, rng):
        # theta = 0 makes every ordering equally likely, and a modular f
        # has h_pi = w for every pi: both give -log n! for every sigma
        n = 12
        rows = ScoreMatrix(rng.random((3, n)))
        for model in (
                ExtendedLovaszMallows(CardinalityConcave.sqrt(n), rows,
                                      (0.0,) * 3),
                ExtendedLovaszMallows(Modular(rng.uniform(-2.0, 2.0, n)),
                                      rows, (0.5, 1.0, 2.0))):
            for _ in range(3):
                value = extended_log_density(model, Permutation.random(n, rng))
                assert value.normalized
                assert value.log_density == pytest.approx(
                    -math.lgamma(n + 1), rel=1e-12)

    def test_normalized_at_the_lattice_limit(self, rng):
        n = 20
        model = ExtendedLovaszMallows(Modular(rng.uniform(-2.0, 2.0, n)),
                                      ScoreMatrix(rng.random((2, n))),
                                      (1.0, 2.0))
        value = extended_log_density(model, Permutation.random(n, rng))
        assert value.normalized
        assert value.log_density == pytest.approx(-math.lgamma(n + 1),
                                                  rel=1e-12)

    def test_matches_enumeration_for_every_family(self, rng):
        # the oracle: -log sum_pi exp <h_pi - h_sigma, v> over the n! table;
        # OffsetCoverage has f(empty) = 10, which h's chain does not read
        for n in range(1, 7):
            for f in every_family(rng, n) + user_subclasses(rng, n):
                rows = rng.random((3, n))
                theta = rng.uniform(0.2, 3.0, size=3)
                model = ExtendedLovaszMallows(f, ScoreMatrix(rows),
                                              tuple(theta))
                P, H = extreme_subgradients(f)
                v = theta @ rows
                for k in rng.choice(len(P), size=min(len(P), 3),
                                    replace=False):
                    delta = (H - H[k]) @ v
                    top = delta.max()
                    expected = -(top + math.log(np.exp(delta - top).sum()))
                    value = extended_log_density(model, Permutation(P[k]))
                    assert value.normalized
                    assert value.log_density == pytest.approx(
                        expected, rel=1e-12, abs=1e-12)

    def test_mode_is_weighted_mean_ordering(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            model = random_extended(rng, n)
            best = max(all_permutations(n), key=lambda s: extended_log_density(
                model, s).log_density)
            sigma, _ = mean_ordering(model.scores,
                                     weights=model.concentrations)
            assert best == sigma
            assert map_permutation(model) == sigma

    def test_map_single_row(self, rng):
        x = rng.random(4)
        model = ExtendedLovaszMallows(CardinalityConcave.sqrt(4),
                                      ScoreMatrix([x]), (2.0,))
        assert map_permutation(model) == induced_ordering(x)

    def test_map_paper_style_instance(self):
        rows = [[1.9, 2], [1.8, 2], [1.95, 2], [2, 1], [2.5, 1.2]]
        model = ExtendedLovaszMallows(CardinalityConcave.sqrt(2),
                                      ScoreMatrix(rows), (1.0,) * 5)
        assert map_permutation(model)(1) == 1

    def test_all_zero_theta_has_no_mode(self, rng):
        model = ExtendedLovaszMallows(
            CardinalityConcave.sqrt(2), ScoreMatrix(rng.random((2, 2))),
            (0.0, 0.0))
        with pytest.raises(ValueError):
            map_permutation(model)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ExtendedLovaszMallows(CardinalityConcave.sqrt(2),
                                  ScoreMatrix(rng.random((2, 2))), (1.0,))
        with pytest.raises(ValueError):
            ExtendedLovaszMallows(CardinalityConcave.sqrt(2),
                                  ScoreMatrix(rng.random((2, 2))),
                                  (1.0, -1.0))

    def test_json_roundtrip(self, rng):
        model = random_extended(rng, 3)
        back = ExtendedLovaszMallows.from_json(model.to_json())
        np.testing.assert_allclose(back.scores.rows, model.scores.rows)
        assert back.concentrations == model.concentrations
