import numpy as np
import pytest

from guidesampler.core import RandomSource, TabularDistribution, encode_rows
from guidesampler.oracle import (
    EmpiricalDistribution,
    brute_force_posterior,
    chi_square_gof,
    ks_uniform,
    tv_distance,
)
from guidesampler.predictors import CleanPredictor

from bruteforce import brute_tilted_posterior, dist_as_dict, row


class TestBruteForcePosterior:
    def coin_with_predictor(self):
        p = TabularDistribution(1, 2, [0.5, 0.5])
        clean = CleanPredictor(lambda x: 0.9 if x[0] == 0 else 0.1)
        return p, clean

    def test_bayes_by_hand(self):
        p, clean = self.coin_with_predictor()
        post = brute_force_posterior(p, clean, 1.0)
        np.testing.assert_allclose(post.weights, [0.9, 0.1])

    def test_gamma_zero_returns_prior(self):
        p, clean = self.coin_with_predictor()
        post = brute_force_posterior(p, clean, 0.0)
        np.testing.assert_array_equal(post.weights, p.weights)

    def test_gamma_two_hand_value(self):
        p, clean = self.coin_with_predictor()
        post = brute_force_posterior(p, clean, 2.0)
        np.testing.assert_allclose(post.weights, [0.81 / 0.82, 0.01 / 0.82])

    def test_zero_normalizer(self):
        p, _ = self.coin_with_predictor()
        with pytest.raises(ValueError):
            brute_force_posterior(p, CleanPredictor(lambda x: 0.0), 1.0)

    def test_matches_independent_enumeration(self):
        gen = RandomSource(1).generator()
        p = TabularDistribution.from_unnormalized(3, 2, gen.random(8) + 0.02)
        clean = CleanPredictor(lambda x: float(0.1 + 0.75 * (x.sum() == 2)))
        post = brute_force_posterior(p, clean, 1.0)
        want = brute_tilted_posterior(
            dist_as_dict(p), lambda x: 0.1 + 0.75 * (sum(x) == 2), 1.0
        )
        for toks, w in want.items():
            assert post.weights[encode_rows(np.array(toks), 2)] == pytest.approx(w, abs=1e-12)

    def test_product_tilting_commutes(self):
        # tilting by c1 then c2 equals tilting by c2 then c1 equals tilting by c1*c2
        gen = RandomSource(2).generator()
        p = TabularDistribution.from_unnormalized(4, 2, gen.random(16) + 0.01)
        c1 = CleanPredictor(lambda x: float(0.2 + 0.6 * (x[0] == 1)))
        c2 = CleanPredictor(lambda x: float(0.3 + 0.5 * (x[3] == 0)))
        c12 = CleanPredictor(lambda x: c1.likelihood(x) * c2.likelihood(x))
        a = brute_force_posterior(brute_force_posterior(p, c1, 1.0), c2, 1.0)
        b = brute_force_posterior(brute_force_posterior(p, c2, 1.0), c1, 1.0)
        c = brute_force_posterior(p, c12, 1.0)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-12)
        np.testing.assert_allclose(a.weights, c.weights, atol=1e-12)


class TestTVDistance:
    def test_identical_is_zero(self):
        p = TabularDistribution.uniform(2, 2)
        assert tv_distance(p, p) == 0.0

    def test_disjoint_supports_is_one(self):
        a = TabularDistribution(1, 2, [1.0, 0.0])
        b = TabularDistribution(1, 2, [0.0, 1.0])
        assert tv_distance(a, b) == 1.0

    def test_half_case(self):
        assert tv_distance(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ValueError):
            tv_distance(np.array([1.0]), np.array([0.5, 0.5]))

    def test_metric_properties_on_random_triples(self):
        gen = RandomSource(3).generator()
        for _ in range(25):
            a, b, c = (gen.random(8) for _ in range(3))
            a, b, c = a / a.sum(), b / b.sum(), c / c.sum()
            assert tv_distance(a, b) == pytest.approx(tv_distance(b, a))
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12
            assert tv_distance(a, a) == 0.0


class TestChiSquare:
    def test_calibration_pass_rate(self):
        # samples drawn from the expected distribution pass >= 99/100 seeds
        gen = RandomSource(4).generator()
        p = TabularDistribution.from_unnormalized(4, 4, gen.random(256) + 0.1)
        passes = 0
        for seed in range(100):
            counts = RandomSource(1000 + seed).generator().multinomial(100000, p.weights)
            emp = EmpiricalDistribution(counts, 4, 4)
            if chi_square_gof(emp, p).passed:
                passes += 1
        assert passes >= 99

    def test_power_against_perturbation(self):
        # a TV-0.05 perturbation is detected at N = 100000
        gen = RandomSource(5).generator()
        base = gen.random(256) + 0.1
        p = TabularDistribution.from_unnormalized(4, 4, base)
        q = base.copy()
        q[:128] *= 1 + 0.2
        q /= q.sum()
        shift = 0.05 / tv_distance(p.weights, q)
        q = (1 - shift) * p.weights + shift * q
        assert tv_distance(p.weights, q) == pytest.approx(0.05, abs=0.01)
        counts = RandomSource(6).generator().multinomial(100000, q)
        verdict = chi_square_gof(EmpiricalDistribution(counts, 4, 4), p)
        assert not verdict.passed

    def test_single_cell_passes_trivially(self):
        p = TabularDistribution(1, 2, [1.0, 0.0])
        counts = np.array([500, 0])
        verdict = chi_square_gof(EmpiricalDistribution(counts, 1, 2), p)
        assert verdict.passed and verdict.statistic == 0.0

    def test_pooling_every_live_cell_is_invalid(self):
        # uniform over 65,536 states at n=2000: every expected count is below
        # 5, so pooling would leave one cell and pass any sample, even one
        # with all 2000 draws on 5 states
        p = TabularDistribution.uniform(8, 4)
        counts = np.zeros(4**8, dtype=np.int64)
        counts[:5] = 400
        with pytest.raises(ValueError, match="validity"):
            chi_square_gof(EmpiricalDistribution(counts, 8, 4), p)

    def test_empty_empirical_rejected(self):
        p = TabularDistribution.uniform(1, 2)
        with pytest.raises(ValueError):
            chi_square_gof(EmpiricalDistribution(np.zeros(2, dtype=int), 1, 2), p)

    def test_verdict_serializes(self):
        p = TabularDistribution.uniform(2, 2)
        counts = RandomSource(7).generator().multinomial(5000, p.weights)
        v = chi_square_gof(EmpiricalDistribution(counts, 2, 2), p)
        obj = v.to_json()
        assert set(obj) == {"name", "statistic", "dof", "p_value", "alpha", "pass"}
        assert obj["pass"] == (obj["p_value"] > obj["alpha"])


class TestKSUniform:
    def test_calibration(self):
        passes = sum(
            ks_uniform(RandomSource(2000 + s).generator().random(100000)).passed
            for s in range(100)
        )
        assert passes >= 98

    def test_constant_values_fail(self):
        assert not ks_uniform(np.full(1000, 0.5)).passed

    def test_beta_1_3_fails_against_uniform(self):
        gen = RandomSource(8).generator()
        draws = gen.beta(1, 3, size=10000)
        assert not ks_uniform(draws).passed

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            ks_uniform([])
        with pytest.raises(ValueError):
            ks_uniform([0.2, 1.4])


class TestEmpiricalDistribution:
    def test_counts_sum_and_probs(self):
        rows = np.array([row(t, 2) for t in ("AA", "AB", "AB", "BB")])
        emp = EmpiricalDistribution.from_token_rows(rows, 2, 2)
        assert emp.n == 4
        assert emp.counts[encode_rows(row("AB", 2), 2)] == 2
        assert emp.probs.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("rows, message", [
        ([[2, 0], [0, 1]], "symbols 0..1"),  # a position left masked
        ([[-1, 1]], "symbols 0..1"),
        ([[0, 1, 0]], "length 3"),
        ([[0]], "length 1"),
        ([[0.0, 1.0]], "2-d integer"),
    ])
    def test_rows_that_are_not_clean_sequences_of_length_d_refused(self, rows, message):
        # unchecked, [[2, 0], [0, 1]] counted as [0, 0, 2, 0] and [[-1, 1]]
        # as [1, 0, 0, 0]: a sampler that left a mask passed its oracle
        with pytest.raises(ValueError, match=message):
            EmpiricalDistribution.from_token_rows(np.array(rows), 2, 2)
