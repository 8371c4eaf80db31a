import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, stats

from guidesampler.core import RandomSource, TabularDistribution
from guidesampler.denoising import (
    ExactDenoiser,
    LogitModifier,
    ModifiedDenoiser,
    ParametricDenoiser,
    aoarm_loss_exact,
)
from guidesampler.errors import (
    CapabilityError,
    DegenerateStepError,
    SizeCapError,
    TimeHorizonError,
    UnsupportedContextError,
)
from guidesampler.oracle import EmpiricalDistribution, brute_force_posterior, chi_square_gof, ks_uniform, tv_distance
from guidesampler.predictors import (
    LIKELIHOOD_FLOOR,
    CleanPredictor,
    ExactMarginalPredictor,
    PairwiseInteractionPredictor,
    ProductPredictor,
)
from guidesampler.sampling import (
    ROUTE_MODES,
    GuidanceConfig,
    SamplerDiagnostics,
    _ContextCache,
    aoarm_sample,
    aoarm_sample_many,
    check_dt,
    euler_sample,
    euler_sample_many,
    guide_rates,
    lemma1_density,
    rate_coefficient,
    sample_jump_times,
)

from bruteforce import (
    Looped,
    context_code,
    loop_cdf,
    loop_guided_row,
    delta_weights,
    pair_rows,
    row,
    sorted_pairs,
)


def random_dist(D, S, seed, floor=0.05):
    gen = RandomSource(seed).generator()
    return TabularDistribution.from_unnormalized(D, S, gen.random(S**D) + floor)


class TestGuidanceConfig:
    def test_modes_validated(self):
        with pytest.raises(ValueError):
            GuidanceConfig(mode="both")
        with pytest.raises(ValueError):
            GuidanceConfig(mode="deg")  # predictor missing
        with pytest.raises(ValueError):
            GuidanceConfig(mode="predictor_free")  # second denoiser missing

    def test_route_restrictions(self):
        p = random_dist(2, 2, 0)
        den = ExactDenoiser(p)
        pred = ExactMarginalPredictor(CleanPredictor(lambda x: 0.5), p)
        with pytest.raises(ValueError):
            euler_sample(den, GuidanceConfig(mode="deg", predictor=pred), 0.1, RandomSource(0))
        with pytest.raises(ValueError):
            aoarm_sample(den, GuidanceConfig(mode="exact", predictor=pred), RandomSource(0))
        with pytest.raises(ValueError):
            guide_rates(den, row("??", 2), 0.5,
                        GuidanceConfig(mode="deg", predictor=pred))


class TestUnguidedRates:
    def test_half_half_posterior_at_t_half(self):
        p = TabularDistribution(1, 2, [0.5, 0.5])
        rates = guide_rates(ExactDenoiser(p), row("?", 2), 0.5)
        assert rates[0, 0] == pytest.approx(1.0)
        assert rates[0, 1] == pytest.approx(1.0)

    def test_no_entries_at_unmasked(self):
        p = random_dist(2, 2, 1)
        rates = guide_rates(ExactDenoiser(p), row("A?", 2), 0.3)
        assert rates.shape == (2, 2) and (rates[0] == 0.0).all() and (rates[1] > 0.0).all()

    def test_t0_rates_equal_posterior(self):
        p = random_dist(2, 2, 2)
        den = ExactDenoiser(p)
        xt = row("??", 2)
        rates = guide_rates(den, xt, 0.0)
        post = den.posterior_array(xt)
        for (d, s), r in np.ndenumerate(rates):
            assert r == pytest.approx(post[d, s])

    def test_time_horizon_error(self):
        p = random_dist(1, 2, 3)
        with pytest.raises(TimeHorizonError):
            guide_rates(ExactDenoiser(p), row("?", 2), 1.0 - 1e-12)

    def test_single_transition_sparsity(self):
        # entries only at masked positions, only real target symbols
        p = random_dist(3, 3, 4)
        xt = row("A??", 3)
        rates = guide_rates(ExactDenoiser(p), xt, 0.4)
        assert rates.shape == (3, 3)
        assert set(np.flatnonzero(rates.any(axis=1)).tolist()) == {1, 2}

    @pytest.mark.parametrize("tokens", [
        [2],  # too short
        [2, 2, 2],  # too long
        [[2, 2]],  # 2-D
        [-1, 2],  # once wrapped to the last symbol
        [0, 3],  # above the mask
        [2.0, 2.0],  # float
    ], ids=["short", "long", "2d", "negative", "above_mask", "float"])
    def test_context_row_is_checked_before_any_model_call(self, tokens):
        class Untouchable(ExactDenoiser):
            def posterior_array(self, tokens, positions=None):
                raise AssertionError("model called")

        den = Untouchable(random_dist(2, 2, 45))
        with pytest.raises(ValueError, match=r"context must be an integer row \(2,\) over 0..2"):
            guide_rates(den, np.array(tokens), 0.5)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rate_check_names_first_bad_entry(self):
        # exact mode at gamma=30: the ratio 1e12 of Certain overflows the
        # weight of (0, 0) to inf
        den = ExactDenoiser(random_dist(1, 2, 46))
        cfg = GuidanceConfig(mode="exact", gamma=30.0, predictor=Certain())
        with pytest.raises(ValueError, match=r"^rate \(0,0\) = inf is not finite and nonnegative$"):
            guide_rates(den, row("?", 2), 0.5, cfg)


class TestGuideRates:
    def setup_rates(self, seed=5):
        p = random_dist(2, 2, seed)
        den = ExactDenoiser(p)
        clean = CleanPredictor(lambda x: float(0.1 + 0.8 * (x[0] == 1)))
        pred = ExactMarginalPredictor(clean, p)
        xt = row("??", 2)
        return den, xt, pred

    def test_gamma_zero_bitwise(self):
        den, xt, pred = self.setup_rates()
        rates = guide_rates(den, xt, 0.25)
        cfg = GuidanceConfig(mode="exact", gamma=0.0, predictor=pred)
        guided = guide_rates(den, xt, 0.25, cfg)
        assert np.array_equal(guided, rates)

    def test_ratio_example(self):
        # gamma=1, p(y|child)=0.8, p(y|source)=0.4, rate 1.0 -> 2.0
        class Fixed:
            has_gradient_surface = False

            def likelihood_array(self, tokens, positions):
                return np.where((pair_rows(tokens, positions, 2) == 2).any(axis=-1), 0.4, 0.8)

        p = TabularDistribution(1, 2, [0.5, 0.5])
        args = (ExactDenoiser(p), row("?", 2), 0.5)
        assert guide_rates(*args)[0, 0] == pytest.approx(1.0)
        guided = guide_rates(*args, GuidanceConfig(mode="exact", gamma=1.0, predictor=Fixed()))
        assert guided[0, 0] == pytest.approx(2.0)

    def test_tag_equals_exact_for_affine_single_site(self):
        gen = RandomSource(7).generator()
        D, S = 3, 3
        pred = PairwiseInteractionPredictor(D, S, link="exp", bias=-4.0)
        pred.single[:] = gen.normal(0, 0.4, pred.single.shape)
        p = random_dist(D, S, 8)
        den = ExactDenoiser(p)
        for text in ("???", "B??", "?CA"):
            xt = row(text, S)
            if not (xt == S).any():
                continue
            rates = guide_rates(den, xt, 0.35)
            ex = guide_rates(den, xt, 0.35, GuidanceConfig(mode="exact", gamma=1.3, predictor=pred))
            tg = guide_rates(den, xt, 0.35, GuidanceConfig(mode="tag", gamma=1.3, predictor=pred))
            for key in np.ndindex(rates.shape):
                if ex[key] == 0.0:
                    assert tg[key] == 0.0
                else:
                    assert tg[key] == pytest.approx(ex[key], rel=1e-9)

    def test_tag_without_surface_is_capability_error(self):
        den, xt, pred = self.setup_rates()
        with pytest.raises(CapabilityError):
            GuidanceConfig(mode="tag", gamma=1.0, predictor=pred)

    def test_predictor_free_geometric_mix(self):
        p1 = random_dist(2, 2, 9)
        p2 = random_dist(2, 2, 10)
        den1, den2 = ExactDenoiser(p1), ExactDenoiser(p2)
        xt = row("??", 2)
        base = guide_rates(den1, xt, 0.2)
        cond = guide_rates(den2, xt, 0.2)
        cfg = GuidanceConfig(mode="predictor_free", gamma=0.3, second_denoiser=den2)
        mixed = guide_rates(den1, xt, 0.2, cfg)
        for key in np.ndindex(base.shape):
            want = cond[key] ** 0.3 * base[key] ** 0.7
            assert mixed[key] == pytest.approx(want, rel=1e-12)


class TestJumpTimes:
    def test_d1_uniform_ks(self):
        taus = sample_jump_times(1, RandomSource(11).generator(), n=100000)[0][:, 0]
        assert ks_uniform(taus).passed

    def test_d3_first_time_is_min_of_three_uniforms(self):
        first = sample_jump_times(3, RandomSource(12).generator(), n=100000)[0][:, 0]
        assert abs(first.mean() - 0.25) < 0.005  # Beta(1,3) mean
        # full distributional check
        assert stats.kstest(first, lambda x: 1 - (1 - x) ** 3).pvalue > 0.01

    def test_sigma_uniform_over_permutations(self):
        n = 60000
        _, sigma = sample_jump_times(3, RandomSource(13).generator(), n=n)
        keys, freq = np.unique(sigma, axis=0, return_counts=True)
        counts = dict(zip(map(tuple, keys.tolist()), freq.tolist()))
        assert len(counts) == 6
        expected = n / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert stats.chi2.sf(chi2, 5) > 0.001

    def test_sorted_and_consistent_with_schedule(self):
        taus, sigma = sample_jump_times(5, RandomSource(14))
        assert (np.diff(taus[0]) >= 0).all()
        assert sorted(sigma[0].tolist()) == list(range(5))

    def test_aoarm_orders_and_times_are_sample_jump_times(self):
        # the any-order core draws its orders and times here, first from
        # the chain generator
        den = ParametricDenoiser.random(4, 3, RandomSource(15), scale=0.5)
        n = 30
        _, paths, _ = aoarm_sample_many(den, GuidanceConfig(), n, RandomSource(16), paths=True)
        tau, sigma = sample_jump_times(4, RandomSource(16).generator(), n)
        assert np.array_equal(np.stack([p.permutation for p in paths]), sigma)
        assert np.array_equal(np.stack([p.jump_times for p in paths]), tau)


class TestLemma1Density:
    def test_d1_uniform(self):
        for tau in (0.1, 0.5, 0.9):
            assert lemma1_density(1, tau, 0.0, 1) == pytest.approx(1.0)

    def test_d2_first_jump_value(self):
        # 2/(1-0) * ((1-0.5)/(1-0))^1 = 1.0; cross-check min-of-2 density 2(1-t)
        assert lemma1_density(1, 0.5, 0.0, 2) == pytest.approx(1.0)
        assert lemma1_density(1, 0.25, 0.0, 2) == pytest.approx(2 * (1 - 0.25))

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_integrates_to_one(self, i):
        gen = RandomSource(15 + i).generator()
        tau_prev = float(gen.random() * 0.6)
        val, err = integrate.quad(
            lambda t: lemma1_density(i, t, tau_prev, 3), tau_prev, 1.0, limit=200
        )
        assert abs(val - 1.0) <= 1e-6

    def test_ordering_violations_rejected(self):
        with pytest.raises(ValueError):
            lemma1_density(1, 0.2, 0.5, 3)
        with pytest.raises(ValueError):
            lemma1_density(4, 0.5, 0.2, 3)


class TestEulerSampler:
    def test_delta_law_always_returned(self):
        p = TabularDistribution(4, 2, delta_weights("ABBA", 2))
        den = ExactDenoiser(p)
        for seed in range(5):
            out, _, _ = euler_sample(den, GuidanceConfig(), 0.05, RandomSource(seed))
            assert out.tolist() == [0, 1, 1, 0]

    def test_overflow_is_counted(self):
        # unguided outflow is dt/(1-t) <= 1 on every step
        # before the horizon, so the counter stays zero ...
        p = random_dist(3, 2, 16)
        den = ExactDenoiser(p)
        _, _, diag = euler_sample(den, GuidanceConfig(), 0.1, RandomSource(0))
        assert diag.overflow_renormalizations == 0

        # ... while a strong likelihood ratio pushes guided outflow past 1
        # from the first step, and every renormalization is counted
        class Strong:
            has_gradient_surface = False

            def likelihood_array(self, tokens, positions):
                return np.where((pair_rows(tokens, positions, 2) == 2).any(axis=-1), 0.05, 0.95)

        cfg = GuidanceConfig(mode="exact", gamma=2.0, predictor=Strong())
        _, _, diag = euler_sample(den, cfg, 0.1, RandomSource(1))
        assert diag.overflow_renormalizations > 0
        rows, diag_many = euler_sample_many(den, cfg, 0.1, 50, RandomSource(2))
        assert diag_many.overflow_renormalizations > 0

    def test_path_records_one_unmask_per_step(self):
        p = random_dist(4, 2, 17)
        out, path, diag = euler_sample(ExactDenoiser(p), GuidanceConfig(), 0.02, RandomSource(3))
        # unguided, a weight row is formed only for a position that jumps or
        # is force-completed, each from its own (context, position) pair
        assert diag.step_weight_requests == 4
        assert len(path.states) == len(path.permutation) + 1
        assert sorted(path.permutation.tolist()) == list(range(4))
        for a, b, d in zip(path.states, path.states[1:], path.permutation):
            diff = np.flatnonzero(a != b)
            assert diff.tolist() == [d]

    def test_many_matches_single_law(self):
        p = random_dist(3, 2, 18)
        den = ExactDenoiser(p)
        rows, _ = euler_sample_many(den, GuidanceConfig(), 0.01, 30000, RandomSource(19))
        singles = np.stack(
            [euler_sample(den, GuidanceConfig(), 0.01, RandomSource(20).substream(k))[0] for k in range(3000)]
        )
        emp_many = EmpiricalDistribution.from_token_rows(rows, 3, 2)
        emp_single = EmpiricalDistribution.from_token_rows(singles, 3, 2)
        assert tv_distance(emp_many, emp_single) < 0.05

    def test_tv_decreases_with_dt(self):
        # O(dt) bias: averaged over seeds, coarse dt has larger TV
        p = random_dist(4, 3, 21)
        den = ExactDenoiser(p)
        n = 8000
        tv = {}
        for dt in (0.1, 0.001):
            vals = []
            for seed in range(4):
                rows, _ = euler_sample_many(den, GuidanceConfig(), dt, n, RandomSource(100 + seed))
                vals.append(tv_distance(EmpiricalDistribution.from_token_rows(rows, 4, 3), p))
            tv[dt] = float(np.mean(vals))
        assert tv[0.1] > tv[0.001]

    def test_dt_validation(self):
        p = random_dist(1, 2, 22)
        for bad in (0.0, 0.2, -0.01):
            with pytest.raises(ValueError):
                euler_sample(ExactDenoiser(p), GuidanceConfig(), bad, RandomSource(0))

    def test_non_dividing_dt_accepted(self):
        p = random_dist(3, 2, 23)
        out, path, _ = euler_sample(ExactDenoiser(p), GuidanceConfig(), 0.03, RandomSource(1))
        assert len(path.permutation) == 3
        rows, _ = euler_sample_many(ExactDenoiser(p), GuidanceConfig(), 0.07, 500, RandomSource(2))
        assert (rows < 2).all()


class TestEulerHorizon:
    """Pairs still masked at the 1-dt horizon all jump at time 1.0, drawn
    from the CDF rows the guided core holds: the first horizon kernel call
    forms only the pairs of chains that jumped at the last integration
    step, or all of them when the switch point flips at the horizon."""

    DT = 0.05  # 19 integration steps, the last at t = 0.9
    #: rows and paths of the flip case, computed before the horizon reused
    #: the core's CDF rows
    FLIP_DIGEST = "9cf2d2b861c3b5e3bde0bf537ca17fc0f3746d6e9aa6c0fc5363e3bece63ba9c"

    def run(self, monkeypatch, t0):
        """(rows, paths, the pairs of the first horizon kernel call, the
        still-masked pairs at the horizon, those of them whose chain jumped
        at the last integration step); a pair is (context row, position)."""
        calls = []
        tables = _ContextCache.pair_tables

        def spy(cache, rows, positions, active, step):
            calls.append((step, [(tuple(r), int(d)) for r, d in zip(rows.tolist(), positions)]))
            return tables(cache, rows, positions, active, step)

        monkeypatch.setattr(_ContextCache, "pair_tables", spy)
        den, pred = looped_test_models()
        cfg = GuidanceConfig(mode="exact", gamma=1.5, predictor=pred, t0=t0)
        rows, paths, _ = euler_sample_many(den, cfg, self.DT, 40, RandomSource(61),
                                           paths=True)
        n_int = check_dt(self.DT)
        last = (n_int - 1) * self.DT + self.DT  # jump time of the last integration step
        masked, moved = [], []
        for row, path in zip(rows, paths):
            late = np.sort(path.permutation[path.jump_times == 1.0])
            context = row.copy()
            context[late] = den.S
            pairs = [(tuple(context.tolist()), int(d)) for d in late]
            masked += pairs
            if (path.jump_times == last).any():
                moved += pairs
        first = next(pairs for step, pairs in calls if step == n_int)
        return rows, paths, first, masked, moved

    def test_only_moved_chains_formed_again(self, monkeypatch):
        _, _, first, masked, moved = self.run(monkeypatch, t0=0.0)
        assert 0 < len(moved) < len(masked)
        assert first == moved

    def test_switch_flip_forms_every_pair(self, monkeypatch):
        # t0 in (0.9, 0.95]: guidance is off at every integration step and
        # on at the horizon, whose clock reads 1 - dt
        rows, paths, first, masked, moved = self.run(monkeypatch, t0=0.93)
        assert len(moved) < len(masked) and first == masked
        digest = hashlib.sha256(rows.astype(np.int64).tobytes())
        for path in paths:
            digest.update(path.permutation.astype(np.int64).tobytes())
            digest.update(path.jump_times.tobytes())
        assert digest.hexdigest() == self.FLIP_DIGEST


@pytest.mark.parametrize("route", ["aoarm", "euler"])
def test_single_chain_is_row_zero_of_the_batch(route):
    # the single-chain samplers return an int64 row (D,): the path's row and
    # row 0 of the n=1 batched call at the same source
    den = ParametricDenoiser.random(5, 4, RandomSource(58), scale=1.0)
    if route == "aoarm":
        out, path, _ = aoarm_sample(den, GuidanceConfig(), RandomSource(59))
        rows, _ = aoarm_sample_many(den, GuidanceConfig(), 1, RandomSource(59))
    else:
        out, path, _ = euler_sample(den, GuidanceConfig(), 0.05, RandomSource(59))
        rows, _ = euler_sample_many(den, GuidanceConfig(), 0.05, 1, RandomSource(59))
    assert out.dtype == np.int64 and out.shape == (5,)
    assert np.array_equal(out, path.row) and np.array_equal(out, rows[0])


class TestAOARMSampler:
    def test_delta_law_always_returned(self):
        p = TabularDistribution(3, 2, delta_weights("BAB", 2))
        for seed in range(5):
            out, _, _ = aoarm_sample(ExactDenoiser(p), GuidanceConfig(), RandomSource(seed))
            assert out.tolist() == [1, 0, 1]

    def test_unguided_matches_p_data(self):
        p = random_dist(4, 3, 23)
        rows, _ = aoarm_sample_many(ExactDenoiser(p), GuidanceConfig(), 60000, RandomSource(24))
        emp = EmpiricalDistribution.from_token_rows(rows, 4, 3)
        assert tv_distance(emp, p) <= 0.02
        assert chi_square_gof(emp, p).passed

    def test_single_chain_matches_p_data(self):
        p = random_dist(2, 3, 55)
        den = ExactDenoiser(p)
        # root 56 gives p = 6.4e-4 < alpha on this stream, a false rejection:
        # over roots 56-95 the p-values fit U(0, 1) (KS p = 0.69), and
        # 60,000 chains at root 999 give p = 0.94
        root = RandomSource(57)
        rows = np.stack(
            [aoarm_sample(den, GuidanceConfig(), root.substream(k))[0] for k in range(6000)]
        )
        emp = EmpiricalDistribution.from_token_rows(rows, 2, 3)
        assert chi_square_gof(emp, p).passed

    def test_deg_gamma1_matches_brute_posterior(self):
        p = random_dist(3, 3, 25)
        clean = CleanPredictor(lambda x: float(0.05 + 0.9 * (x[0] == x[2])))
        pred = ExactMarginalPredictor(clean, p)
        cfg = GuidanceConfig(mode="deg", gamma=1.0, predictor=pred)
        rows, _ = aoarm_sample_many(ExactDenoiser(p), cfg, 60000, RandomSource(26))
        emp = EmpiricalDistribution.from_token_rows(rows, 3, 3)
        target = brute_force_posterior(p, clean, 1.0)
        assert tv_distance(emp, target) <= 0.02
        assert chi_square_gof(emp, target).passed

    def test_deg_gamma0_is_unguided(self):
        p = random_dist(3, 2, 27)
        clean = CleanPredictor(lambda x: float(0.2 + 0.6 * (x[0] == 1)))
        pred = ExactMarginalPredictor(clean, p)
        cfg = GuidanceConfig(mode="deg", gamma=0.0, predictor=pred)
        rows, _ = aoarm_sample_many(ExactDenoiser(p), cfg, 50000, RandomSource(28))
        emp = EmpiricalDistribution.from_token_rows(rows, 3, 2)
        assert chi_square_gof(emp, p).passed

    def test_t0_one_disables_guidance(self):
        p = random_dist(3, 2, 29)
        clean = CleanPredictor(lambda x: float(0.05 + 0.9 * (x[1] == 0)))
        pred = ExactMarginalPredictor(clean, p)
        cfg = GuidanceConfig(mode="deg", gamma=5.0, predictor=pred, t0=1.0)
        rows, _ = aoarm_sample_many(ExactDenoiser(p), cfg, 50000, RandomSource(30))
        emp = EmpiricalDistribution.from_token_rows(rows, 3, 2)
        assert chi_square_gof(emp, p).passed

    def test_jump_times_are_the_sorted_order_uniforms(self):
        # the uniforms whose argsort fixed the unmask order, sorted: the jump
        # times
        den = ExactDenoiser(random_dist(3, 2, 31))
        _, path, _ = aoarm_sample(den, GuidanceConfig(), RandomSource(7))
        u = RandomSource(7).generator().random((1, 3))[0]
        assert path.permutation.tolist() == np.argsort(u).tolist()
        assert np.array_equal(path.jump_times, np.sort(u))

    def test_degenerate_step_error_names_step(self):
        class Zero:
            has_gradient_surface = False

            def likelihood_array(self, tokens, positions):
                return np.full((positions.size, 3), LIKELIHOOD_FLOOR)  # zero, clamped

        p = random_dist(2, 2, 32)
        cfg = GuidanceConfig(mode="deg", gamma=400.0, predictor=Zero())
        with pytest.raises(DegenerateStepError) as exc:
            aoarm_sample(ExactDenoiser(p), cfg, RandomSource(1))
        assert exc.value.step == 0
        assert str(exc.value).startswith("all guided symbol weights vanished at decode step 0")

    def test_monotone_guidance_in_gamma(self):
        # increasing gamma never decreases the mean clean-predictor value
        p = random_dist(4, 2, 36)
        den = ExactDenoiser(p)
        clean = CleanPredictor(lambda x: float(0.05 + 0.9 * (x.sum() >= 3)))
        pred = ExactMarginalPredictor(clean, p)
        table_vals = clean.table(4, 2)
        means, ns = [], 5000
        for gamma in (0.0, 1.0, 10.0):
            cfg = GuidanceConfig(mode="deg", gamma=gamma, predictor=pred)
            rows, _ = aoarm_sample_many(den, cfg, ns, RandomSource(37))
            vals = table_vals[rows @ (2 ** np.arange(4))]
            means.append((vals.mean(), vals.std(ddof=1)))
        for (m0, s0), (m1, s1) in zip(means, means[1:]):
            # one-sided Welch test at alpha = 0.01: reject "later mean is lower"
            se = math.sqrt(s0**2 / ns + s1**2 / ns)
            z = (m1 - m0) / se
            assert z > stats.norm.ppf(0.01)

    def test_predictor_free_gamma1_samples_conditional_model(self):
        # with gamma=1 the geometric mix collapses to the conditional
        # denoiser, so sampling must reproduce its distribution exactly
        p = random_dist(3, 2, 60)
        clean = CleanPredictor(lambda x: float(0.1 + 0.8 * (x[0] == x[2])))
        tilted = brute_force_posterior(p, clean, 1.0)
        cfg = GuidanceConfig(
            mode="predictor_free", gamma=1.0, second_denoiser=ExactDenoiser(tilted)
        )
        rows, _ = aoarm_sample_many(ExactDenoiser(p), cfg, 60000, RandomSource(61))
        emp = EmpiricalDistribution.from_token_rows(rows, 3, 2)
        assert chi_square_gof(emp, tilted).passed

    def test_tag_mode_runs_in_aoarm(self):
        gen = RandomSource(38).generator()
        p = random_dist(3, 2, 39)
        pred = PairwiseInteractionPredictor(3, 2, link="exp", bias=-3.0)
        pred.single[:] = gen.normal(0, 0.3, pred.single.shape)
        cfg = GuidanceConfig(mode="tag", gamma=1.0, predictor=pred)
        rows, _ = aoarm_sample_many(ExactDenoiser(p), cfg, 2000, RandomSource(40))
        assert rows.shape == (2000, 3)


class Certain:
    """Likelihood 1 on a fully unmasked sequence of S=2 symbols and the
    clamp floor 1e-12 on any masked one: the exact-mode ratio of a last
    unmask is 1e12, and at gamma=30 the guided weights overflow to inf."""

    has_gradient_surface = False

    def likelihood_array(self, tokens, positions):
        return np.where((pair_rows(tokens, positions, 2) == 2).any(axis=-1), LIKELIHOOD_FLOOR, 1.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestEulerDegenerateStep:
    def test_integration_step_named(self):
        den = ExactDenoiser(random_dist(1, 2, 46))
        cfg = GuidanceConfig(mode="exact", gamma=30.0, predictor=Certain())
        with pytest.raises(DegenerateStepError) as exc:
            euler_sample_many(den, cfg, 0.1, 20, RandomSource(47))
        assert (exc.value.step, exc.value.position) == (0, 0)
        assert str(exc.value) == (
            "guided symbol weights overflowed (total inf) at decode step 0 (position 0)"
        )

    def test_force_completion_named(self):
        # guidance starts after the last integration step (t = 0.8), so the
        # weights first overflow when the horizon force-completes a chain
        # with one masked position, at step n_int = 9
        den = ExactDenoiser(random_dist(2, 2, 48))
        cfg = GuidanceConfig(mode="exact", gamma=30.0, predictor=Certain(), t0=0.85)
        with pytest.raises(DegenerateStepError) as exc:
            euler_sample_many(den, cfg, 0.1, 200, RandomSource(49))
        assert exc.value.step == 9
        assert str(exc.value).startswith("guided symbol weights overflowed (total inf)")


class Steep:
    """A gradient surface of +-1000 on every real symbol: a tag step at
    gamma=1 weighs position d by exp(1000 * sign[d]), which overflows to inf
    for sign +1 and vanishes to 0 for sign -1."""

    has_gradient_surface = True

    def __init__(self, S, signs):
        self.S, self.signs = S, np.asarray(signs, dtype=float)

    def gradient_surface_array(self, tokens, positions):
        g = np.zeros((positions.size, self.S + 1))
        g[:, : self.S] = 1000.0 * self.signs[positions][:, None]
        return g


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestDegenerateRowsInOneStep:
    """Step 0 forms the pairs (fully masked context, 0) and (fully masked
    context, 1) in one kernel call, one of them zero and one overflowing.
    The error names the first of them in ascending (code, position) order,
    position 0, whichever of the two kinds it is."""

    @pytest.mark.parametrize("route", ["aoarm", "euler"])
    @pytest.mark.parametrize("signs,message", [
        ((-1, 1), "all guided symbol weights vanished at decode step 0 (position 0)"),
        ((1, -1), "guided symbol weights overflowed (total inf) at decode step 0 (position 0)"),
    ])
    def test_first_pair_named(self, route, signs, message):
        den = ExactDenoiser(random_dist(2, 2, 50))
        cfg = GuidanceConfig(mode="tag", gamma=1.0, predictor=Steep(2, signs))
        with pytest.raises(DegenerateStepError) as exc:
            if route == "aoarm":
                aoarm_sample_many(den, cfg, 40, RandomSource(51))
            else:
                euler_sample_many(den, cfg, 0.1, 40, RandomSource(51))
        assert (exc.value.step, exc.value.position) == (0, 0)
        assert str(exc.value) == message

    @pytest.mark.parametrize("positions,named,kind", [
        ((1, 2), 1, "all guided symbol weights vanished"),
        ((0, 1), 0, "guided symbol weights overflowed (total inf)"),
    ])
    def test_lower_code_named_first(self, positions, named, kind):
        # signs: position 0 and 2 overflow, position 1 vanishes. Context
        # [?, ?, 0] (code 8) precedes [0, ?, ?] (code 24); pairs given in
        # the other order are sorted by _ContextCache.pairs, as the cores do
        den = ExactDenoiser(random_dist(3, 2, 52))
        cfg = GuidanceConfig(mode="tag", gamma=1.0, predictor=Steep(2, (1, -1, 1)))
        cache = _ContextCache(den, cfg, SamplerDiagnostics())
        rows = np.array([[0, 2, 2], [2, 2, 0]])
        high, low = cache.encode(rows).tolist()
        assert (low, high) == (8, 24)
        ctx, pos, _ = cache.pairs(rows, np.array(positions[::-1]))
        assert ctx.tolist() == [[2, 2, 0], [0, 2, 2]] and pos.tolist() == list(positions)
        with pytest.raises(DegenerateStepError) as exc:
            cache.step_tables(ctx, pos, True, 4)
        assert (exc.value.step, exc.value.position) == (4, named)
        assert str(exc.value).startswith(kind)


class TestDecodePaths:
    """Paths of the batched drivers at n > 1: each step reveals exactly the
    permuted position, and the final state is the sampled row."""

    N, D, S = 40, 5, 3

    def check(self, rows, paths):
        assert len(paths) == self.N
        for row, path in zip(rows, paths):
            assert sorted(path.permutation.tolist()) == list(range(self.D))
            assert len(path.states) == self.D + 1 and (path.states[0] == self.S).all()
            for a, b, d in zip(path.states, path.states[1:], path.permutation):
                assert np.flatnonzero(a != b).tolist() == [d]
            assert np.array_equal(path.states[-1], row)

    def test_aoarm_paths(self):
        den = ParametricDenoiser.random(self.D, self.S, RandomSource(80), scale=0.5)
        rows, paths, _ = aoarm_sample_many(den, GuidanceConfig(), self.N, RandomSource(81), paths=True)
        self.check(rows, paths)
        for path in paths:
            assert (np.diff(path.jump_times) > 0).all()
            assert 0.0 <= path.jump_times[0] and path.jump_times[-1] < 1.0
        plain, _ = aoarm_sample_many(den, GuidanceConfig(), self.N, RandomSource(81))
        assert np.array_equal(plain, rows)

    def test_euler_paths(self):
        den = ParametricDenoiser.random(self.D, self.S, RandomSource(82), scale=0.5)
        dt = 0.1
        rows, paths, _ = euler_sample_many(
            den, GuidanceConfig(), dt, self.N, RandomSource(83), paths=True
        )
        self.check(rows, paths)
        forced = 0
        for path in paths:
            events = list(zip(path.jump_times.tolist(), path.permutation.tolist()))
            # sorted by jump time, ties by ascending position
            assert events == sorted(events)
            # a jump at integration step k = 0..8 happens at (k+1)*dt
            steps = np.array([t / dt for t, _ in events if t < 1.0])
            assert np.allclose(steps, np.round(steps))
            assert ((steps > 1 - 1e-9) & (steps < 9 + 1e-9)).all()
            forced += sum(t == 1.0 for t, _ in events)
        assert forced > 0
        plain, _ = euler_sample_many(den, GuidanceConfig(), dt, self.N, RandomSource(83))
        assert np.array_equal(plain, rows)


class TestSamplerEquivalence:
    def test_aoarm_euler_and_truth_pairwise_close(self):
        p = random_dist(4, 3, 41)
        den = ExactDenoiser(p)
        n = 50000
        rows_a, _ = aoarm_sample_many(den, GuidanceConfig(), n, RandomSource(42))
        rows_e, _ = euler_sample_many(den, GuidanceConfig(), 0.001, n, RandomSource(43))
        emp_a = EmpiricalDistribution.from_token_rows(rows_a, 4, 3)
        emp_e = EmpiricalDistribution.from_token_rows(rows_e, 4, 3)
        assert tv_distance(emp_a, p) <= 0.03
        assert tv_distance(emp_e, p) <= 0.03
        assert tv_distance(emp_a, emp_e) <= 0.03

    def test_exact_rate_euler_guidance_approaches_posterior(self):
        p = random_dist(3, 2, 44)
        den = ExactDenoiser(p)
        clean = CleanPredictor(lambda x: float(0.1 + 0.8 * (x[0] == x[1])))
        pred = ExactMarginalPredictor(clean, p)
        target = brute_force_posterior(p, clean, 1.0)
        cfg = GuidanceConfig(mode="exact", gamma=1.0, predictor=pred)
        n = 40000
        tvs = {}
        for dt in (0.1, 0.005):
            rows, _ = euler_sample_many(den, cfg, dt, n, RandomSource(45))
            tvs[dt] = tv_distance(EmpiricalDistribution.from_token_rows(rows, 3, 2), target)
        assert tvs[0.005] <= 0.02
        assert tvs[0.1] > tvs[0.005]


class TestZeroMassContexts:
    """A prior with zero-mass contexts: p on {AAA, BBB}, clean likelihood
    0.3 + 0.4 x0. A child without mass has zero posterior weight, so it gets
    guided weight 0 and is never scored. The first unmask decides the
    sequence here, so the rule law of both routes is the tempered posterior
    p c^gamma / Z."""

    @staticmethod
    def models():
        w = np.zeros(8)
        w[[0, 7]] = 0.5
        p = TabularDistribution(3, 2, w)
        clean = CleanPredictor.from_table(0.3 + 0.4 * (np.arange(8) % 2), 2)  # x0 = code % 2
        return p, clean, ExactMarginalPredictor(clean, p)

    @pytest.mark.parametrize("gamma", [1.0, 3.0])
    def test_deg_matches_tempered_posterior(self, gamma):
        p, clean, pred = self.models()
        cfg = GuidanceConfig(mode="deg", gamma=gamma, predictor=pred)
        rows, _ = aoarm_sample_many(ExactDenoiser(p), cfg, 20000, RandomSource(61))
        emp = EmpiricalDistribution.from_token_rows(rows, 3, 2)
        assert chi_square_gof(emp, brute_force_posterior(p, clean, gamma)).passed

    @pytest.mark.parametrize("gamma", [1.0, 3.0])
    def test_euler_exact_matches_tempered_posterior(self, gamma):
        # simultaneous jumps that land on BA? or AB? keep only their first
        p, clean, pred = self.models()
        cfg = GuidanceConfig(mode="exact", gamma=gamma, predictor=pred)
        rows, _ = euler_sample_many(ExactDenoiser(p), cfg, 0.01, 20000, RandomSource(62))
        emp = EmpiricalDistribution.from_token_rows(rows, 3, 2)
        assert chi_square_gof(emp, brute_force_posterior(p, clean, gamma)).passed

    def test_zero_mass_child_gets_zero_rate(self):
        p, _, pred = self.models()
        xt = row("?A?", 2)
        rates = guide_rates(ExactDenoiser(p), xt, 0.5, GuidanceConfig("exact", 2.0, pred))
        # ?A? is AAA; no completion of BA? or ?AB has mass
        assert rates.tolist() == [[rate_coefficient(0.5), 0.0], [0.0, 0.0],
                                  [rate_coefficient(0.5), 0.0]]

    @pytest.mark.parametrize("route", ["aoarm", "euler"])
    def test_tempered_model_has_its_base_support(self, route):
        # ModifiedDenoiser passes supported on to its base; otherwise every
        # Euler row looks supported, and a chain whose simultaneous jumps
        # land on ?AB raises UnsupportedContextError
        p, _, _ = self.models()
        den = ModifiedDenoiser(ExactDenoiser(p), LogitModifier(0.8))
        assert den.supported(np.array([[2, 0, 1], [2, 0, 2]])).tolist() == [False, True]
        if route == "aoarm":
            rows, _ = aoarm_sample_many(den, GuidanceConfig(), 2000, RandomSource(1))
        else:
            rows, _ = euler_sample_many(den, GuidanceConfig(), 0.05, 2000, RandomSource(1))
        assert {tuple(row) for row in rows.tolist()} == {(0, 0, 0), (1, 1, 1)}

    @staticmethod
    def two_point_runs(second_weights, n):
        """Runs of n chains on both routes under predictor_free at
        gamma=1.5: p uniform on {AAA, BBB} (indices 0 and 7), the second
        denoiser's law the masses ``second_weights`` {sequence index: mass}."""
        w = np.zeros(8)
        w[[0, 7]] = 0.5
        w2 = np.zeros(8)
        for index, mass in second_weights.items():
            w2[index] = mass
        cfg = GuidanceConfig(mode="predictor_free", gamma=1.5,
                             second_denoiser=ExactDenoiser(TabularDistribution(3, 2, w2)))
        den = ExactDenoiser(TabularDistribution(3, 2, w))
        return {
            "aoarm": lambda: aoarm_sample_many(den, cfg, n, RandomSource(62)),
            "euler": lambda: euler_sample_many(den, cfg, 0.01, n, RandomSource(63)),
        }

    @pytest.mark.parametrize("route", ["aoarm", "euler"])
    def test_predictor_free_above_gamma1_gives_zero_where_both_vanish(self, route):
        # after the first symbol both denoisers give the other symbol 0, and
        # 0**1.5 * 0**-0.5 was 0 * inf = NaN; every chain's law is the first
        # draw's, cond**1.5 * post**-0.5 at the masked context
        n = 4000
        rows, _ = self.two_point_runs({0: 0.8, 7: 0.2}, n)[route]()
        aaa = int((rows == 0).all(axis=1).sum())
        assert aaa + int((rows == 1).all(axis=1).sum()) == n
        want = 0.8**1.5 / (0.8**1.5 + 0.2**1.5)
        assert stats.binomtest(aaa, n, want).pvalue > 1e-3

    @pytest.mark.parametrize("route", ["aoarm", "euler"])
    def test_predictor_free_above_gamma1_zero_posterior_still_raises(self, route):
        # cond gives ABA weight where p has none: at context A?? the second
        # position's B weighs 0.2**1.5 * 0**-0.5 = inf
        with pytest.raises(DegenerateStepError, match="total inf"):
            self.two_point_runs({0: 0.8, 2: 0.2}, 200)[route]()


class TestPredictorPriorWithoutMass:
    """The denoiser gives mass where the exact-marginal predictor's prior,
    which holds only AA, has none. The pair form answers NaN for such a
    child, and the kernel raises the error the predictor's one-row call
    raises for the first such child it reads, in ascending code order: at
    the fully masked context, ?B (code 5) before B? (code 7)."""

    @staticmethod
    def models():
        den = ExactDenoiser(TabularDistribution.uniform(2, 2))
        clean = CleanPredictor.from_table(np.array([0.2, 0.4, 0.6, 0.8]), 2)
        return den, ExactMarginalPredictor(clean, TabularDistribution(2, 2, [1.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("route", ["aoarm", "euler"])
    def test_first_child_in_code_order_named(self, route):
        den, pred = self.models()
        with pytest.raises(UnsupportedContextError) as exc:
            if route == "aoarm":
                aoarm_sample_many(den, GuidanceConfig("deg", 1.0, pred), 50, RandomSource(3))
            else:
                guide_rates(den, row("??", 2), 0.5, GuidanceConfig("exact", 1.0, pred))
        assert str(exc.value) == "no completion of ?B has positive mass (observed positions [1])"
        assert exc.value.positions == (1,)

    def test_source_without_mass_named(self):
        # the children BA and BB are clean and scored; the source B? has no mass
        den, pred = self.models()
        with pytest.raises(UnsupportedContextError) as exc:
            guide_rates(den, row("B?", 2), 0.5, GuidanceConfig("exact", 1.0, pred))
        assert str(exc.value) == "no completion of B? has positive mass (observed positions [0])"


def looped_test_models(link="logistic"):
    """D=5, S=4: a parametric denoiser and a pairwise predictor."""
    gen = RandomSource(70).generator()
    D, S = 5, 4
    den = ParametricDenoiser.random(D, S, RandomSource(71), scale=0.5)
    pred = PairwiseInteractionPredictor(
        D, S, link=link, bias=-1.0, single=gen.normal(0, 0.5, (D, S + 1)),
        pairwise=gen.normal(0, 0.3, (D, D, S + 1, S + 1)),
    )
    return den, pred


class TestRowsFormMatchesLooped:
    """Models answering a step in one rows or pair call give the rows,
    paths and counts of the same models answering one row per call
    (``Looped``), for every mode of both routes, with logit modifiers, with
    both links and with a product predictor."""

    @staticmethod
    def counts(diag):
        out = diag.to_json()
        out.pop("wall_time_s")
        return out

    def run(self, route, den, cfg):
        if route == "aoarm":
            rows, diag = aoarm_sample_many(den, cfg, 200, RandomSource(76))
            x, path, one = aoarm_sample(den, cfg, RandomSource(77))
        else:
            rows, diag = euler_sample_many(den, cfg, 0.05, 100, RandomSource(78))
            x, path, one = euler_sample(den, cfg, 0.05, RandomSource(79))
        return rows, x, path.to_json(), self.counts(diag), self.counts(one)

    def check(self, route, mode, den, pred):
        """The run of the models and of their Looped copies; returns the
        first one's counts."""
        second = ParametricDenoiser.random(den.D, den.S, RandomSource(94), scale=0.5)
        runs = []
        for wrap in (lambda model: model, lambda model: Looped(model, den.S)):
            cfg = GuidanceConfig(
                mode=mode, gamma=1.5,
                predictor=wrap(pred) if mode in ("exact", "deg", "tag") else None,
                second_denoiser=wrap(second) if mode == "predictor_free" else None,
            )
            runs.append(self.run(route, wrap(den), cfg))
        rows_form, looped = runs
        assert np.array_equal(rows_form[0], looped[0])
        assert np.array_equal(rows_form[1], looped[1])
        assert rows_form[2:] == looped[2:]
        return rows_form[3]

    @pytest.mark.parametrize("modified", [False, True])
    @pytest.mark.parametrize("route,mode", [(r, m) for r, modes in ROUTE_MODES.items() for m in modes])
    def test_every_mode(self, route, mode, modified):
        den, pred = looped_test_models()
        if modified:
            wildtype = row("ABCDA", 4)
            den = ModifiedDenoiser(den, LogitModifier(0.8, 1.0, wildtype))
        counts = self.check(route, mode, den, pred)
        assert counts["denoiser_evals"] > 0
        assert (counts["predictor_evals"] > 0) == (mode in ("exact", "deg", "tag"))

    @pytest.mark.parametrize("route,mode", [("aoarm", "deg"), ("aoarm", "tag"),
                                            ("euler", "exact"), ("euler", "tag")])
    def test_exp_link(self, route, mode):
        den, pred = looped_test_models("exp")
        assert self.check(route, mode, den, pred)["predictor_evals"] > 0

    @pytest.mark.parametrize("route,mode", [("aoarm", "deg"), ("aoarm", "tag"),
                                            ("euler", "exact"), ("euler", "tag")])
    def test_product(self, route, mode):
        den, _ = looped_test_models()
        parts = [looped_test_models(link)[1] for link in ("logistic", "exp")]
        parts.append(PairwiseInteractionPredictor(5, 4, bias=0.5, single=parts[0].single[::-1]))
        pred = ProductPredictor(parts)
        assert self.check(route, mode, den, pred)["predictor_evals"] > 0

    @pytest.mark.parametrize("mode", ["none", "tag", "exact"])
    def test_no_masked_position_has_zero_rates(self, mode):
        den, pred = looped_test_models()
        xt = row("ABCDA", 4)
        for d, p in ((den, pred), (Looped(den), Looped(pred))):
            cfg = GuidanceConfig(mode=mode, gamma=1.5, predictor=None if mode == "none" else p)
            rates = guide_rates(d, xt, 0.3, cfg)
            assert rates.shape == (5, 4) and not rates.any()


class TestScalarAnswerRefused:
    """The kernel hands every model pairs. A model that answers only one
    token array at a time returns a scalar for them, and every driver raises
    CapabilityError naming the model and the method instead of indexing a
    scalar or using the wrong rows."""

    class ScalarOnly:
        has_gradient_surface = True

        def likelihood_array(self, tokens, positions):
            return 0.5

        def gradient_surface_array(self, tokens, positions):
            return np.zeros((tokens.shape[-1], 3))

    @pytest.mark.parametrize("driver", ["aoarm", "euler", "guide_rates"])
    @pytest.mark.parametrize("mode", ["likelihood", "tag"])
    def test_capability_error(self, driver, mode):
        den = ExactDenoiser(random_dist(3, 2, 95))
        if mode == "likelihood":
            mode = "deg" if driver == "aoarm" else "exact"
        cfg = GuidanceConfig(mode=mode, gamma=1.0, predictor=self.ScalarOnly())
        method = "gradient_surface_array" if mode == "tag" else "likelihood_array"
        with pytest.raises(CapabilityError, match=rf"^ScalarOnly\.{method} answered shape "):
            if driver == "aoarm":
                aoarm_sample_many(den, cfg, 10, RandomSource(96))
            elif driver == "euler":
                euler_sample_many(den, cfg, 0.1, 10, RandomSource(96))
            else:
                guide_rates(den, row("A??", 2), 0.5, cfg)


def sized_state(obj, depth=2):
    """Lengths of the container attributes of obj, and of the objects it
    holds, down to ``depth`` levels."""
    out = {}
    for name, value in vars(obj).items():
        if isinstance(value, (dict, list, set, tuple)):
            out[name] = len(value)
        elif depth and hasattr(value, "__dict__") and not callable(value):
            out[name] = sized_state(value, depth - 1)
    return out


class TestModelsHoldNoMemo:
    """A sampler or loss call leaves the tabular models as they were built,
    and the sampler's context cache holds no container after the call."""

    @staticmethod
    def caches(monkeypatch, cls):
        """The instances of ``cls`` built from here on, in order."""
        made = []
        init = cls.__init__

        def spy(self, *args):
            init(self, *args)
            made.append(self)

        monkeypatch.setattr(cls, "__init__", spy)
        return made

    @staticmethod
    def containers(obj):
        """The names of the container attributes of obj itself."""
        return {name for name, size in sized_state(obj, depth=0).items() if isinstance(size, int)}

    def test_loss_leaves_model_unchanged(self):
        p = random_dist(4, 3, 50)
        den = ExactDenoiser(p)
        before = sized_state(den)
        aoarm_loss_exact(den, p)
        assert sized_state(den) == before

    @pytest.mark.parametrize("route", ["aoarm", "euler"])
    def test_sampler_cache_holds_nothing(self, monkeypatch, route):
        den = ParametricDenoiser.random(4, 3, RandomSource(52), scale=0.5)
        cfg = GuidanceConfig(mode="tag", gamma=1.0, predictor=PairwiseInteractionPredictor(4, 3))
        made = self.caches(monkeypatch, _ContextCache)
        if route == "aoarm":
            aoarm_sample_many(den, cfg, 50, RandomSource(53))
        else:
            euler_sample_many(den, cfg, 0.05, 50, RandomSource(53))
        assert len(made) == 1 and self.containers(made[0]) == set()

    def test_deg_call_leaves_models_unchanged(self):
        p = random_dist(4, 3, 50)
        den = ExactDenoiser(p)
        clean = CleanPredictor.from_table(np.linspace(0.05, 0.95, 81), 3)
        pred = ExactMarginalPredictor(clean, p)
        before = (sized_state(den), sized_state(pred))
        cfg = GuidanceConfig(mode="deg", gamma=1.0, predictor=pred)
        _, diag = aoarm_sample_many(den, cfg, 200, RandomSource(51))
        assert diag.denoiser_evals > 0 and diag.predictor_evals > 0
        assert (sized_state(den), sized_state(pred)) == before


class ContextSpy(ParametricDenoiser):
    """Parametric denoiser that records the context of every (context,
    position) pair it is evaluated on, the pair, and the number of distinct
    contexts of each call; a call without positions evaluates every
    position of each row."""

    def __init__(self, D, S):
        super().__init__(D, S)
        self.contexts = []
        self.pairs = []
        self.distinct_per_call = []

    def posterior_array(self, tokens, positions=None):
        rows = np.array(np.atleast_2d(tokens))
        at = positions
        if at is None:
            rows, at = np.repeat(rows, self.D, axis=0), np.tile(np.arange(self.D), len(rows))
        self.contexts.extend(rows)
        self.pairs.extend(zip((row.tobytes() for row in rows), at.tolist()))
        self.distinct_per_call.append(len({row.tobytes() for row in rows}))
        return super().posterior_array(tokens, positions)


class TestContextCodeOverflow:
    """Sizes whose int64 context codes would wrap raise SizeCapError before
    the denoiser sees a context; without the guard each overflow case below
    sampled from wrong contexts without raising. Every size whose codes fit
    samples on every driver."""

    def test_single_chain_code_overflow(self):
        # 5**30 wraps int64; unguarded, the first call saw 6 of 30 masked
        den = ContextSpy(30, 4)
        with pytest.raises(SizeCapError):
            aoarm_sample(den, GuidanceConfig(), RandomSource(0))
        assert den.contexts == []

    def test_many_chain_code_overflow(self):
        # 5**28 wraps int64; unguarded, 129 of the 1,400 tokens were invalid
        den = ContextSpy(28, 4)
        with pytest.raises(SizeCapError):
            aoarm_sample_many(den, GuidanceConfig(), 50, RandomSource(0))
        assert den.contexts == []

    def test_batched_drivers_sample_d14_s20(self):
        # 21**14 fits int64 but 21**14 * 14 does not, so a pair key of
        # code * D + d would wrap; the drivers key a pair by its context's
        # rank among the step's distinct contexts instead
        drivers = (
            lambda den: aoarm_sample_many(den, GuidanceConfig(), 4, RandomSource(0)),
            lambda den: euler_sample_many(den, GuidanceConfig(), 0.1, 4, RandomSource(0)),
        )
        for run in drivers:
            den = ContextSpy(14, 20)
            rows, diag = run(den)
            assert rows.shape == (4, 14) and (rows < 20).all()
            assert den.contexts and all((c == 20).any() for c in den.contexts)
            # each (context, position) pair once; denoiser_evals sums the
            # distinct contexts of each call
            assert len(den.pairs) == len(set(den.pairs))
            assert diag.denoiser_evals == sum(den.distinct_per_call)
            with pytest.raises(SizeCapError):
                run(ContextSpy(15, 20))
        den = ContextSpy(14, 20)
        x, _, _ = aoarm_sample(den, GuidanceConfig(), RandomSource(0))
        assert (x < 20).all()
        assert [int((c == 20).sum()) for c in den.contexts] == list(range(14, 0, -1))

    def test_largest_fitting_pair_key_samples_correct_contexts(self):
        den = ContextSpy(13, 20)
        rows, _ = aoarm_sample_many(den, GuidanceConfig(), 3, RandomSource(1))
        assert rows.shape == (3, 13) and (rows < 20).all()
        assert all((c == 20).any() for c in den.contexts)


class TestContextCachePairs:
    """_ContextCache.pairs returns the distinct (context, position) pairs as
    the contexts' own rows, in ascending (code, position) order."""

    @pytest.mark.parametrize("D,S", [(1, 2), (3, 2), (5, 3), (8, 4), (14, 20)])
    def test_distinct_pairs_in_code_order(self, D, S):
        gen = RandomSource(D * 100 + S).generator()
        pool = gen.integers(0, S + 1, size=(12, D))
        # rows and positions drawn from small pools, so pairs repeat
        rows = pool[gen.integers(0, pool.shape[0], size=300)]
        positions = gen.integers(0, D, size=300)
        cache = _ContextCache(ParametricDenoiser(D, S), GuidanceConfig(), SamplerDiagnostics())
        out_rows, out_pos, inv = cache.pairs(rows, positions)
        want = sorted_pairs(rows, positions, S)
        assert len(want) < rows.shape[0]
        got = [(context_code(row, S), int(d)) for row, d in zip(out_rows, out_pos)]
        assert got == want
        assert len(set(got)) == len(got)
        assert np.array_equal(out_rows[inv], rows) and np.array_equal(out_pos[inv], positions)


class TestGuidanceKernel:
    """One kernel call over a step's pairs gives, bit for bit, the weights
    and CDF rows the per-pair loop reference forms one pair at a time, for
    every route x mode, at several gamma, before and after the switch point
    t0, and for every kind of predictor: a table, the pairwise model and a
    product of two parts. S=9 rows are long enough for the row sums to take
    numpy's pairwise path."""

    SIZES = [(3, 3), (2, 9)]

    def predictors(self, mode, D, S):
        if mode in ("none", "predictor_free"):
            return [None]
        gen = RandomSource(91).generator()
        pair = PairwiseInteractionPredictor(
            D, S, link="logistic", bias=-0.5, single=gen.normal(0, 0.8, (D, S + 1)),
            pairwise=gen.normal(0, 0.5, (D, D, S + 1, S + 1)),
        )
        other = PairwiseInteractionPredictor(
            D, S, link="exp", bias=-0.3, single=gen.normal(0, 0.8, (D, S + 1)),
        )
        if mode == "tag":
            return [pair, ProductPredictor([pair, other])]
        clean = CleanPredictor.from_table(RandomSource(92).generator().uniform(0.05, 0.95, S**D), S)
        exact = ExactMarginalPredictor(clean, random_dist(D, S, 90))
        return [exact, pair, ProductPredictor([exact, other])]

    def config(self, mode, gamma, t0, predictor, D, S):
        if mode == "none":
            return GuidanceConfig(t0=t0)
        if mode == "predictor_free":
            second = ExactDenoiser(random_dist(D, S, 93))
            return GuidanceConfig(mode=mode, gamma=gamma, second_denoiser=second, t0=t0)
        return GuidanceConfig(mode=mode, gamma=gamma, predictor=predictor, t0=t0)

    @staticmethod
    def contexts(D, S):
        """Every masked context, grouped by its number i of unmasked
        positions, with its masked positions as the step's pairs."""
        grid = np.array(np.meshgrid(*[range(S + 1)] * D, indexing="ij")).reshape(D, -1).T
        for i in range(D):
            rows = grid[(grid != S).sum(axis=1) == i]
            yield i, [(r, d) for r in rows for d in np.flatnonzero(r == S)]

    @pytest.mark.parametrize("D,S", SIZES)
    @pytest.mark.parametrize("t0", [0.0, 0.5])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("route,mode", [(r, m) for r, modes in ROUTE_MODES.items() for m in modes])
    def test_kernel_equals_per_pair_loop(self, route, mode, gamma, t0, D, S):
        den = ExactDenoiser(random_dist(D, S, 90))
        for predictor in self.predictors(mode, D, S):
            cfg = self.config(mode, gamma, t0, predictor, D, S)
            cache = _ContextCache(den, cfg, SamplerDiagnostics())
            for i, pairs in self.contexts(D, S):
                active = i / D >= t0  # the any-order switch rule
                rows = np.array([r for r, _ in pairs])
                positions = np.array([d for _, d in pairs])
                ctx, pos, inv = cache.pairs(rows, positions)
                totals, cdfs = cache.step_tables(ctx, pos, active, i)
                weights = cache.guided_weights(ctx, pos, active)
                for j, (row, d) in zip(inv, pairs):
                    want = loop_guided_row(mode if active else "none", gamma, den, predictor,
                                           cfg.second_denoiser, row, d)
                    total, cdf = loop_cdf(want)
                    assert np.array_equal(weights[j], want)
                    assert totals[j] == total and np.array_equal(cdfs[j], cdf)

    @pytest.mark.parametrize("D,S", SIZES)
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("mode", ROUTE_MODES["euler"])
    def test_guide_rates_equal_per_pair_loop(self, mode, gamma, D, S):
        den = ExactDenoiser(random_dist(D, S, 90))
        for predictor in self.predictors(mode, D, S):
            cfg = self.config(mode, gamma, 0.0, predictor, D, S)
            for _, pairs in self.contexts(D, S):
                for context in {tuple(r) for r, _ in pairs}:
                    xt = np.array(context)
                    rates = guide_rates(den, xt, 0.3, cfg)
                    for d in np.flatnonzero(xt == S):
                        want = loop_guided_row(mode, gamma, den, predictor, cfg.second_denoiser,
                                               xt, d)
                        assert np.array_equal(rates[d], rate_coefficient(0.3) * want)
