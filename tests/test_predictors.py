import math

import numpy as np
import pytest
from scipy import stats

from guidesampler.core import (
    Alphabet,
    MaskedSequence,
    RandomSource,
    TabularDistribution,
    TokenSequence,
    encode_index,
    masked_from_str,
    sequence_from_str,
    sequence_table,
)
from guidesampler.denoising import ExactDenoiser
from guidesampler.errors import CapabilityError, UnsupportedContextError
from guidesampler.predictors import (
    LIKELIHOOD_FLOOR,
    CleanPredictor,
    ExactMarginalPredictor,
    PairwiseInteractionPredictor,
    PomPredictor,
    ProductPredictor,
    ThresholdPredictor,
    ThresholdRegressor,
    clamp_likelihood,
    load_labeled_csv,
    save_labeled_csv,
    threshold_likelihood,
    train_noisy_classifier,
)

from bruteforce import brute_noisy_likelihood, dist_as_dict, loop_train_noisy_classifier

AB = Alphabet(2)


def uniform_over(texts, D, S):
    w = np.zeros(S**D)
    alpha = Alphabet(S)
    for t in texts:
        w[encode_index(sequence_from_str(t, alpha))] = 1.0
    return TabularDistribution(D, S, w / w.sum())


class TestCleanPredictorFromTable:
    def test_reads_table_in_encode_order(self):
        table = np.linspace(0.05, 0.95, 27)
        clean = CleanPredictor.from_table(table, 3, name="ramp")
        assert clean.name == "ramp"
        assert np.array_equal(clean.table(3, 3), table)
        for i in (0, 5, 26):
            x = TokenSequence(sequence_table(3, 3)[i], Alphabet(3))
            assert clean.likelihood(x) == table[i]
        assert CleanPredictor.from_table(table, 3).name == "clean"


class TestExactMarginalPredictor:
    def test_fully_masked_is_full_marginalization(self):
        gen = RandomSource(1).generator()
        p = TabularDistribution.from_unnormalized(3, 2, gen.random(8) + 0.01)
        clean = CleanPredictor(lambda x: 0.2 + 0.6 * (x.tokens[0] == 1))
        pred = ExactMarginalPredictor(clean, p)
        want = sum(
            p.weights[i] * clean.likelihood(TokenSequence(sequence_table(3, 2)[i], AB))
            for i in range(8)
        )
        got = pred.likelihood(MaskedSequence.fully_masked(3, AB))
        assert got == pytest.approx(want, abs=1e-12)

    def test_constant_clean_stays_constant(self):
        p = TabularDistribution.uniform(2, 3)
        pred = ExactMarginalPredictor(CleanPredictor(lambda x: 0.37), p)
        for text in ("??", "A?", "CB"):
            xt = masked_from_str(text, Alphabet(3))
            assert pred.likelihood(xt) == pytest.approx(0.37, abs=1e-12)

    def test_worked_example(self):
        # p uniform over {AA,AB,BB}, clean = 0.9*1{x=AA} + 0.1, x_t = (A,?)
        p = uniform_over(["AA", "AB", "BB"], 2, 2)
        clean = CleanPredictor(lambda x: 0.9 * (str(x) == "AA") + 0.1)
        pred = ExactMarginalPredictor(clean, p)
        got = pred.likelihood(masked_from_str("A?", AB))
        assert got == pytest.approx(0.5 * 1.0 + 0.5 * 0.1, abs=1e-12)  # 0.55

    def test_clean_input_agrees_with_clean_predictor(self):
        gen = RandomSource(2).generator()
        p = TabularDistribution.from_unnormalized(3, 2, gen.random(8) + 0.01)
        clean = CleanPredictor(lambda x: float(0.05 + 0.9 * x.tokens.mean() / 1.0))
        pred = ExactMarginalPredictor(clean, p)
        for i in range(8):
            x = TokenSequence(sequence_table(3, 2)[i], AB)
            assert pred.likelihood(x.as_masked()) == pytest.approx(clean.likelihood(x), abs=1e-9)

    def test_zero_mass_error_matches_denoiser(self):
        p = uniform_over(["AA"], 2, 2)
        pred = ExactMarginalPredictor(CleanPredictor(lambda x: 0.5), p)
        errors = []
        for evaluate in (pred.likelihood_array, ExactDenoiser(p).posterior_array):
            with pytest.raises(UnsupportedContextError) as exc:
                evaluate(np.array([1, 2]))
            errors.append((str(exc.value), exc.value.positions))
        assert errors[0] == errors[1]
        assert errors[0][1] == (0,)

    def test_matches_brute_force(self):
        gen = RandomSource(3).generator()
        p = TabularDistribution.from_unnormalized(3, 3, gen.random(27) + 0.02)
        clean = CleanPredictor(lambda x: float(0.1 + 0.8 * (x.tokens.sum() % 3 == 0)))
        pred = ExactMarginalPredictor(clean, p)
        pdict = dist_as_dict(p)
        for code in range(64):
            toks = np.array([code % 4, code // 4 % 4, code // 16 % 4])
            want = brute_noisy_likelihood(pdict, lambda x: 0.1 + 0.8 * (sum(x) % 3 == 0), toks, 3, 3)
            assert pred.likelihood_array(toks) == pytest.approx(want, abs=1e-12)

    def test_martingale_under_one_step_refinement(self):
        # law of total expectation: averaging the refined likelihood over the
        # denoiser's token draw returns the coarse likelihood
        gen = RandomSource(4).generator()
        p = TabularDistribution.from_unnormalized(4, 2, gen.random(16) + 0.05)
        den = ExactDenoiser(p)
        clean = CleanPredictor(lambda x: float(0.05 + 0.9 * (x.tokens[0] == x.tokens[3])))
        pred = ExactMarginalPredictor(clean, p)
        for code in range(81):
            toks = np.array([code % 3, code // 3 % 3, code // 9 % 3, code // 27 % 3])
            masked = np.flatnonzero(toks == 2)
            if masked.size == 0:
                continue
            coarse = pred.likelihood_array(toks)
            post = den.posterior_array(toks)
            for d in masked:
                refined = 0.0
                for s in range(2):
                    if post[d, s] == 0:
                        continue
                    nxt = toks.copy()
                    nxt[d] = s
                    refined += post[d, s] * pred.likelihood_array(nxt)
                assert refined == pytest.approx(coarse, abs=1e-9)


class TestPomPredictor:
    def test_fully_unmasked_exact_any_n(self):
        p = TabularDistribution.uniform(2, 2)
        den = ExactDenoiser(p)
        clean = CleanPredictor(lambda x: 0.123 + 0.5 * (x.tokens[0] == 1))
        pred = PomPredictor(clean, den, 1, RandomSource(0))
        x = sequence_from_str("BA", AB)
        assert pred.likelihood(x.as_masked()) == clean.likelihood(x)

    def test_constant_clean(self):
        p = TabularDistribution.uniform(2, 2)
        pred = PomPredictor(CleanPredictor(lambda x: 0.7), ExactDenoiser(p), 5, RandomSource(1))
        assert pred.likelihood(masked_from_str("??", AB)) == pytest.approx(0.7, abs=1e-12)

    def test_converges_to_product_of_marginals_expectation(self):
        gen = RandomSource(5).generator()
        p = TabularDistribution.from_unnormalized(2, 2, gen.random(4) + 0.1)
        den = ExactDenoiser(p)
        clean = CleanPredictor(lambda x: float(0.1 + 0.8 * (x.tokens[0] == x.tokens[1])))
        xt = masked_from_str("??", AB)
        post = den.posterior_array(xt.tokens)
        # exact expectation under the product of the two marginals
        exact = sum(
            post[0, a] * post[1, b] * (0.1 + 0.8 * (a == b))
            for a in range(2)
            for b in range(2)
        )
        n = 40000
        pred = PomPredictor(clean, den, n, RandomSource(6))
        est = pred.likelihood(xt)
        se = 0.5 / math.sqrt(n)  # bounded in [0.1, 0.9]
        assert abs(est - exact) < 3 * se

    def test_rejects_zero_samples(self):
        p = TabularDistribution.uniform(2, 2)
        with pytest.raises(ValueError):
            PomPredictor(CleanPredictor(lambda x: 1.0), ExactDenoiser(p), 0, RandomSource(0))


class TestPairwiseInteractionPredictor:
    def random_model(self, D=3, S=2, link="logistic", seed=7, scale=0.5, pairwise=True):
        gen = RandomSource(seed).generator()
        m = PairwiseInteractionPredictor(D, S, link=link, bias=float(gen.normal(0, 0.3)))
        m.single[:] = gen.normal(0, scale, m.single.shape)
        if pairwise:
            for d in range(D):
                for e in range(d + 1, D):
                    m.pair[d, e] = gen.normal(0, scale, (S + 1, S + 1))
        if link == "exp":
            # keep scores strictly below 0 so the cap is never active
            m.bias -= 5.0 + abs(m.single).sum() + abs(m.pair).sum()
        return m

    def test_gradient_surface_matches_finite_differences(self):
        # central differences of log-likelihood on the relaxed one-hot input
        gen = RandomSource(11).generator()
        for link in ("logistic", "exp"):
            m = self.random_model(link=link, seed=13)
            for _ in range(50):
                toks = gen.integers(0, 3, size=3)
                X = np.zeros((3, 3))
                X[np.arange(3), toks] = 1.0
                g = m.gradient_surface_array(np.asarray(toks))
                h = 1e-6
                for d in range(3):
                    for c in range(3):
                        Xp, Xm = X.copy(), X.copy()
                        Xp[d, c] += h
                        Xm[d, c] -= h
                        fd = (
                            math.log(m.likelihood_relaxed(Xp))
                            - math.log(m.likelihood_relaxed(Xm))
                        ) / (2 * h)
                        assert abs(fd - g[d, c]) <= 1e-5

    def test_exp_link_first_order_expansion_is_exact(self):
        # affine log-likelihood: log ratio equals the gradient inner product
        m = self.random_model(link="exp", seed=17, pairwise=False)
        gen = RandomSource(19).generator()
        for _ in range(100):
            toks = gen.integers(0, 3, size=3)
            masked = np.flatnonzero(toks == 2)
            if masked.size == 0:
                continue
            g = m.gradient_surface_array(toks)
            d = int(masked[0])
            for s in range(2):
                nxt = toks.copy()
                nxt[d] = s
                exact = math.log(m.likelihood_array(nxt)) - math.log(m.likelihood_array(toks))
                taylor = g[d, s] - g[d, 2]
                assert abs(exact - taylor) <= 1e-10

    def test_json_round_trip(self):
        m = self.random_model(seed=23)
        clone = PairwiseInteractionPredictor.from_json(m.to_json())
        toks = np.array([2, 0, 1])
        assert clone.likelihood_array(toks) == m.likelihood_array(toks)
        np.testing.assert_allclose(clone.gradient_surface_array(toks), m.gradient_surface_array(toks))

    def test_likelihood_floor(self):
        m = PairwiseInteractionPredictor(2, 2, link="exp", bias=-1000.0)
        assert m.likelihood_array(np.array([0, 0])) == LIKELIHOOD_FLOOR
        assert (m.child_likelihoods(np.array([0, 2]), 1) == LIKELIHOOD_FLOOR).all()


def full_random_model(D, S, link, seed):
    """Pairwise model with every block random, the ignored d >= e ones too."""
    gen = RandomSource(seed).generator()
    return PairwiseInteractionPredictor(
        D, S, link=link, bias=float(gen.normal(0, 1.0)),
        single=gen.normal(0, 1.0, (D, S + 1)),
        pairwise=gen.normal(0, 0.7, (D, D, S + 1, S + 1)),
    )


def loop_likelihood(m, tokens):
    """Reference: the score accumulated pair by pair in row-major order,
    then the link and the clamp."""
    s = m.bias + float(m.single[np.arange(m.D), tokens].sum())
    for d in range(m.D):
        for e in range(d + 1, m.D):
            s += m.pair[d, e, tokens[d], tokens[e]]
    return clamp_likelihood(float(m._prob_from_score(s)))


def loop_affine_part(m, tokens):
    """Reference: d score / d x_{d,c}, accumulated position by position."""
    A = m.single.copy()
    for d in range(m.D):
        for e in range(m.D):
            if e != d:
                A[d] += m.pair[d, e][:, tokens[e]] if d < e else m.pair[e, d][tokens[e], :]
    return A


class TestBatchedChildScoring:
    """likelihood_array on one or many rows, child_likelihoods and
    _affine_part equal their loop references bit for bit, so the samplers'
    outputs do not depend on which one they use."""

    CASES = [(1, 3), (2, 2), (5, 4), (12, 20)]

    @pytest.mark.parametrize("link", ["logistic", "exp"])
    @pytest.mark.parametrize("D,S", CASES)
    def test_children_equal_scalar_likelihoods(self, link, D, S):
        m = full_random_model(D, S, link, seed=D * 100 + S)
        gen = RandomSource(D + S).generator()
        for trial in range(20):
            toks = gen.integers(0, S + 1, size=D)
            for d in sorted({0, D - 1, int(gen.integers(0, D))}):
                toks[d] = S
                got = m.child_likelihoods(toks, d)
                want = []
                for s in range(S):
                    child = toks.copy()
                    child[d] = s
                    want.append(loop_likelihood(m, child))
                    assert m.likelihood_array(child) == want[-1]
                assert got.shape == (S,)
                assert np.array_equal(got, np.array(want))
                assert ((got >= LIKELIHOOD_FLOOR) & (got <= 1.0)).all()

    @pytest.mark.parametrize("link", ["logistic", "exp"])
    @pytest.mark.parametrize("D,S", CASES)
    def test_row_scores_equal_batch_and_loop(self, link, D, S):
        m = full_random_model(D, S, link, seed=D * 100 + S + 2)
        rows = RandomSource(D + S + 1).generator().integers(0, S + 1, size=(30, D))
        want = np.array([loop_likelihood(m, r) for r in rows])
        assert np.array_equal(m.likelihood_array(rows), want)
        assert np.array_equal(m.score_array(rows), m.score_batch(rows))

    @pytest.mark.parametrize("link", ["logistic", "exp"])
    @pytest.mark.parametrize("D,S", CASES)
    def test_affine_part_equals_loop(self, link, D, S):
        m = full_random_model(D, S, link, seed=D * 100 + S + 1)
        gen = RandomSource(D * S).generator()
        for _ in range(20):
            toks = gen.integers(0, S + 1, size=D)
            assert np.array_equal(m._affine_part(toks), loop_affine_part(m, toks))

    def test_lower_triangle_blocks_ignored(self):
        m = full_random_model(4, 3, "logistic", seed=5)
        kept = PairwiseInteractionPredictor(
            4, 3, bias=m.bias, single=m.single, pairwise=np.triu(
                np.ones((4, 4)), 1)[:, :, None, None] * m.pair,
        )
        toks = np.array([3, 1, 3, 0])
        for d in (0, 2):
            assert np.array_equal(m.child_likelihoods(toks, d), kept.child_likelihoods(toks, d))
        assert np.array_equal(m._affine_part(toks), kept._affine_part(toks))


class TestExactChildLikelihoods:
    """ExactMarginalPredictor.child_likelihoods equals one likelihood_array
    call per child bit for bit, and fails as that call does."""

    @staticmethod
    def model(D, S, seed, weights=None):
        gen = RandomSource(seed).generator()
        if weights is None:
            weights = gen.random(S**D) + 0.05
        p = TabularDistribution.from_unnormalized(D, S, weights)
        clean = CleanPredictor.from_table(gen.uniform(0.0, 1.0, S**D), S)
        return ExactMarginalPredictor(clean, p)

    @staticmethod
    def children(tokens, d, S):
        out = np.repeat(tokens[None, :], S, axis=0)
        out[:, d] = np.arange(S)
        return out

    @pytest.mark.parametrize("S", [2, 3, 4])
    @pytest.mark.parametrize("D", [1, 2, 3, 4, 5, 6])
    def test_equal_to_scalar_calls(self, D, S):
        m = self.model(D, S, seed=10 * D + S)
        gen = RandomSource(D * S).generator()
        for _ in range(15):
            toks = gen.integers(0, S + 1, size=D)
            for d in sorted({0, D // 2, D - 1}):
                toks[d] = S
                got = m.child_likelihoods(toks, d)
                want = [m.likelihood_array(c) for c in self.children(toks, d, S)]
                assert got.shape == (S,) and np.array_equal(got, np.array(want))

    def test_one_masked_children_are_clean_likelihoods(self):
        m = self.model(4, 3, seed=3)
        toks = np.array([2, 0, 3, 1])
        got = m.child_likelihoods(toks, 2)
        clean = [clamp_likelihood(m.clean.likelihood(TokenSequence(c, Alphabet(3))))
                 for c in self.children(toks, 2, 3)]
        assert np.array_equal(got, np.array(clean))
        assert np.array_equal(got, np.array([m.likelihood_array(c) for c in self.children(toks, 2, 3)]))

    def test_zero_mass_child_raises_the_scalar_error(self):
        # no mass where x0 = 1 and x1 = 1: the parent [?, 1, ?] has mass,
        # its child 1 at position 0 has none
        table = sequence_table(3, 2)
        m = self.model(3, 2, seed=4, weights=np.where((table[:, 0] == 1) & (table[:, 1] == 1), 0.0, 1.0))
        parent = np.array([2, 1, 2])
        assert m.likelihood_array(parent) > 0
        with pytest.raises(UnsupportedContextError) as scalar:
            m.likelihood_array(np.array([1, 1, 2]))
        with pytest.raises(UnsupportedContextError) as got:
            m.child_likelihoods(parent, 0)
        assert str(got.value) == str(scalar.value)
        assert got.value.positions == scalar.value.positions == (0, 1)

    def test_zero_mass_parent_names_the_first_child(self):
        # no mass where x2 = 1: the parent [?, ?, 1] has none, and the error
        # names its child 0's observed positions, not the parent's
        table = sequence_table(3, 2)
        m = self.model(3, 2, seed=5, weights=np.where(table[:, 2] == 1, 0.0, 1.0))
        parent = np.array([2, 2, 1])
        with pytest.raises(UnsupportedContextError) as scalar:
            m.likelihood_array(np.array([0, 2, 1]))
        with pytest.raises(UnsupportedContextError) as got:
            m.child_likelihoods(parent, 0)
        assert str(got.value) == str(scalar.value)
        assert got.value.positions == (0, 2)


class TestTrainNoisyClassifier:
    def test_separable_d1_perfect_on_clean(self):
        data = [(sequence_from_str("A", AB), False), (sequence_from_str("B", AB), True)] * 10
        model, _ = train_noisy_classifier(data, RandomSource(31))
        assert model.likelihood_array(np.array([1])) > 0.5
        assert model.likelihood_array(np.array([0])) < 0.5

    @pytest.mark.parametrize("two_stage", [False, True])
    def test_zero_epochs_loss_is_zero(self, two_stage):
        # as train_denoiser(steps=0): no step ran, so the loss is 0.0, not nan
        data = [(sequence_from_str("A", AB), False), (sequence_from_str("B", AB), True)]
        model, loss = train_noisy_classifier(data, RandomSource(0), epochs=0, two_stage=two_stage)
        assert loss == 0.0
        assert model.bias == 0.0 and not model.single.any()

    def test_single_class_rejected(self):
        data = [(sequence_from_str("A", AB), True)]
        with pytest.raises(ValueError):
            train_noisy_classifier(data, RandomSource(0))

    @pytest.mark.parametrize("D, S", [(1, 2), (3, 2), (6, 5)])
    @pytest.mark.parametrize("two_stage", [False, True])
    def test_matches_loop_reference_bit_for_bit(self, D, S, two_stage):
        # np.bincount adds in row order from 0.0, as the per-cell loop does
        gen = RandomSource(D * 10 + S).generator()
        rows = gen.integers(0, S, (30, D))
        y = np.arange(30) % 3 == 0
        labeled = [(TokenSequence(r, Alphabet(S)), bool(v)) for r, v in zip(rows, y)]
        model, loss = train_noisy_classifier(
            labeled, RandomSource(9), epochs=15, two_stage=two_stage
        )
        bias, single, pair, ref_loss = loop_train_noisy_classifier(
            rows, y.astype(float), S, 15, RandomSource(9).generator(), 0.2, 10.0, two_stage
        )
        assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()
        assert model.single.tobytes() == single.tobytes()
        assert model.pair.tobytes() == pair.tobytes()
        assert loss == ref_loss

    @pytest.mark.parametrize("kwargs, name", [
        ({"epochs": -1}, "epochs"),
        ({"lr": 0.0}, "lr"),
        ({"lr": float("nan")}, "lr"),
        ({"l2_pairwise": -1.0}, "l2_pairwise"),
    ])
    def test_bad_argument_is_named_before_any_draw(self, kwargs, name):
        data = [(sequence_from_str("AB", AB), False), (sequence_from_str("BA", AB), True)]
        gen = RandomSource(4).generator()
        with pytest.raises(ValueError, match=name):
            train_noisy_classifier(data, gen, **kwargs)
        assert gen.random() == RandomSource(4).generator().random()

    @pytest.mark.parametrize("other", ["ABA", "AC"])
    def test_mixed_sequences_rejected(self, other):
        alpha = Alphabet(3) if other == "AC" else AB
        data = [(sequence_from_str("AB", AB), False), (sequence_from_str(other, alpha), True)]
        with pytest.raises(ValueError, match="labeled"):
            train_noisy_classifier(data, RandomSource(0))

    def test_planted_signal_auroc(self):
        # plant a linear signal, verify held-out AUROC >= 0.9 on clean inputs
        gen = RandomSource(37).generator()
        D, S = 6, 3
        w = gen.normal(0, 1.0, (D, S))
        table = sequence_table(D, S)

        def label(tokens):
            return w[np.arange(D), tokens].sum() > 0

        train_idx = gen.choice(len(table), size=600, replace=False)
        test_idx = gen.choice(len(table), size=400, replace=False)
        alpha = Alphabet(S)
        data = [(TokenSequence(table[i], alpha), bool(label(table[i]))) for i in train_idx]
        model, _ = train_noisy_classifier(data, RandomSource(38))
        scores = model.likelihood_batch(table[test_idx])
        truth = np.array([label(table[i]) for i in test_idx])
        auroc = stats.rankdata(scores)[truth].mean() - (truth.sum() + 1) / 2
        auroc /= (~truth).sum()
        assert auroc >= 0.9

    def test_two_stage_mode_runs_and_fits(self):
        data = [(sequence_from_str("AA", AB), True), (sequence_from_str("BB", AB), False)] * 5
        model, loss = train_noisy_classifier(data, RandomSource(39), epochs=200, two_stage=True)
        assert model.likelihood_array(np.array([0, 0])) > 0.5
        assert math.isfinite(loss)


class TestThresholdRegressor:
    def make(self, mu, sigma, y_star):
        return ThresholdRegressor(mu=lambda xt: mu, sigma=lambda xt: sigma, y_star=y_star)

    def test_at_threshold_is_half(self):
        reg = self.make(2.0, 1.0, 2.0)
        assert threshold_likelihood(reg, masked_from_str("?", AB)) == pytest.approx(0.5)

    def test_three_sigma_above(self):
        reg = self.make(5.0, 1.0, 2.0)
        got = threshold_likelihood(reg, masked_from_str("?", AB))
        assert got == pytest.approx(0.99865, abs=1e-5)

    def test_large_sigma_limit(self):
        reg = self.make(0.0, 1e12, 3.0)
        assert threshold_likelihood(reg, masked_from_str("?", AB)) == pytest.approx(0.5, abs=1e-9)

    def test_nonpositive_sigma_rejected(self):
        reg = self.make(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            threshold_likelihood(reg, masked_from_str("?", AB))

    def test_predictor_adapter_clamps(self):
        reg = self.make(-1e6, 1.0, 0.0)
        pred = ThresholdPredictor(reg, AB)
        assert pred.likelihood(masked_from_str("?", AB)) == LIKELIHOOD_FLOOR


class TestProductPredictor:
    class Const:
        def __init__(self, c):
            self.c = c

        deterministic = True
        has_gradient_surface = False

        def likelihood_array(self, tokens):
            return self.c

    def test_single_part_identity(self):
        p = ProductPredictor([self.Const(0.42)], S=2)
        assert p.likelihood_array(np.array([0, 2])) == pytest.approx(0.42)

    def test_two_constants_multiply(self):
        p = ProductPredictor([self.Const(0.5), self.Const(0.25)], S=2)
        assert p.likelihood_array(np.array([2, 2])) == pytest.approx(0.125)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProductPredictor([], S=2)

    def test_gradient_surface_sums_when_available(self):
        gen = RandomSource(41).generator()
        a = PairwiseInteractionPredictor(2, 2, link="exp", bias=-3.0)
        b = PairwiseInteractionPredictor(2, 2, link="exp", bias=-2.0)
        a.single[:] = gen.normal(0, 0.1, a.single.shape)
        b.single[:] = gen.normal(0, 0.1, b.single.shape)
        prod = ProductPredictor([a, b], S=2)
        toks = np.array([2, 1])
        np.testing.assert_allclose(
            prod.gradient_surface_array(toks),
            a.gradient_surface_array(toks) + b.gradient_surface_array(toks),
        )

    def test_gradient_absent_when_any_part_lacks_it(self):
        a = PairwiseInteractionPredictor(2, 2, link="exp", bias=-1.0)
        prod = ProductPredictor([a, self.Const(0.5)], S=2)
        assert not prod.has_gradient_surface
        with pytest.raises(CapabilityError):
            prod.gradient_surface_array(np.array([2, 2]))

    def test_staged_part_activates_with_unmasked_fraction(self):
        prod = ProductPredictor([self.Const(0.5), self.Const(0.25)], S=2, switch_fractions=[0.0, 0.6])
        assert prod.likelihood_array(np.array([2, 2])) == pytest.approx(0.5)  # 0% unmasked
        assert prod.likelihood_array(np.array([0, 2])) == pytest.approx(0.5)  # 50%
        assert prod.likelihood_array(np.array([0, 1])) == pytest.approx(0.125)  # 100%


class TestCSV:
    def test_round_trip_bool(self, tmp_path):
        path = tmp_path / "labels.csv"
        seqs = [sequence_from_str("AB", AB), sequence_from_str("BA", AB)]
        save_labeled_csv(path, seqs, [True, False])
        got_seqs, labels, is_bool = load_labeled_csv(path, 2)
        assert got_seqs == seqs and is_bool
        np.testing.assert_array_equal(labels, [True, False])

    def test_real_labels(self, tmp_path):
        path = tmp_path / "labels.csv"
        save_labeled_csv(path, [sequence_from_str("AA", AB)], [1.25])
        _, labels, is_bool = load_labeled_csv(path, 2)
        assert not is_bool and labels[0] == pytest.approx(1.25)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("seq,y\nAB,1\n")
        with pytest.raises(ValueError):
            load_labeled_csv(path, 2)
