import math
import tracemalloc

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
from guidesampler.denoising import (
    ExactDenoiser,
    LogitModifier,
    ModifiedDenoiser,
    ParametricDenoiser,
    softmax_rows,
)
from guidesampler.errors import CapabilityError, SizeCapError, UnsupportedContextError
from guidesampler.predictors import (
    LIKELIHOOD_FLOOR,
    CleanPredictor,
    ExactMarginalPredictor,
    PairwiseInteractionPredictor,
    ProductPredictor,
    clamp_likelihood,
    train_noisy_classifier,
)
from guidesampler.sampling import GuidanceConfig, aoarm_sample_many

from bruteforce import (
    brute_noisy_likelihood,
    child_rows,
    dist_as_dict,
    loop_train_noisy_classifier,
    relaxed_likelihood,
)

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
                            math.log(relaxed_likelihood(m, Xp))
                            - math.log(relaxed_likelihood(m, Xm))
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
        assert (m.likelihood_array(child_rows(np.array([0, 2]), 1, 2)) == LIKELIHOOD_FLOOR).all()


def full_random_model(D, S, link, seed):
    """Pairwise model with every block random, the ignored d >= e ones too."""
    gen = RandomSource(seed).generator()
    return PairwiseInteractionPredictor(
        D, S, link=link, bias=float(gen.normal(0, 1.0)),
        single=gen.normal(0, 1.0, (D, S + 1)),
        pairwise=gen.normal(0, 0.7, (D, D, S + 1, S + 1)),
    )


def loop_score(m, tokens):
    """Reference: the score accumulated pair by pair in row-major order."""
    s = m.bias + float(m.single[np.arange(m.D), tokens].sum())
    for d in range(m.D):
        for e in range(d + 1, m.D):
            s += m.pair[d, e, tokens[d], tokens[e]]
    return s


def loop_likelihood(m, tokens):
    """Reference: the loop score, then the link and the clamp."""
    return clamp_likelihood(float(m._prob_from_score(loop_score(m, tokens))))


def loop_affine_part(m, tokens):
    """Reference: d score / d x_{d,c}, accumulated position by position."""
    A = m.single.copy()
    for d in range(m.D):
        for e in range(m.D):
            if e != d:
                A[d] += m.pair[d, e][:, tokens[e]] if d < e else m.pair[e, d][tokens[e], :]
    return A


class TestBatchedChildScoring:
    """likelihood_array on one or many rows (a position's S children, the
    rows the samplers score at once) and _affine_part equal their loop
    references bit for bit, so the samplers' outputs do not depend on which
    one they use."""

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
                got = m.likelihood_array(child_rows(toks, d, S))
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
        assert np.array_equal(m.score_array(rows), [loop_score(m, r) for r in rows])

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
            children = child_rows(toks, d, 3)
            assert np.array_equal(m.likelihood_array(children), kept.likelihood_array(children))
        assert np.array_equal(m._affine_part(toks), kept._affine_part(toks))


class TestExactChildLikelihoods:
    """ExactMarginalPredictor.likelihood_array on a position's S children,
    the rows the samplers score at once, equals one call per child bit for
    bit, and fails as that call does."""

    @staticmethod
    def model(D, S, seed, weights=None):
        gen = RandomSource(seed).generator()
        if weights is None:
            weights = gen.random(S**D) + 0.05
        p = TabularDistribution.from_unnormalized(D, S, weights)
        clean = CleanPredictor.from_table(gen.uniform(0.0, 1.0, S**D), S)
        return ExactMarginalPredictor(clean, p)

    @pytest.mark.parametrize("S", [2, 3, 4])
    @pytest.mark.parametrize("D", [1, 2, 3, 4, 5, 6])
    def test_equal_to_scalar_calls(self, D, S):
        m = self.model(D, S, seed=10 * D + S)
        gen = RandomSource(D * S).generator()
        for _ in range(15):
            toks = gen.integers(0, S + 1, size=D)
            for d in sorted({0, D // 2, D - 1}):
                toks[d] = S
                got = m.likelihood_array(child_rows(toks, d, S))
                want = [m.likelihood_array(c) for c in child_rows(toks, d, S)]
                assert got.shape == (S,) and np.array_equal(got, np.array(want))

    def test_one_masked_children_are_clean_likelihoods(self):
        m = self.model(4, 3, seed=3)
        toks = np.array([2, 0, 3, 1])
        children = child_rows(toks, 2, 3)
        got = m.likelihood_array(children)
        clean = [clamp_likelihood(m.clean.likelihood(TokenSequence(c, Alphabet(3))))
                 for c in children]
        assert np.array_equal(got, np.array(clean))
        assert np.array_equal(got, np.array([m.likelihood_array(c) for c in children]))

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
            m.likelihood_array(child_rows(parent, 0, 2))
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
            m.likelihood_array(child_rows(parent, 0, 2))
        assert str(got.value) == str(scalar.value)
        assert got.value.positions == (0, 2)


class TestExactRowForm:
    """ExactDenoiser.posterior_array and ExactMarginalPredictor.likelihood_array
    on rows (n, D) equal their single-row calls row by row, bit for bit, and
    fail as the first failing row's call does. Sizes whose (S+1)**D context
    tables exceed the table cap are refused at construction."""

    @staticmethod
    def contexts(D, S):
        """Every context over the mask-extended alphabet, as rows."""
        return np.array(np.meshgrid(*[range(S + 1)] * D, indexing="ij")).reshape(D, -1).T

    @pytest.mark.parametrize("D,S", [(3, 2), (4, 3)])
    def test_rows_equal_single_row_calls(self, D, S):
        m = TestExactChildLikelihoods.model(D, S, seed=D + S)
        den = ExactDenoiser(m.p)
        rows = self.contexts(D, S)
        post, lik = den.posterior_array(rows), m.likelihood_array(rows)
        assert post.shape == (rows.shape[0], D, S) and lik.shape == (rows.shape[0],)
        for k, row in enumerate(rows):
            assert np.array_equal(post[k], den.posterior_array(row))
            assert lik[k] == m.likelihood_array(row)

    @pytest.mark.parametrize("D,S", [(3, 2), (4, 3)])
    def test_one_masked_children_are_exact_clean_values(self, D, S):
        m = TestExactChildLikelihoods.model(D, S, seed=D * S)
        alpha = Alphabet(S)
        for row in self.contexts(D, S):
            if (row == S).sum() == 1:
                d = int(np.flatnonzero(row == S)[0])
                children = child_rows(row, d, S)
                want = [clamp_likelihood(m.clean.likelihood(TokenSequence(c, alpha)))
                        for c in children]
                assert m.likelihood_array(children).tolist() == want

    def test_first_zero_mass_row_raises_its_single_row_error(self):
        # no mass where x0 = 1 and x1 = 1
        table = sequence_table(3, 2)
        m = TestExactChildLikelihoods.model(
            3, 2, seed=4, weights=np.where((table[:, 0] == 1) & (table[:, 1] == 1), 0.0, 1.0))
        den = ExactDenoiser(m.p)
        rows = np.array([[2, 1, 2], [1, 1, 2], [2, 2, 2], [1, 1, 0]])
        for evaluate in (den.posterior_array, m.likelihood_array):
            with pytest.raises(UnsupportedContextError) as single:
                evaluate(rows[1])
            with pytest.raises(UnsupportedContextError) as got:
                evaluate(rows)
            assert str(got.value) == str(single.value)
            assert got.value.positions == single.value.positions == (0, 1)

    def test_tables_over_the_cap_are_refused_at_construction(self):
        # 2**16 sequences pass the cap; 3**16 contexts do not
        p = TabularDistribution.uniform(16, 2)
        for build in (ExactDenoiser, lambda q: ExactMarginalPredictor(
                CleanPredictor(lambda x: 0.5), q)):
            with pytest.raises(SizeCapError, match=r"3\*\*16 = 43046721"):
                build(p)


def loop_posterior(den, tokens):
    """Reference: a parametric posterior of one token array, its logits
    summed over e for each position d, then each observed position's row
    set to its one-hot in place."""
    idx = np.arange(den.D)
    logits = den.single + den.pair[:, idx, tokens, :].sum(axis=1) - den.pair[idx, idx, tokens, :]
    out = softmax_rows(logits)
    for d in range(den.D):
        if tokens[d] != den.S:
            out[d] = 0.0
            out[d, tokens[d]] = 1.0
    return out


class TestParametricRowForm:
    """ParametricDenoiser.posterior_array and
    PairwiseInteractionPredictor.gradient_surface_array on rows (n, D) equal
    their single-row calls row by row, bit for bit, and the any-order
    sampler calls each parametric model once per step."""

    SIZES = [(3, 2), (8, 4), (12, 20)]

    @staticmethod
    def rows(D, S, seed, n=300):
        """n random contexts, the first fully masked, the second clean."""
        rows = RandomSource(seed).generator().integers(0, S + 1, size=(n, D))
        rows[0] = S
        rows[1] %= S
        return rows

    @pytest.mark.parametrize("D,S", SIZES)
    def test_posterior_rows_equal_single_row_calls(self, D, S):
        gen = RandomSource(D * S).generator()
        # self-couplings too, so the subtraction of pair[d, d] is exercised
        den = ParametricDenoiser(D, S, gen.normal(0, 1.0, (D, S)), gen.normal(0, 1.0, (D, D, S + 1, S)))
        rows = self.rows(D, S, D + S)
        post = den.posterior_array(rows)
        assert post.shape == (rows.shape[0], D, S)
        for k, row in enumerate(rows):
            single = den.posterior_array(row)
            assert single.shape == (D, S)
            assert np.array_equal(post[k], single)
            assert np.array_equal(single, loop_posterior(den, row))

    @pytest.mark.parametrize("link", ["logistic", "exp"])
    @pytest.mark.parametrize("D,S", SIZES)
    def test_likelihood_rows_equal_single_row_calls(self, link, D, S):
        m = full_random_model(D, S, link, seed=D * 100 + S + 5)
        rows = self.rows(D, S, D * S + 6)
        for batch in (rows, rows[:30]):
            got = m.likelihood_array(batch)
            assert np.array_equal(m.score_array(batch), [loop_score(m, row) for row in batch])
            assert np.array_equal(got, [m.likelihood_array(row) for row in batch])
            assert np.array_equal(got, [loop_likelihood(m, row) for row in batch])

    @pytest.mark.parametrize("link", ["logistic", "exp"])
    @pytest.mark.parametrize("D,S", SIZES)
    def test_gradient_rows_equal_single_row_calls(self, link, D, S):
        m = full_random_model(D, S, link, seed=D * 100 + S + 3)
        rows = self.rows(D, S, D * S + 4)
        got = m.gradient_surface_array(rows)
        assert got.shape == (rows.shape[0], D, S + 1)
        for k, row in enumerate(rows):
            assert np.array_equal(got[k], m.gradient_surface_array(row))
        scores = m.score_array(rows)
        if link == "logistic":
            # the rows hold scores whose logistic factor np.exp moves in the
            # last bit (numpy's vectorized exp against math.exp, x86-64)
            with_np_exp = (1.0 - 1.0 / (1.0 + np.exp(-scores)))[:, None, None] * m._affine_part(rows)
            assert not np.array_equal(with_np_exp, got)
        else:
            # both sides of the cap at score 0
            assert (scores < 0).any() and (scores >= 0).any()

    @pytest.mark.parametrize("mode,scorer", [("deg", "likelihood_array"),
                                             ("tag", "gradient_surface_array")])
    def test_one_call_per_step(self, mode, scorer, monkeypatch):
        D, S = 6, 5
        den = ParametricDenoiser.random(D, S, RandomSource(60), scale=0.5)
        pred = full_random_model(D, S, "logistic", seed=61)
        calls = {}
        for cls, name in ((ParametricDenoiser, "posterior_array"),
                          (PairwiseInteractionPredictor, "likelihood_array"),
                          (PairwiseInteractionPredictor, "gradient_surface_array")):
            def spy(model, tokens, *positions, _original=cls.__dict__[name], _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                # the kernel passes positions to the two context models
                assert bool(positions) == (_name != "likelihood_array")
                return _original(model, tokens, *positions)
            monkeypatch.setattr(cls, name, spy)
        cfg = GuidanceConfig(mode=mode, gamma=1.0, predictor=pred)
        _, diag = aoarm_sample_many(den, cfg, 50, RandomSource(62))
        assert calls == {"posterior_array": D, scorer: D}
        assert diag.denoiser_evals > D and diag.predictor_evals > D


class TestPairForm:
    """The pair form of every row model: with positions (P,) and context rows
    (P, D), ``posterior_array`` and ``gradient_surface_array`` return the
    (P, S) or (P, S+1) rows of those (context, position) pairs, bit for bit
    the rows of the full form at those positions, one-hot at observed
    positions, and fail as the full form does."""

    SIZES = [(3, 2), (8, 4), (12, 20)]
    #: sizes whose (S+1)**D context table an ExactDenoiser can hold
    EXACT_SIZES = [(3, 2), (8, 4)]

    @staticmethod
    def pairs(D, S, seed, n=300):
        """n random pairs: the first context fully masked, the second
        clean, the rest mixed, so pairs land on masked and observed
        positions alike."""
        rows = TestParametricRowForm.rows(D, S, seed, n)
        return rows, RandomSource(seed + 1).generator().integers(0, D, size=n)

    @staticmethod
    def check(answer, rows, positions):
        """The pair rows of ``answer``, checked against its full form."""
        got = answer(rows, positions)
        full = answer(rows)
        assert got.shape == (rows.shape[0], full.shape[-1])
        assert np.array_equal(got, full[np.arange(rows.shape[0]), positions])
        return got

    @staticmethod
    def check_observed_one_hot(post, rows, positions, S):
        observed = rows[np.arange(rows.shape[0]), positions]
        seen = observed != S
        assert seen.any() and not seen.all()
        assert np.array_equal(post[seen], np.eye(S)[observed[seen]])

    @staticmethod
    def parametric(D, S):
        gen = RandomSource(D * S + 7).generator()
        # self-couplings too, so the subtraction of pair[d, d] is exercised
        return ParametricDenoiser(D, S, gen.normal(0, 1.0, (D, S)),
                                  gen.normal(0, 1.0, (D, D, S + 1, S)))

    @staticmethod
    def modifier(D, S):
        wildtype = TokenSequence(RandomSource(D + S).generator().integers(0, S, size=D), Alphabet(S))
        return LogitModifier(temperature=0.7, wildtype_weight=1.5, wildtype_sequence=wildtype)

    @pytest.mark.parametrize("D,S", SIZES)
    def test_parametric_posterior(self, D, S):
        rows, positions = self.pairs(D, S, D * S)
        post = self.check(self.parametric(D, S).posterior_array, rows, positions)
        self.check_observed_one_hot(post, rows, positions, S)

    @pytest.mark.parametrize("D,S", SIZES)
    def test_modified_parametric_posterior(self, D, S):
        den = ModifiedDenoiser(self.parametric(D, S), self.modifier(D, S))
        rows, positions = self.pairs(D, S, D * S + 1)
        post = self.check(den.posterior_array, rows, positions)
        self.check_observed_one_hot(post, rows, positions, S)

    @pytest.mark.parametrize("D,S", EXACT_SIZES)
    def test_exact_posterior(self, D, S):
        p = TestExactChildLikelihoods.model(D, S, seed=D + S).p
        rows, positions = self.pairs(D, S, D * S + 2)
        for den in (ExactDenoiser(p), ModifiedDenoiser(ExactDenoiser(p), self.modifier(D, S))):
            post = self.check(den.posterior_array, rows, positions)
            self.check_observed_one_hot(post, rows, positions, S)

    @pytest.mark.parametrize("link", ["logistic", "exp"])
    @pytest.mark.parametrize("D,S", SIZES)
    def test_gradient_surface(self, link, D, S):
        m = full_random_model(D, S, link, seed=D * 100 + S + 9)
        rows, positions = self.pairs(D, S, D * S + 3)
        self.check(m.gradient_surface_array, rows, positions)

    def test_unsupported_context_raises_the_full_form_error(self):
        # no mass where x0 = 1 and x1 = 1; row 1 is the first without mass
        table = sequence_table(3, 2)
        p = TestExactChildLikelihoods.model(
            3, 2, seed=4, weights=np.where((table[:, 0] == 1) & (table[:, 1] == 1), 0.0, 1.0)).p
        rows = np.array([[2, 1, 2], [1, 1, 2], [2, 2, 2], [1, 1, 0]])
        positions = np.array([0, 2, 1, 2])
        for den in (ExactDenoiser(p), ModifiedDenoiser(ExactDenoiser(p), LogitModifier(0.5))):
            with pytest.raises(UnsupportedContextError) as full:
                den.posterior_array(rows)
            with pytest.raises(UnsupportedContextError) as got:
                den.posterior_array(rows, positions)
            assert str(got.value) == str(full.value)
            assert got.value.positions == full.value.positions == (0, 1)

    def test_likelihood_rows_keep_small_temporaries(self):
        # a step's children at D=12, S=20, 64 chains; gathering the pair
        # terms of all 66 pairs at once took two (66, 1280) arrays, 1.4 MiB
        m = full_random_model(12, 20, "logistic", seed=77)
        rows = TestParametricRowForm.rows(12, 20, 78, n=1280)
        m.likelihood_array(rows)
        tracemalloc.start()
        try:
            m.likelihood_array(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


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


class TestProductPredictor:
    class Const:
        def __init__(self, c):
            self.c = c

        has_gradient_surface = False

        def likelihood_array(self, tokens):
            return np.full(np.shape(tokens)[:-1], self.c)

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

    SWITCH = [0.3, 0.5, 0.8]

    @classmethod
    def staged(cls, D, S, seed, exact_part):
        """Three parts staged in at unmasked fractions 0.3, 0.5 and 0.8; the
        middle one an exact-marginal table or a pairwise model."""
        middle = (TestExactChildLikelihoods.model(D, S, seed) if exact_part
                  else full_random_model(D, S, "logistic", seed))
        parts = [full_random_model(D, S, "logistic", seed + 1), middle,
                 full_random_model(D, S, "exp", seed + 2)]
        return ProductPredictor(parts, S, switch_fractions=cls.SWITCH)

    @classmethod
    def active(cls, prod, row):
        """The parts active at one token row, in part order."""
        frac = float((row != prod.S).sum() / row.size)
        return [part for part, s in zip(prod.parts, cls.SWITCH) if frac >= s]

    @classmethod
    def loop_surface(cls, prod, row):
        """The parts' single-row surfaces summed in part order, the first
        taken as is; zeros when no part is active."""
        out = np.zeros((row.size, prod.S + 1))
        for j, part in enumerate(cls.active(prod, row)):
            g = part.gradient_surface_array(row)
            out = g if j == 0 else out + g
        return out

    @pytest.mark.parametrize("exact_part", [False, True])
    @pytest.mark.parametrize("D,S", [(3, 2), (8, 4)])
    def test_likelihood_rows_equal_single_row_calls(self, D, S, exact_part):
        prod = self.staged(D, S, D * S + 50, exact_part)
        rows = TestParametricRowForm.rows(D, S, D * S + 51)
        frac = (rows != S).mean(axis=1)
        assert (frac < 0.3).any() and (frac >= 0.8).any()
        got = prod.likelihood_array(rows)
        assert got.shape == (rows.shape[0],)
        for k, row in enumerate(rows):
            val = 1.0
            for part in self.active(prod, row):
                val *= part.likelihood_array(row)
            assert got[k] == clamp_likelihood(val) == prod.likelihood_array(row)
        assert isinstance(prod.likelihood_array(rows[0]), float)

    @pytest.mark.parametrize("D,S", [(3, 2), (8, 4)])
    def test_gradient_surface_rows_equal_single_row_calls(self, D, S):
        prod = self.staged(D, S, D * S + 60, exact_part=False)
        rows, positions = TestPairForm.pairs(D, S, D * S + 61)
        want = [self.loop_surface(prod, row) for row in rows]
        full = prod.gradient_surface_array(rows)
        pairs = prod.gradient_surface_array(rows, positions)
        assert full.shape == (rows.shape[0], D, S + 1) and pairs.shape == (rows.shape[0], S + 1)
        for k, row in enumerate(rows):
            # bytes, so that the sign of a zero counts too
            assert full[k].tobytes() == want[k].tobytes()
            assert prod.gradient_surface_array(row).tobytes() == want[k].tobytes()
            assert pairs[k].tobytes() == want[k][positions[k]].tobytes()
        assert not full[0].any()  # fully masked: no part is active

    class NegativeZero:
        """A surface of -0.0 everywhere, in every form."""

        has_gradient_surface = True

        def gradient_surface_array(self, tokens, positions=None):
            lead = np.shape(tokens) if positions is None else np.shape(positions)
            return np.full(lead + (3,), -0.0)

    def test_first_part_keeps_negative_zeros(self):
        # the first active part's surface is taken as is: 0.0 + (-0.0)
        # would be 0.0. A second active part adds in the usual way.
        prod = ProductPredictor([self.NegativeZero(), self.NegativeZero()], 2,
                                switch_fractions=[0.0, 0.5])
        rows = np.array([[2, 2, 2], [0, 1, 2]])
        full = prod.gradient_surface_array(rows)
        assert np.signbit(full).all()  # -0.0 + -0.0 is -0.0 too
        assert np.signbit(prod.gradient_surface_array(rows, np.array([0, 2]))).all()
        assert np.signbit(prod.gradient_surface_array(rows[0])).all()
