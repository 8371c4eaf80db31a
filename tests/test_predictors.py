import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from guidesampler.core import RandomSource, TabularDistribution, sequence_table
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
from guidesampler.bench import make_landscape, run_posthoc_filter
from guidesampler.sampling import GuidanceConfig, aoarm_sample_many, euler_sample_many, guide_rates

from bruteforce import (
    BAD_ROWS,
    brute_noisy_likelihood,
    child_rows,
    dist_as_dict,
    loop_train_noisy_classifier,
    delta_weights,
    pair_rows,
    relaxed_likelihood,
    row,
)


def one_row(pred, tokens):
    """The likelihood of one token array (D,), from the one-row call."""
    return pred.likelihood_array(tokens[None])[0]


def all_pairs(tokens):
    """The D (context, position) pairs of one token array (D,): the array
    tiled D times, and the positions 0..D-1."""
    return np.tile(tokens, (tokens.size, 1)), np.arange(tokens.size)


def surface(pred, tokens):
    """The (D, S+1) gradient surface of one token array (D,): the rows of
    its D pairs."""
    return pred.gradient_surface_array(*all_pairs(tokens))


def uniform_over(texts, D, S):
    w = sum(delta_weights(t, S) for t in texts)
    return TabularDistribution(D, S, w / w.sum())


class TestCleanPredictorFromTable:
    def test_reads_table_in_encode_order(self):
        table = np.linspace(0.05, 0.95, 27)
        clean = CleanPredictor.from_table(table, 3)
        assert np.array_equal(clean.table(3, 3), table)
        for i in (0, 5, 26):
            assert clean.likelihood(sequence_table(3, 3)[i]) == table[i]

    @pytest.mark.parametrize("answer, shape", [
        (lambda rows: 0.5, r"\(\)"),
        (lambda rows: np.full((rows.shape[0], 1), 0.5), r"\(4, 1\)"),
        (lambda rows: np.full(rows.shape[0] - 1, 0.5), r"\(3,\)"),
    ], ids=["scalar", "column", "short"])
    def test_table_refuses_a_batch_answer_of_another_shape(self, answer, shape):
        # once a scalar passed here and failed later with "cannot reshape"
        clean = CleanPredictor(lambda x: 0.5, batch_fn=answer)
        with pytest.raises(ValueError, match=f"answered shape {shape} for 4 rows"):
            clean.table(2, 2)


class TestClampLikelihood:
    VALUES = [0.0, 5e-13, 1e-12, 0.3, 1.0, 1.5, -0.2]

    def test_clamps_into_floor_and_one(self):
        got = clamp_likelihood(np.array(self.VALUES))
        F = LIKELIHOOD_FLOOR
        assert got.tolist() == [F, F, 1e-12, 0.3, 1.0, 1.0, F]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_raises(self, bad):
        for value in (np.array([bad]), np.array([0.5, bad])):
            with pytest.raises(ValueError, match="non-finite likelihood"):
                clamp_likelihood(value)


class TestExactMarginalPredictor:
    def test_fully_masked_is_full_marginalization(self):
        gen = RandomSource(1).generator()
        p = TabularDistribution.from_unnormalized(3, 2, gen.random(8) + 0.01)
        clean = CleanPredictor(lambda x: 0.2 + 0.6 * (x[0] == 1))
        pred = ExactMarginalPredictor(clean, p)
        want = sum(
            p.weights[i] * clean.likelihood(sequence_table(3, 2)[i])
            for i in range(8)
        )
        got = one_row(pred, np.full(3, 2))
        assert got == pytest.approx(want, abs=1e-12)

    def test_constant_clean_stays_constant(self):
        p = TabularDistribution.uniform(2, 3)
        pred = ExactMarginalPredictor(CleanPredictor(lambda x: 0.37), p)
        for text in ("??", "A?", "CB"):
            assert one_row(pred, row(text, 3)) == pytest.approx(0.37, abs=1e-12)

    def test_worked_example(self):
        # p uniform over {AA,AB,BB}, clean = 0.9*1{x=AA} + 0.1, x_t = (A,?)
        p = uniform_over(["AA", "AB", "BB"], 2, 2)
        clean = CleanPredictor(lambda x: 0.9 * (x.tolist() == [0, 0]) + 0.1)
        pred = ExactMarginalPredictor(clean, p)
        got = one_row(pred, row("A?", 2))
        assert got == pytest.approx(0.5 * 1.0 + 0.5 * 0.1, abs=1e-12)  # 0.55

    def test_clean_input_agrees_with_clean_predictor(self):
        gen = RandomSource(2).generator()
        p = TabularDistribution.from_unnormalized(3, 2, gen.random(8) + 0.01)
        clean = CleanPredictor(lambda x: float(0.05 + 0.9 * x.mean() / 1.0))
        pred = ExactMarginalPredictor(clean, p)
        for i in range(8):
            x = sequence_table(3, 2)[i]
            assert one_row(pred, x) == pytest.approx(clean.likelihood(x), abs=1e-9)

    def test_zero_mass_error_matches_denoiser(self):
        p = uniform_over(["AA"], 2, 2)
        pred = ExactMarginalPredictor(CleanPredictor(lambda x: 0.5), p)
        errors = []
        for evaluate in (pred.likelihood_array, ExactDenoiser(p).posterior_array):
            with pytest.raises(UnsupportedContextError) as exc:
                evaluate(np.array([[1, 2]]))
            errors.append((str(exc.value), exc.value.positions))
        assert errors[0] == errors[1]
        assert errors[0][1] == (0,)

    def test_matches_brute_force(self):
        gen = RandomSource(3).generator()
        p = TabularDistribution.from_unnormalized(3, 3, gen.random(27) + 0.02)
        clean = CleanPredictor(lambda x: float(0.1 + 0.8 * (x.sum() % 3 == 0)))
        pred = ExactMarginalPredictor(clean, p)
        pdict = dist_as_dict(p)
        for code in range(64):
            toks = np.array([code % 4, code // 4 % 4, code // 16 % 4])
            want = brute_noisy_likelihood(pdict, lambda x: 0.1 + 0.8 * (sum(x) % 3 == 0), toks, 3, 3)
            assert one_row(pred, toks) == pytest.approx(want, abs=1e-12)

    def test_martingale_under_one_step_refinement(self):
        # law of total expectation: averaging the refined likelihood over the
        # denoiser's token draw returns the coarse likelihood
        gen = RandomSource(4).generator()
        p = TabularDistribution.from_unnormalized(4, 2, gen.random(16) + 0.05)
        den = ExactDenoiser(p)
        clean = CleanPredictor(lambda x: float(0.05 + 0.9 * (x[0] == x[3])))
        pred = ExactMarginalPredictor(clean, p)
        for code in range(81):
            toks = np.array([code % 3, code // 3 % 3, code // 9 % 3, code // 27 % 3])
            masked = np.flatnonzero(toks == 2)
            if masked.size == 0:
                continue
            coarse = one_row(pred, toks)
            post = den.posterior_array(toks)
            for d in masked:
                refined = 0.0
                for s in range(2):
                    if post[d, s] == 0:
                        continue
                    nxt = toks.copy()
                    nxt[d] = s
                    refined += post[d, s] * one_row(pred, nxt)
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
                g = surface(m, toks)
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
            g = surface(m, toks)
            d = int(masked[0])
            for s in range(2):
                nxt = toks.copy()
                nxt[d] = s
                exact = math.log(one_row(m, nxt)) - math.log(one_row(m, toks))
                taylor = g[d, s] - g[d, 2]
                assert abs(exact - taylor) <= 1e-10

    def test_json_round_trip(self):
        m = self.random_model(seed=23)
        clone = PairwiseInteractionPredictor.from_json(m.to_json())
        toks = np.array([2, 0, 1])
        assert one_row(clone, toks) == one_row(m, toks)
        np.testing.assert_allclose(surface(clone, toks), surface(m, toks))

    @pytest.mark.parametrize("link", ["logistic", "exp"])
    def test_json_round_trip_is_bit_for_bit(self, link):
        m = self.random_model(D=4, S=3, link=link, seed=24)
        m.single[1, 2], m.single[3, 0] = -np.inf, -0.0
        m.pair[0, 3, 1, 2], m.pair[1, 2, 3, 3] = -np.inf, -0.0
        obj = json.loads(json.dumps(m.to_json()))
        assert obj["single_site"]["shape"] == [4, 4]
        clone = PairwiseInteractionPredictor.from_json(obj)
        assert (clone.link, clone.bias) == (m.link, m.bias)
        for table in ("single", "pair"):
            got, want = getattr(clone, table), getattr(m, table)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert got.flags.writeable and got.flags.owndata

    def test_nan_bias_is_refused(self):
        obj = {**self.random_model().to_json(), "bias": float("nan")}
        with pytest.raises(ValueError, match="bias is NaN"):
            PairwiseInteractionPredictor.from_json(obj)

    def test_likelihood_floor(self):
        m = PairwiseInteractionPredictor(2, 2, link="exp", bias=-1000.0)
        assert one_row(m, np.array([0, 0])) == LIKELIHOOD_FLOOR
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
    return min(max(float(m._prob_from_score(loop_score(m, tokens))), LIKELIHOOD_FLOOR), 1.0)


def loop_affine_part(m, tokens):
    """Reference: d score / d x_{d,c}, accumulated position by position."""
    A = m.single.copy()
    for d in range(m.D):
        for e in range(m.D):
            if e != d:
                A[d] += m.pair[d, e][:, tokens[e]] if d < e else m.pair[e, d][tokens[e], :]
    return A


def loop_surface(m, tokens):
    """Reference: the (D, S+1) gradient surface of one token array, the loop
    affine part times the link's factor of the loop score."""
    A, score = loop_affine_part(m, tokens), loop_score(m, tokens)
    if m.link == "logistic":
        return (1.0 - 1.0 / (1.0 + math.exp(-score))) * A
    return A if score < 0 else np.zeros_like(A)


class TestBatchedChildScoring:
    """likelihood_array on one or many rows (a position's S children as
    rows) and _affine_part on the pairs of a context equal their loop
    references bit for bit, so an answer does not depend on how a call
    batches its rows."""

    CASES = [(1, 3), (2, 2), (5, 4), (12, 20)]

    @pytest.mark.parametrize("link", ["logistic", "exp"])
    @pytest.mark.parametrize("D,S", CASES)
    def test_children_equal_one_row_likelihoods(self, link, D, S):
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
                    assert one_row(m, child) == want[-1]
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
            assert np.array_equal(m._affine_part(*all_pairs(toks)), loop_affine_part(m, toks))

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
        assert np.array_equal(m._affine_part(*all_pairs(toks)), kept._affine_part(*all_pairs(toks)))


class TestExactChildLikelihoods:
    """ExactMarginalPredictor.likelihood_array on a position's S children
    as rows equals one one-row call per child bit for bit, and fails as
    that call does."""

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
    def test_equal_to_one_row_calls(self, D, S):
        m = self.model(D, S, seed=10 * D + S)
        gen = RandomSource(D * S).generator()
        for _ in range(15):
            toks = gen.integers(0, S + 1, size=D)
            for d in sorted({0, D // 2, D - 1}):
                toks[d] = S
                got = m.likelihood_array(child_rows(toks, d, S))
                want = [one_row(m, c) for c in child_rows(toks, d, S)]
                assert got.shape == (S,) and np.array_equal(got, np.array(want))

    def test_one_masked_children_are_clean_likelihoods(self):
        m = self.model(4, 3, seed=3)
        toks = np.array([2, 0, 3, 1])
        children = child_rows(toks, 2, 3)
        got = m.likelihood_array(children)
        clean = clamp_likelihood(np.array([m.clean.likelihood(c) for c in children]))
        assert np.array_equal(got, clean)
        assert np.array_equal(got, np.array([one_row(m, c) for c in children]))

    def test_zero_mass_child_raises_the_one_row_error(self):
        # no mass where x0 = 1 and x1 = 1: the parent [?, 1, ?] has mass,
        # its child 1 at position 0 has none
        table = sequence_table(3, 2)
        m = self.model(3, 2, seed=4, weights=np.where((table[:, 0] == 1) & (table[:, 1] == 1), 0.0, 1.0))
        parent = np.array([2, 1, 2])
        assert one_row(m, parent) > 0
        with pytest.raises(UnsupportedContextError) as scalar:
            m.likelihood_array(np.array([[1, 1, 2]]))
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
            m.likelihood_array(np.array([[0, 2, 1]]))
        with pytest.raises(UnsupportedContextError) as got:
            m.likelihood_array(child_rows(parent, 0, 2))
        assert str(got.value) == str(scalar.value)
        assert got.value.positions == (0, 2)


class TestExactRowForm:
    """ExactDenoiser.posterior_array and ExactMarginalPredictor.likelihood_array
    on rows (n, D) equal their calls on each row alone, bit for bit, and
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
            assert lik[k] == m.likelihood_array(rows[k:k + 1])[0]

    @pytest.mark.parametrize("D,S", [(3, 2), (4, 3)])
    def test_one_masked_children_are_exact_clean_values(self, D, S):
        m = TestExactChildLikelihoods.model(D, S, seed=D * S)
        for row in self.contexts(D, S):
            if (row == S).sum() == 1:
                d = int(np.flatnonzero(row == S)[0])
                children = child_rows(row, d, S)
                want = clamp_likelihood(np.array([m.clean.likelihood(c) for c in children]))
                assert np.array_equal(m.likelihood_array(children), want)

    def test_first_zero_mass_row_raises_its_single_row_error(self):
        # no mass where x0 = 1 and x1 = 1
        table = sequence_table(3, 2)
        m = TestExactChildLikelihoods.model(
            3, 2, seed=4, weights=np.where((table[:, 0] == 1) & (table[:, 1] == 1), 0.0, 1.0))
        den = ExactDenoiser(m.p)
        rows = np.array([[2, 1, 2], [1, 1, 2], [2, 2, 2], [1, 1, 0]])
        for evaluate in (den.posterior_array, m.likelihood_array):
            with pytest.raises(UnsupportedContextError) as single:
                evaluate(rows[1:2])
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
    PairwiseInteractionPredictor.likelihood_array on rows (n, D), and
    PairwiseInteractionPredictor.gradient_surface_array on pairs, equal
    their calls on each row or pair alone, bit for bit; the any-order
    sampler calls each parametric model once per step, and every sampler
    calls predictors only in the contract's shapes."""

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
            assert np.array_equal(got, [m.likelihood_array(batch[k:k + 1])[0]
                                        for k in range(batch.shape[0])])
            assert np.array_equal(got, [loop_likelihood(m, row) for row in batch])

    @pytest.mark.parametrize("link", ["logistic", "exp"])
    @pytest.mark.parametrize("D,S", SIZES)
    def test_gradient_pairs_equal_one_pair_calls(self, link, D, S):
        m = full_random_model(D, S, link, seed=D * 100 + S + 3)
        rows, positions = TestPairForm.pairs(D, S, D * S + 4)
        got = m.gradient_surface_array(rows, positions)
        assert got.shape == (rows.shape[0], S + 1)
        for k in range(rows.shape[0]):
            one = m.gradient_surface_array(rows[k:k + 1], positions[k:k + 1])
            assert np.array_equal(got[k], one[0])
        scores = m.score_array(rows)
        if link == "logistic":
            # the rows hold scores whose logistic factor np.exp moves in the
            # last bit (numpy's vectorized exp against math.exp, x86-64)
            affine = m._affine_part(rows, positions)
            with_np_exp = (1.0 - 1.0 / (1.0 + np.exp(-scores)))[:, None] * affine
            assert not np.array_equal(with_np_exp, got)
        else:
            # both sides of the cap at score 0
            assert (scores < 0).any() and (scores >= 0).any()

    @staticmethod
    def spy_calls(monkeypatch) -> dict:
        """Count the calls of the parametric models' methods, by name, and
        assert the shapes the samplers and the filter call them in: token
        rows (n, D) always, the positions (P,) of the pairs beside every
        sampler call, and no positions beside the filter's
        ``likelihood_batch`` call on clean rows."""
        calls = {}
        for cls, name in ((ParametricDenoiser, "posterior_array"),
                          (PairwiseInteractionPredictor, "likelihood_array"),
                          (PairwiseInteractionPredictor, "likelihood_batch"),
                          (PairwiseInteractionPredictor, "gradient_surface_array")):
            def spy(model, tokens, *positions, _original=cls.__dict__[name], _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                assert tokens.ndim == 2
                if _name == "likelihood_batch":
                    assert not positions
                else:
                    assert [p.shape for p in positions] == [tokens.shape[:1]]
                return _original(model, tokens, *positions)
            monkeypatch.setattr(cls, name, spy)
        return calls

    @pytest.mark.parametrize("mode,scorer", [("deg", "likelihood_array"),
                                             ("tag", "gradient_surface_array")])
    def test_one_call_per_step(self, mode, scorer, monkeypatch):
        D, S = 6, 5
        den = ParametricDenoiser.random(D, S, RandomSource(60), scale=0.5)
        pred = full_random_model(D, S, "logistic", seed=61)
        calls = self.spy_calls(monkeypatch)
        cfg = GuidanceConfig(mode=mode, gamma=1.0, predictor=pred)
        _, diag = aoarm_sample_many(den, cfg, 50, RandomSource(62))
        assert calls == {"posterior_array": D, scorer: D}
        assert diag.denoiser_evals > D and diag.predictor_evals > D

    @pytest.mark.parametrize("driver,mode,scorer", [
        ("euler", "exact", "likelihood_array"), ("euler", "tag", "gradient_surface_array"),
        ("guide_rates", "exact", "likelihood_array"),
        ("guide_rates", "tag", "gradient_surface_array"),
        ("filter", "none", "likelihood_batch"),
    ])
    def test_predictor_calls_take_the_contract_shapes(self, driver, mode, scorer, monkeypatch):
        D, S = 4, 3
        den = ParametricDenoiser.random(D, S, RandomSource(63), scale=0.5)
        pred = full_random_model(D, S, "logistic", seed=64)
        calls = self.spy_calls(monkeypatch)
        cfg = GuidanceConfig(mode=mode, gamma=1.0, predictor=pred)
        if driver == "euler":
            euler_sample_many(den, cfg, 0.05, 20, RandomSource(65))
        elif driver == "guide_rates":
            guide_rates(den, np.array([S, 0, S, S]), 0.5, cfg)
        else:
            land = make_landscape({"D": D, "S": S, "target": {"kind": "quantile", "q": 0.1}},
                                  RandomSource(66))
            run_posthoc_filter(den, pred, land, 20, 5, RandomSource(67))
        assert calls.keys() == {"posterior_array", scorer}


class TestPairForm:
    """The pair form: with positions (P,) and context rows (P, D), a
    denoiser's ``posterior_array`` returns the (P, S) rows of those
    (context, position) pairs, bit for bit the rows of its full form at
    those positions, one-hot at observed positions, and fails as the full
    form does; a predictor's ``gradient_surface_array`` returns their
    (P, S+1) rows, bit for bit the loop reference."""

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
        wildtype = RandomSource(D + S).generator().integers(0, S, size=D)
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
        want = np.array([loop_surface(m, row)[d] for row, d in zip(rows, positions)])
        assert m.gradient_surface_array(rows, positions).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("n", [1, 2, 1280])
    def test_scores_add_pair_terms_in_loop_order(self, n):
        # 66 pair terms: one reduce over the (pairs + 1, n) buffer adds them
        # in order for n >= 2, but sums one column pairwise, so n = 1 is
        # its own case; 1,280 rows take many chunks
        m = full_random_model(12, 20, "logistic", seed=79)
        rows = RandomSource(80).generator().integers(0, 21, size=(n, 12))
        want = np.array([loop_score(m, row) for row in rows])
        assert m.score_array(rows).tobytes() == want.tobytes()
        assert m.score_array(rows[:1]).tobytes() == want[:1].tobytes()

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32])
    def test_scores_of_narrow_token_dtypes(self, dtype):
        # the gathers write int64 cell indices, whatever the tokens' dtype
        m = full_random_model(5, 4, "logistic", seed=81)
        rows = RandomSource(82).generator().integers(0, 5, size=(40, 5))
        assert m.score_array(rows.astype(dtype)).tobytes() == m.score_array(rows).tobytes()
        assert m.score_array(rows[:1].astype(dtype)).tobytes() == m.score_array(rows[:1]).tobytes()

    def test_likelihood_rows_keep_small_temporaries(self):
        # 1,280 rows at D=12, S=20 (64 pairs' children as rows); gathering the pair
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


class TestLikelihoodPairForm:
    """``likelihood_array`` with positions (P,): entry [j, s] is, byte for
    byte, the one-row call on ``rows[j]`` with position ``positions[j]`` set
    to s, for every predictor class. A row without mass is NaN there, where
    its one-row call raises."""

    @staticmethod
    def pairs(D, S, seed, n):
        """n random contexts, with one random position each, masked in
        every other pair and observed in the rest."""
        gen = RandomSource(seed).generator()
        rows = gen.integers(0, S + 1, size=(n, D))
        positions = gen.integers(0, D, size=n)
        rows[np.arange(0, n, 2), positions[::2]] = S
        return rows, positions

    @staticmethod
    def one_row_calls(pred, rows, positions, S):
        """The (P, S+1) one-row answers of each pair's rows."""
        return np.array([[one_row(pred, r) for r in rs] for rs in pair_rows(rows, positions, S)])

    def check(self, pred, rows, positions, S):
        got = pred.likelihood_array(rows, positions)
        assert got.shape == (positions.size, S + 1)
        assert got.tobytes() == self.one_row_calls(pred, rows, positions, S).tobytes()
        return got

    @pytest.mark.parametrize("P", [1, 64])
    @pytest.mark.parametrize("link", ["logistic", "exp"])
    @pytest.mark.parametrize("D,S", [(1, 2), (2, 3), (5, 4), (12, 20)])
    def test_pairwise(self, link, D, S, P):
        m = full_random_model(D, S, link, seed=D * 100 + S + 11)
        rows, positions = self.pairs(D, S, D * S + P, P)
        got = self.check(m, rows, positions, S)
        assert ((got >= LIKELIHOOD_FLOOR) & (got <= 1.0)).all()

    def test_pairwise_chunks(self):
        # 300 pairs at D=12, S=20 take four chunks of the term buffer
        m = full_random_model(12, 20, "logistic", seed=12)
        self.check(m, *self.pairs(12, 20, 13, 300), 20)

    @pytest.mark.parametrize("D,S", [(1, 3), (3, 2), (4, 3)])
    def test_exact_marginal(self, D, S):
        m = TestExactChildLikelihoods.model(D, S, seed=D * S + 14)
        self.check(m, *self.pairs(D, S, D + S, 64), S)

    def test_exact_marginal_nan_without_mass(self):
        # no mass where x0 = 1 and x1 = 1: pair ([?, 1, ?], 0) has its child
        # 1 without mass, and pair ([1, 1, ?], 2) itself, but not its clean
        # children
        table = sequence_table(3, 2)
        m = TestExactChildLikelihoods.model(
            3, 2, seed=4, weights=np.where((table[:, 0] == 1) & (table[:, 1] == 1), 0.0, 1.0))
        rows, positions = np.array([[2, 1, 2], [1, 1, 2], [2, 2, 2]]), np.array([0, 2, 2])
        got = m.likelihood_array(rows, positions)
        empty = np.array([[False, True, False], [False, False, True], [False, False, False]])
        assert np.array_equal(np.isnan(got), empty)
        children = pair_rows(rows, positions, 2)
        for child in children[empty]:
            with pytest.raises(UnsupportedContextError):
                one_row(m, child)
        want = np.array([one_row(m, c) for c in children[~empty]])
        assert got[~empty].tobytes() == want.tobytes()

    @pytest.mark.parametrize("exact_part", [False, True])
    @pytest.mark.parametrize("D,S", [(3, 2), (5, 4)])
    def test_product(self, D, S, exact_part):
        prod = TestProductPredictor.product(D, S, D * S + 70, exact_part)
        self.check(prod, *self.pairs(D, S, D * S + 71, 64), S)

    def test_product_keeps_nan_without_mass(self):
        table = sequence_table(3, 2)
        exact = TestExactChildLikelihoods.model(
            3, 2, seed=4, weights=np.where((table[:, 0] == 1) & (table[:, 1] == 1), 0.0, 1.0))
        prod = ProductPredictor([full_random_model(3, 2, "logistic", seed=15), exact])
        rows, positions = np.array([[2, 1, 2]]), np.array([0])
        got = prod.likelihood_array(rows, positions)
        assert np.isnan(got[0, 1]) and not np.isnan(got[0, [0, 2]]).any()
        assert got[0, 0] == one_row(prod, np.array([0, 1, 2]))
        assert got[0, 2] == one_row(prod, rows[0])
        with pytest.raises(UnsupportedContextError):
            one_row(prod, np.array([1, 1, 2]))


class TestTrainNoisyClassifier:
    def test_separable_d1_perfect_on_clean(self):
        rows = np.array([[0], [1]] * 10)
        model, _ = train_noisy_classifier(rows, rows[:, 0] == 1, 2, RandomSource(31))
        positive, negative = model.likelihood_array(np.array([[1], [0]]))
        assert positive > 0.5 > negative

    def test_zero_epochs_loss_is_zero(self):
        # as train_denoiser(steps=0): no step ran, so the loss is 0.0, not nan
        model, loss = train_noisy_classifier(
            np.array([[0], [1]]), np.array([False, True]), 2, RandomSource(0), epochs=0
        )
        assert loss == 0.0
        assert model.bias == 0.0 and not model.single.any()

    #: the default step and penalty, and a larger step with no penalty
    RATES = [(0.2, 10.0), (0.7, 0.0)]

    @staticmethod
    def assert_matches_loop_reference(rows, y, S, lr, l2_pairwise):
        model, loss = train_noisy_classifier(
            rows, y, S, RandomSource(9), epochs=15, lr=lr, l2_pairwise=l2_pairwise
        )
        bias, single, pair, ref_loss = loop_train_noisy_classifier(
            rows, y.astype(float), S, 15, RandomSource(9).generator(), lr, l2_pairwise
        )
        assert np.float64(model.bias).tobytes() == np.float64(bias).tobytes()
        assert model.single.tobytes() == single.tobytes()
        assert model.pair.tobytes() == pair.tobytes()
        assert loss == ref_loss

    @pytest.mark.parametrize("D, S", [(1, 2), (3, 2), (6, 5), (4, 8), (3, 20)])
    @pytest.mark.parametrize("lr, l2_pairwise", RATES)
    def test_matches_loop_reference_bit_for_bit(self, D, S, lr, l2_pairwise):
        # np.bincount adds in row order from 0.0, as the per-cell loop does
        gen = RandomSource(D * 10 + S).generator()
        rows = gen.integers(0, S, (30, D))
        self.assert_matches_loop_reference(rows, np.arange(30) % 3 == 0, S, lr, l2_pairwise)

    @pytest.mark.parametrize("lr, l2_pairwise", RATES)
    def test_two_rows_match_loop_reference_bit_for_bit(self, lr, l2_pairwise):
        # the fewest rows training takes, one per label: the scores' reduce
        # over (pairs + 1, 2) must still add the 15 pair terms in order
        rows = RandomSource(11).generator().integers(0, 4, (2, 6))
        self.assert_matches_loop_reference(rows, np.array([True, False]), 4, lr, l2_pairwise)

    @pytest.mark.parametrize("kwargs, name", [
        ({"epochs": -1}, "epochs"),
        ({"lr": 0.0}, "lr"),
        ({"lr": -1.0}, "lr"),
        ({"lr": float("nan")}, "lr"),
        ({"l2_pairwise": -1.0}, "l2_pairwise"),
        ({"l2_pairwise": float("nan")}, "l2_pairwise"),
    ])
    def test_bad_argument_is_named_before_any_draw(self, kwargs, name):
        gen = RandomSource(4).generator()
        with pytest.raises(ValueError, match=name):
            train_noisy_classifier(np.array([[0, 1], [1, 0]]), np.array([False, True]), 2, gen,
                                   **kwargs)
        assert gen.random() == RandomSource(4).generator().random()

    @pytest.mark.parametrize("rows, labels, message", [
        *((rows, np.arange(len(rows)) % 2 == 0, message) for rows, message in BAD_ROWS),
        (np.array([[0, 1], [1, 0]]), np.array([False, True, True]), "one entry per row"),
        (np.array([[0, 1], [1, 0]]), np.array([True, True]), "one positive and one negative"),
        (np.array([[0, 1], [1, 0]]), np.array([False, False]), "one positive and one negative"),
    ])
    def test_bad_data_refused_before_any_draw(self, rows, labels, message):
        gen = RandomSource(4).generator()
        with pytest.raises(ValueError, match=message):
            train_noisy_classifier(rows, labels, 2, gen)
        assert gen.random() == RandomSource(4).generator().random()

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
        data = table[train_idx]
        model, _ = train_noisy_classifier(data, [label(x) for x in data], S, RandomSource(38))
        scores = model.likelihood_batch(table[test_idx])
        truth = np.array([label(table[i]) for i in test_idx])
        auroc = stats.rankdata(scores)[truth].mean() - (truth.sum() + 1) / 2
        auroc /= (~truth).sum()
        assert auroc >= 0.9


class TestProductPredictor:
    class Const:
        """Likelihood ``c`` everywhere, over S=2 symbols."""

        def __init__(self, c):
            self.c = c

        has_gradient_surface = False

        def likelihood_array(self, tokens, positions=None):
            return np.full(tokens.shape[:1] if positions is None else (positions.size, 3), self.c)

    def test_single_part_identity(self):
        p = ProductPredictor([self.Const(0.42)])
        assert p.likelihood_array(np.array([[0, 2]])) == pytest.approx([0.42])

    def test_two_constants_multiply(self):
        p = ProductPredictor([self.Const(0.5), self.Const(0.25)])
        assert p.likelihood_array(np.array([[2, 2]])) == pytest.approx([0.125])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProductPredictor([])

    def test_gradient_surface_sums_when_available(self):
        gen = RandomSource(41).generator()
        a = PairwiseInteractionPredictor(2, 2, link="exp", bias=-3.0)
        b = PairwiseInteractionPredictor(2, 2, link="exp", bias=-2.0)
        a.single[:] = gen.normal(0, 0.1, a.single.shape)
        b.single[:] = gen.normal(0, 0.1, b.single.shape)
        prod = ProductPredictor([a, b])
        toks = np.array([2, 1])
        np.testing.assert_allclose(surface(prod, toks), surface(a, toks) + surface(b, toks))

    def test_every_part_answers_every_row_once_in_part_order(self):
        # masked rows included: no part waits for a share of unmasked sites
        calls = []

        class Recording(self.Const):
            def likelihood_array(self, tokens, positions=None):
                calls.append((self.c, np.array(tokens)))
                return super().likelihood_array(tokens, positions)

        prod = ProductPredictor([Recording(0.5), Recording(0.25)])
        rows = np.array([[2, 2], [0, 2], [0, 1]])
        assert np.array_equal(prod.likelihood_array(rows), np.full(3, 0.125))
        assert [c for c, _ in calls] == [0.5, 0.25]
        assert all(np.array_equal(asked, rows) for _, asked in calls)

    def test_gradient_absent_when_any_part_lacks_it(self):
        a = PairwiseInteractionPredictor(2, 2, link="exp", bias=-1.0)
        prod = ProductPredictor([a, self.Const(0.5)])
        assert not prod.has_gradient_surface
        with pytest.raises(CapabilityError):
            prod.gradient_surface_array(np.array([[2, 2]]), np.array([0]))

    @staticmethod
    def product(D, S, seed, exact_part):
        """Three parts, the middle one an exact-marginal table or a pairwise
        model."""
        middle = (TestExactChildLikelihoods.model(D, S, seed) if exact_part
                  else full_random_model(D, S, "logistic", seed))
        parts = [full_random_model(D, S, "logistic", seed + 1), middle,
                 full_random_model(D, S, "exp", seed + 2)]
        return ProductPredictor(parts)

    @staticmethod
    def loop_surface(prod, rows, positions):
        """The parts' surfaces of one pair, ``rows`` (1, D) and
        ``positions`` (1,), summed in part order, the first taken as is."""
        out = prod.parts[0].gradient_surface_array(rows, positions)[0]
        for part in prod.parts[1:]:
            out = out + part.gradient_surface_array(rows, positions)[0]
        return out

    @pytest.mark.parametrize("exact_part", [False, True])
    @pytest.mark.parametrize("D,S", [(3, 2), (8, 4)])
    def test_likelihood_rows_equal_single_row_calls(self, D, S, exact_part):
        prod = self.product(D, S, D * S + 50, exact_part)
        rows = TestParametricRowForm.rows(D, S, D * S + 51)
        got = prod.likelihood_array(rows)
        assert got.shape == (rows.shape[0],)
        for k in range(rows.shape[0]):
            one = rows[k:k + 1]
            val = np.ones(1)
            for part in prod.parts:
                val *= part.likelihood_array(one)
            assert got[k] == clamp_likelihood(val)[0] == prod.likelihood_array(one)[0]

    @pytest.mark.parametrize("D,S", [(3, 2), (8, 4)])
    def test_gradient_surface_pairs_equal_one_pair_calls(self, D, S):
        prod = self.product(D, S, D * S + 60, exact_part=False)
        rows, positions = TestPairForm.pairs(D, S, D * S + 61)
        pairs = prod.gradient_surface_array(rows, positions)
        assert pairs.shape == (rows.shape[0], S + 1)
        for k in range(rows.shape[0]):
            one = rows[k:k + 1], positions[k:k + 1]
            # bytes, so that the sign of a zero counts too
            assert pairs[k].tobytes() == self.loop_surface(prod, *one).tobytes()
            assert pairs[k].tobytes() == prod.gradient_surface_array(*one)[0].tobytes()

    class NegativeZero:
        """A surface of -0.0 everywhere."""

        has_gradient_surface = True

        def gradient_surface_array(self, tokens, positions):
            return np.full((positions.size, 3), -0.0)

    def test_first_part_keeps_negative_zeros(self):
        # the first part's surface is taken as is: 0.0 + (-0.0) would be
        # 0.0. A second part adds in the usual way, and -0.0 + -0.0 is -0.0
        prod = ProductPredictor([self.NegativeZero(), self.NegativeZero()])
        rows = np.array([[2, 2, 2], [0, 1, 2]])
        assert np.signbit(prod.gradient_surface_array(rows, np.array([0, 2]))).all()
