import json
import math
import tracemalloc

import numpy as np
import pytest

from guidesampler.core import (
    RandomSource,
    TabularDistribution,
    sequence_table,
)
from guidesampler.denoising import (
    ExactDenoiser,
    LogitModifier,
    ModifiedDenoiser,
    ParametricDenoiser,
    TRAIN_BLOCK_STEPS,
    aoarm_loss_exact,
    apply_modifiers,
    fm_loss_exact,
    rate_weighted_fm_loss_exact,
    train_denoiser,
)
from guidesampler.errors import SizeCapError, TrainingDivergedError, UnsupportedContextError

from bruteforce import (
    BAD_ROWS,
    LoopDiverged,
    brute_aoarm_loss,
    brute_fm_loss,
    brute_posterior_rows,
    dist_as_dict,
    loop_aoarm_loss_exact,
    loop_train_denoiser,
    delta_weights,
    row,
)

def uniform_over(texts, D, S):
    w = sum(delta_weights(t, S) for t in texts)
    return TabularDistribution(D, S, w / w.sum())


def exact_posterior(p, xt):
    """ExactDenoiser(p)'s posterior of the row xt, after checking that its
    rows sum to 1 and that each unmasked row is the observed one-hot."""
    post = ExactDenoiser(p).posterior_array(xt)
    assert post.shape == (p.D, p.S)
    np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)
    for d in np.flatnonzero(xt != p.S):
        assert np.array_equal(post[d], np.eye(p.S)[xt[d]])
    return post


class TestExactDenoise:
    def test_single_consistent_completion(self):
        p = uniform_over(["AA", "BB"], 2, 2)
        post = exact_posterior(p, row("A?", 2))
        np.testing.assert_allclose(post[1], [1.0, 0.0])

    def test_two_consistent_completions(self):
        p = uniform_over(["AA", "AB", "BB"], 2, 2)
        post = exact_posterior(p, row("A?", 2))
        np.testing.assert_allclose(post[1], [0.5, 0.5])

    def test_fully_masked_gives_marginals(self):
        gen = RandomSource(3).generator()
        p = TabularDistribution.from_unnormalized(3, 3, gen.random(27))
        post = exact_posterior(p, np.full(3, 3))
        for d in range(3):
            np.testing.assert_allclose(post[d], p.marginal(d), atol=1e-12)

    def test_matches_brute_force_everywhere(self):
        gen = RandomSource(11).generator()
        p = TabularDistribution.from_unnormalized(3, 2, gen.random(8))
        den = ExactDenoiser(p)
        pdict = dist_as_dict(p)
        for code in range(27):
            toks = np.array([code % 3, code // 3 % 3, code // 9 % 3])
            expected = brute_posterior_rows(pdict, toks, 3, 2)
            if expected is None:
                continue
            np.testing.assert_allclose(den.posterior_array(toks), expected, atol=1e-12)

    def test_pair_form_observed_position_is_one_hot(self):
        # pairs at an observed position beside pairs at masked ones: each
        # row is the matching row of the one-row call, the observed ones
        # the one-hot of their token
        gen = RandomSource(12).generator()
        den = ExactDenoiser(TabularDistribution.from_unnormalized(3, 3, gen.random(27)))
        tokens = np.array([[0, 3, 2], [0, 3, 2], [3, 3, 1], [3, 3, 3], [2, 1, 0]])
        positions = np.array([0, 1, 2, 1, 1])
        post = den.posterior_array(tokens, positions)
        for j, d in enumerate(positions):
            assert post[j].tobytes() == den.posterior_array(tokens[j])[d].tobytes()
        for j in (0, 2, 4):
            assert np.array_equal(post[j], np.eye(3)[tokens[j, positions[j]]])

    def test_unsupported_context_names_positions(self):
        p = uniform_over(["AA"], 2, 2)
        with pytest.raises(UnsupportedContextError) as exc:
            exact_posterior(p, row("B?", 2))
        assert exc.value.positions == (0,)

    def test_no_mass_on_mask_and_rows_normalized(self):
        gen = RandomSource(5).generator()
        p = TabularDistribution.from_unnormalized(4, 3, gen.random(81))
        den = ExactDenoiser(p)
        for _ in range(10):
            toks = gen.integers(0, 4, size=4)  # includes mask digit 3
            post = den.posterior_array(np.asarray(toks))
            assert post.shape == (4, 3)  # no mask column exists
            np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)


class TestModifiers:
    def test_identity_is_bitwise(self):
        logits = np.array([[0.3, -1.2], [2.0, 0.1]])
        out = apply_modifiers(logits, LogitModifier())
        assert np.array_equal(out, logits)

    def test_huge_wildtype_weight_concentrates(self):
        wt = row("AB", 2)
        mod = LogitModifier(wildtype_weight=1e6, wildtype_sequence=wt)
        logits = np.array([[0.0, 5.0], [5.0, 0.0]])
        out = apply_modifiers(logits, mod)
        assert out.argmax(axis=1).tolist() == [0, 1]
        probs = np.exp(out - out.max(1, keepdims=True))
        probs /= probs.sum(1, keepdims=True)
        assert probs[0, 0] > 0.999 and probs[1, 1] > 0.999

    def test_temperature_divides(self):
        out = apply_modifiers(np.array([[2.0, 0.0]]), LogitModifier(temperature=2.0))
        np.testing.assert_allclose(out, [[1.0, 0.0]])

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            LogitModifier(temperature=0.0)

    def test_weight_requires_sequence(self):
        with pytest.raises(ValueError):
            LogitModifier(wildtype_weight=1.0)


class TestFMLoss:
    def test_d1_coin_hand_value(self):
        # only the fully-masked pattern contributes, Beta weight 1/2, CE ln 2
        p = TabularDistribution(1, 2, [0.5, 0.5])
        loss = fm_loss_exact(ExactDenoiser(p), p)
        assert loss == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_delta_law_is_zero(self):
        p = TabularDistribution(4, 2, delta_weights("ABAB", 2))
        assert fm_loss_exact(ExactDenoiser(p), p) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        gen = RandomSource(7).generator()
        p = TabularDistribution.from_unnormalized(3, 2, gen.random(8) + 0.05)
        den = ParametricDenoiser.random(3, 2, RandomSource(8), scale=0.7)
        got = fm_loss_exact(den, p)
        want = brute_fm_loss(lambda xt: den.posterior_array(np.array(xt)), dist_as_dict(p), 3, 2)
        assert got == pytest.approx(want, abs=1e-10)

    def test_matches_monte_carlo(self):
        # 10^6-draw MC oracle, 4 standard errors
        gen = RandomSource(17).generator()
        p = TabularDistribution.from_unnormalized(4, 3, gen.random(81) + 0.02)
        den = ParametricDenoiser.random(4, 3, RandomSource(23), scale=0.5)
        exact = fm_loss_exact(den, p)

        n = 1_000_000
        g = RandomSource(99).generator()
        table = sequence_table(4, 3)
        toks = table[g.choice(81, size=n, p=p.weights)]
        t = g.random((n, 1))
        keep = g.random((n, 4)) < t
        xt = np.where(keep, toks, 3)
        codes = xt @ (4 ** np.arange(4))
        uniq, inv = np.unique(codes, return_inverse=True)
        post = np.stack(
            [den.posterior_array(np.array([c % 4, c // 4 % 4, c // 16 % 4, c // 64 % 4])) for c in uniq]
        )
        probs = post[inv[:, None], np.arange(4)[None, :], toks]
        ce = (-np.log(probs) * ~keep).sum(axis=1)
        se = ce.std() / math.sqrt(n)
        assert abs(exact - ce.mean()) < 4 * se

    def test_cap(self):
        p = TabularDistribution.uniform(13, 2)
        with pytest.raises(SizeCapError):
            fm_loss_exact(ExactDenoiser(p), p)

    def test_exact_denoiser_minimizes(self):
        # CE is minimized by the true conditional: 20 random parametric
        # denoisers can never beat the exact one
        gen = RandomSource(31).generator()
        p = TabularDistribution.from_unnormalized(3, 2, gen.random(8) + 0.05)
        base = fm_loss_exact(ExactDenoiser(p), p)
        for k in range(20):
            den = ParametricDenoiser.random(3, 2, RandomSource(1000 + k), scale=1.0)
            assert fm_loss_exact(den, p) >= base - 1e-12


    @pytest.mark.parametrize("parametric", [False, True])
    def test_one_rows_call_per_pattern(self, parametric, monkeypatch):
        # the pattern losses make one rows call per mask pattern, and the
        # spy, which passes the call on, keeps every loss byte
        gen = RandomSource(27).generator()
        D, S = 4, 3
        p = TabularDistribution.from_unnormalized(D, S, gen.random(S**D) + 0.02)
        den = ParametricDenoiser.random(D, S, RandomSource(28), scale=0.7) if parametric else ExactDenoiser(p)
        losses = (fm_loss_exact, rate_weighted_fm_loss_exact)
        rows_form = [loss(den, p) for loss in losses]
        calls = []
        original = type(den).posterior_array

        def spy(model, tokens):
            calls.append(np.ndim(tokens))
            return original(model, tokens)

        monkeypatch.setattr(type(den), "posterior_array", spy)
        assert [loss(den, p) for loss in losses] == rows_form
        assert calls == [2] * (2 * (2**D - 1))


class TestAOARMLoss:
    def test_d1_is_entropy_not_fm(self):
        # standing counterexample to the retired relation aoarm == D * fm:
        # the permutation NLL at D=1 is the full entropy ln 2, while the
        # uniform-time CE loss is half that (its empty pattern carries half
        # the time measure), so the two are NOT equal at D=1
        p = TabularDistribution(1, 2, [0.5, 0.5])
        den = ExactDenoiser(p)
        assert aoarm_loss_exact(den, p) == pytest.approx(math.log(2), abs=1e-12)
        assert fm_loss_exact(den, p) == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_exact_denoiser_gives_data_entropy(self):
        # chain rule: with exact conditionals every order reproduces p, so
        # the loss is the Shannon entropy of p
        p = uniform_over(["AA", "AB", "BB"], 2, 2)
        assert aoarm_loss_exact(ExactDenoiser(p), p) == pytest.approx(math.log(3), abs=1e-12)

    def test_delta_law_is_zero(self):
        p = TabularDistribution(3, 2, delta_weights("ABA", 2))
        assert aoarm_loss_exact(ExactDenoiser(p), p) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force(self):
        gen = RandomSource(13).generator()
        p = TabularDistribution.from_unnormalized(3, 3, gen.random(27) + 0.05)
        den = ParametricDenoiser.random(3, 3, RandomSource(14), scale=0.6)
        got = aoarm_loss_exact(den, p)
        want = brute_aoarm_loss(lambda xt: den.posterior_array(np.array(xt)), dist_as_dict(p), 3, 3)
        assert got == pytest.approx(want, abs=1e-10)

    def test_cap(self):
        p = TabularDistribution.uniform(9, 2)
        with pytest.raises(SizeCapError):
            aoarm_loss_exact(ExactDenoiser(p), p)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_rate_weighted_fm_loss(self, seed):
        # the true identity: permutation-averaged NLL == masking CE weighted
        # by the unmasking rate 1/(1-t) (pattern weight (m-1)!(D-m)!/D!)
        gen = RandomSource(40 + seed).generator()
        D = int(gen.integers(1, 5))
        S = int(gen.integers(2, 4))
        p = TabularDistribution.from_unnormalized(D, S, gen.random(S**D) + 0.02)
        if seed % 2:
            den = ExactDenoiser(p)
        else:
            den = ParametricDenoiser.random(D, S, RandomSource(90 + seed), scale=0.5)
        lhs = aoarm_loss_exact(den, p)
        rhs = rate_weighted_fm_loss_exact(den, p)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @pytest.mark.parametrize("kind", ["exact", "parametric", "modified"])
    @pytest.mark.parametrize("D,S", [(D, S) for D in range(1, 6) for S in (2, 3)])
    def test_bit_identical_to_memo_loop(self, D, S, kind):
        # every order reads the pattern table; an order-by-order loop over a
        # per-context memo gives the same float, bit for bit, with
        # zero-weight sequences in p
        gen = RandomSource(100 * D + S).generator()
        weights = gen.random(S**D) + 0.05
        weights[gen.random(S**D) < 0.3] = 0.0
        weights[0] += 0.1
        p = TabularDistribution.from_unnormalized(D, S, weights)
        den = ExactDenoiser(p)
        if kind == "parametric":
            den = ParametricDenoiser.random(D, S, RandomSource(D + S), scale=0.6)
        elif kind == "modified":
            den = ModifiedDenoiser(den, LogitModifier(temperature=0.7))
        assert aoarm_loss_exact(den, p) == loop_aoarm_loss_exact(den, p)

    def test_cap_size_equals_rate_weighted_fm_loss(self):
        # D=8 is the largest size the enumeration allows: 40,320 orders
        gen = RandomSource(88).generator()
        p = TabularDistribution.from_unnormalized(8, 2, gen.random(2**8) + 0.02)
        den = ParametricDenoiser.random(8, 2, RandomSource(89), scale=0.5)
        lhs = aoarm_loss_exact(den, p)
        assert lhs == pytest.approx(rate_weighted_fm_loss_exact(den, p), abs=1e-9)


class TestModifiedDenoiser:
    def test_temperature_sharpens_posterior(self):
        from guidesampler.denoising import ModifiedDenoiser

        p = uniform_over(["AA", "AB", "BB"], 2, 2)
        base = ExactDenoiser(p)
        cold = ModifiedDenoiser(base, LogitModifier(temperature=0.25))
        toks = np.array([2, 2])
        post_base = base.posterior_array(toks)
        post_cold = cold.posterior_array(toks)
        # softmax(log p / T): row 0 marginal (2/3, 1/3) -> temperature 0.25
        want = post_base[0] ** 4 / (post_base[0] ** 4).sum()
        np.testing.assert_allclose(post_cold[0], want, atol=1e-12)

    def test_zero_probability_symbols_stay_zero(self):
        from guidesampler.denoising import ModifiedDenoiser

        p = uniform_over(["AA", "BB"], 2, 2)
        mod = ModifiedDenoiser(
            ExactDenoiser(p),
            LogitModifier(temperature=0.5, wildtype_weight=3.0,
                          wildtype_sequence=row("AB", 2)),
        )
        post = mod.posterior_array(np.array([0, 2]))
        # position 1 given x0=A can only be A; bias toward B cannot revive it
        np.testing.assert_allclose(post[1], [1.0, 0.0])

    @pytest.mark.parametrize("wildtype", [
        [0, 2],  # the mask sentinel of S=2
        [-1, 0],
        [0, 1, 0],
        [0],
        [[0, 1]],
        [0.0, 1.0],
    ], ids=["mask", "negative", "long", "short", "2d", "float"])
    def test_wildtype_must_be_a_clean_row_of_the_base(self, wildtype):
        base = ExactDenoiser(uniform_over(["AA", "BB"], 2, 2))
        with pytest.raises(ValueError, match="wild"):
            ModifiedDenoiser(base, LogitModifier(wildtype_weight=1.0,
                                                 wildtype_sequence=np.array(wildtype)))

    def test_wildtype_is_a_read_only_copy_and_compares_by_identity(self):
        wt = np.array([0, 1], dtype=np.int32)
        mod = LogitModifier(wildtype_weight=1.0, wildtype_sequence=wt)
        wt[0] = 1
        assert mod.wildtype_sequence.dtype == np.int64
        assert mod.wildtype_sequence.tolist() == [0, 1]
        assert not mod.wildtype_sequence.flags.writeable
        assert mod == mod and hash(mod) == hash(mod)
        assert mod != LogitModifier(wildtype_weight=1.0, wildtype_sequence=wt)

    def test_rows_equal_single_row_calls(self):
        from guidesampler.denoising import ModifiedDenoiser

        D, S = 6, 5
        wildtype = RandomSource(41).generator().integers(0, S, size=D)
        mod = ModifiedDenoiser(
            ParametricDenoiser.random(D, S, RandomSource(40), scale=1.0),
            LogitModifier(temperature=0.7, wildtype_weight=1.5, wildtype_sequence=wildtype),
        )
        rows = RandomSource(42).generator().integers(0, S + 1, size=(200, D))
        rows[0] = S
        post = mod.posterior_array(rows)
        assert post.shape == (200, D, S)
        for k, row in enumerate(rows):
            assert np.array_equal(post[k], mod.posterior_array(row))
        # the bias lands on each position's wild-type symbol of every row
        base = mod.base.logits_array(rows)
        biased = (base[:, np.arange(D), wildtype] + 1.5) / 0.7
        assert np.array_equal(mod.logits_array(rows)[:, np.arange(D), wildtype], biased)


class TestParametricDenoiser:
    def test_zero_init_is_uniform(self):
        den = ParametricDenoiser(3, 4)
        post = den.posterior_array(np.array([4, 4, 4]))
        np.testing.assert_allclose(post, 0.25)

    def test_unmasked_rows_one_hot(self):
        den = ParametricDenoiser.random(3, 2, RandomSource(2))
        post = den.posterior_array(np.array([1, 2, 0]))
        np.testing.assert_array_equal(post[0], [0, 1])
        np.testing.assert_array_equal(post[2], [1, 0])

    def test_json_round_trip(self):
        den = ParametricDenoiser.random(2, 3, RandomSource(5))
        clone = ParametricDenoiser.from_json(den.to_json())
        toks = np.array([3, 1])
        np.testing.assert_allclose(clone.posterior_array(toks), den.posterior_array(toks))

    def test_json_round_trip_is_bit_for_bit(self):
        den = ParametricDenoiser.random(3, 4, RandomSource(5))
        den.single[0, 1], den.single[2, 3] = -np.inf, -0.0
        den.pair[0, 2, 4, 1], den.pair[1, 0, 2, 3] = -np.inf, -0.0
        obj = json.loads(json.dumps(den.to_json()))
        assert obj["pairwise"]["shape"] == [3, 3, 5, 4]
        clone = ParametricDenoiser.from_json(obj)
        for table in ("single", "pair"):
            got, want = getattr(clone, table), getattr(den, table)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert got.flags.writeable and got.flags.owndata


class TestTraining:
    def test_zero_steps_uniform(self):
        model, _ = train_denoiser("FM", np.array([[0, 1]]), 2, 0, RandomSource(1))
        post = model.posterior_array(np.array([2, 2]))
        np.testing.assert_allclose(post, 0.5)

    @pytest.mark.parametrize("variant", ["FM", "AOARM"])
    def test_delta_law_convergence(self, variant):
        x = np.array([0, 1, 0])
        model, loss = train_denoiser(variant, x[None, :], 2, 2000, RandomSource(7))
        # every masked context must put >= 0.99 on the true token
        for code in range(27):
            toks = np.array([code % 3, code // 3 % 3, code // 9 % 3])
            consistent = all(toks[d] == 2 or toks[d] == x[d] for d in range(3))
            if not consistent:
                continue
            post = model.posterior_array(toks)
            for d in np.flatnonzero(toks == 2):
                assert post[d, x[d]] >= 0.99

    def test_fm_and_aoarm_converge_to_same_posteriors(self):
        gen = RandomSource(21).generator()
        p = TabularDistribution.from_unnormalized(3, 2, gen.random(8) + 0.2)
        data = sequence_table(3, 2)[p.sample_indices(4000, RandomSource(22))]
        fm_model, _ = train_denoiser("FM", data, 2, 6000, RandomSource(23), batch_size=128)
        ao_model, _ = train_denoiser("AOARM", data, 2, 6000, RandomSource(24), batch_size=128)
        worst = 0.0
        for code in range(27):
            toks = np.array([code % 3, code // 3 % 3, code // 9 % 3])
            if not (toks == 2).any():
                continue
            diff = np.abs(fm_model.posterior_array(toks) - ao_model.posterior_array(toks))
            worst = max(worst, float(diff[toks == 2].max()))
        assert worst <= 0.05

    def test_unknown_variant_rejected(self):
        # "MLM" was FM under another name: the model has no time input
        with pytest.raises(ValueError, match="loss_variant"):
            train_denoiser("MLM", np.array([[0, 1]]), 2, 10, RandomSource(0))

    @pytest.mark.parametrize("variant", ["FM", "AOARM"])
    @pytest.mark.parametrize("D, S", [(3, 2), (8, 4), (6, 5), (4, 8), (3, 20)])
    @pytest.mark.parametrize("batch_size", [1, 17])
    @pytest.mark.parametrize("steps", [
        0, 1, TRAIN_BLOCK_STEPS - 1, TRAIN_BLOCK_STEPS, TRAIN_BLOCK_STEPS + 1,
        2 * TRAIN_BLOCK_STEPS + 3,
    ])
    def test_matches_loop_reference_bit_for_bit(self, variant, D, S, batch_size, steps):
        # the bincount scatter must add each cell's rows in row order; a
        # pairwise (reduceat) or BLAS (one-hot matmul) order fails here.
        # The softmax adds slices left to right below S = 8 and is np.sum
        # from S = 8 on, so sizes on both sides. Step counts on and off the
        # block edge, batches of one row and of 17; the refit arm samples
        # from the generator after training, so it must end where the
        # loop's does
        gen = RandomSource(D * 10 + S).generator()
        rows = gen.integers(0, S, (23, D))
        train_gen, ref_gen = RandomSource(8).generator(), RandomSource(8).generator()
        model, loss = train_denoiser(
            variant, rows, S, steps, train_gen, lr=0.5, batch_size=batch_size
        )
        single, pair, ref_loss = loop_train_denoiser(
            variant, rows, S, steps, ref_gen, 0.5, batch_size
        )
        assert model.single.tobytes() == single.tobytes()
        assert model.pair.tobytes() == pair.tobytes()
        assert loss == ref_loss
        assert train_gen.random() == ref_gen.random()

    def test_peak_memory_at_the_campaign_size(self):
        # the refit arm's training: D=8, S=4, batch 32, 1,500 steps. An
        # index array over a whole block, (TRAIN_BLOCK_STEPS, batch, D, D*S),
        # alone takes 1 MiB
        rows = RandomSource(5).generator().integers(0, 4, (100, 8))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train_denoiser("FM", rows, 4, 1500, RandomSource(6), batch_size=32)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 512 * 1024

    @pytest.mark.parametrize("kwargs, name", [
        ({"batch_size": 0}, "batch_size"),
        ({"batch_size": -1}, "batch_size"),
        ({"steps": -1}, "steps"),
        ({"lr": 0.0}, "lr"),
        ({"lr": -1.0}, "lr"),
        ({"lr": float("-inf")}, "lr"),
        ({"lr": float("nan")}, "lr"),
    ])
    def test_bad_argument_is_named_before_any_draw(self, kwargs, name):
        rows = np.array([[0, 1], [1, 0], [1, 1]])
        args = {"steps": 5, **kwargs}
        gen = RandomSource(4).generator()
        with pytest.raises(ValueError, match=name):
            train_denoiser("FM", rows, 2, args.pop("steps"), gen, **args)
        assert gen.random() == RandomSource(4).generator().random()

    @pytest.mark.parametrize("rows, message", BAD_ROWS)
    def test_bad_rows_refused_before_any_draw(self, rows, message):
        gen = RandomSource(4).generator()
        with pytest.raises(ValueError, match=message):
            train_denoiser("FM", rows, 2, 5, gen)
        assert gen.random() == RandomSource(4).generator().random()

    @pytest.mark.parametrize("lr, batch_size, seed, step", [
        (float("inf"), 32, 3, 1),
        (8e307, 1, 2, 69),  # inside a later block, off its edge
    ])
    def test_divergence_reports_step(self, lr, batch_size, seed, step):
        rows = np.array([[0, 1], [1, 0], [1, 1]])
        with np.errstate(all="ignore"):
            with pytest.raises(LoopDiverged) as ref:
                loop_train_denoiser("FM", rows, 2, 200, RandomSource(seed).generator(),
                                    lr, batch_size)
            with pytest.raises(TrainingDivergedError) as exc:
                train_denoiser("FM", rows, 2, 200, RandomSource(seed), lr=lr,
                               batch_size=batch_size)
        assert exc.value.step == ref.value.step == step
