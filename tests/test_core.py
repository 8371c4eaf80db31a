import json

import numpy as np
import pytest
from scipy import stats

from guidesampler.core import (
    Alphabet,
    RandomSource,
    TabularDistribution,
    TokenSequence,
    encode_index,
    encode_rows,
    identity_schedule,
    masked_from_str,
    pad_contexts,
    power_schedule,
    sequence_from_str,
    sequence_table,
)
from guidesampler.denoising import ExactDenoiser
from guidesampler.errors import SizeCapError, UnsupportedContextError
from guidesampler.predictors import CleanPredictor, ExactMarginalPredictor

from bruteforce import check_schedule

AB = Alphabet(2)
ABC = Alphabet(3)


def seq(text, alphabet=AB):
    return sequence_from_str(text, alphabet)


class TestAlphabetAndSequences:
    def test_mask_index_is_one_past_last_symbol(self):
        assert Alphabet(4).mask_index == 4

    def test_alphabet_rejects_degenerate_size(self):
        with pytest.raises(ValueError):
            Alphabet(1)

    def test_clean_sequence_rejects_mask(self):
        with pytest.raises(ValueError):
            TokenSequence([0, 2], AB)  # 2 is the mask sentinel for S=2

    def test_masked_sequence_partitions_positions(self):
        xt = masked_from_str("A?B?", AB)
        m, u = set(xt.masked_positions()), set(xt.unmasked_positions())
        assert m == {1, 3} and u == {0, 2}
        assert m | u == set(range(4)) and not (m & u)

    def test_round_trip_str(self):
        assert str(seq("ABBA")) == "ABBA"
        assert str(masked_from_str("A?B", AB)) == "A?B"

    def test_degenerate_d1_s2_supported(self):
        x = TokenSequence([1], AB)
        assert x.D == 1 and encode_index(x) == 1


class TestEncoding:
    def test_zero_case(self):
        assert encode_index(TokenSequence([0, 0], ABC)) == 0

    def test_little_endian_convention(self):
        # position 0 is least significant: (1, 2) at S=3 -> 1 + 2*3 = 7
        assert encode_index(TokenSequence([1, 2], ABC)) == 1 + 2 * 3
        assert sequence_table(2, 3)[7].tolist() == [1, 2]

    def test_round_trip_all_81(self):
        for i, row in enumerate(sequence_table(4, 3)):
            assert encode_index(TokenSequence(row, ABC)) == i

    def test_round_trip_exhaustive_up_to_cap(self):
        # largest configuration used in tests: 65536 states
        table = sequence_table(8, 4)
        assert table.shape == (65536, 8)
        codes = encode_rows(table, 4)
        assert np.array_equal(codes, np.arange(65536))

    def test_cap_enforced_at_construction(self):
        with pytest.raises(SizeCapError):
            sequence_table(30, 4)


class TestSchedules:
    def test_identity_and_power_pass_validation(self):
        check_schedule(identity_schedule())
        check_schedule(power_schedule(2.0))
        check_schedule(power_schedule(0.5), tol=5e-6)

    def test_bad_derivative_caught(self):
        sched = identity_schedule()
        broken = type(sched)(kappa=sched.kappa, kappa_dot=lambda t: 1.01,
                             kappa_inv=sched.kappa_inv, name="broken")
        with pytest.raises(ValueError):
            check_schedule(broken)

    def test_inverse_matches_closed_form(self):
        p = power_schedule(3.0)
        for u in [0.1, 0.5, 0.9]:
            assert p.inverse(u) == pytest.approx(1 - (1 - u) ** (1 / 3), abs=1e-9)


class TestTabularDistribution:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            TabularDistribution(1, 2, [0.5, 0.6])
        TabularDistribution(1, 2, [0.5, 0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            TabularDistribution(1, 2, [-0.1, 1.1])

    def test_marginal(self):
        p = TabularDistribution.from_unnormalized(2, 2, [1, 1, 0, 1])  # AA, BA, BB
        np.testing.assert_allclose(p.marginal(0), [1 / 3, 2 / 3])
        np.testing.assert_allclose(p.marginal(1), [2 / 3, 1 / 3])

    def test_json_round_trip(self):
        p = TabularDistribution.from_unnormalized(2, 3, np.arange(1, 10, dtype=float))
        q = TabularDistribution.from_json(json.loads(json.dumps(p.to_json())))
        np.testing.assert_array_equal(p.weights, q.weights)
        assert (q.D, q.S) == (2, 3)

    @pytest.mark.parametrize("text,alphabet", [
        ("BAA", AB),  # once read as BA's weight 0.2
        ("BA", ABC),  # once read as BA's weight 0.2
        ("BBB", AB),  # once an IndexError
    ])
    def test_prob_refuses_another_size(self, text, alphabet):
        p = TabularDistribution.from_unnormalized(2, 2, [1, 2, 3, 4])
        assert p.prob(seq("BA")) == 0.2
        x = seq(text, alphabet)
        with pytest.raises(ValueError, match=f"length {x.D} over {alphabet.size} symbols "
                                             "does not fit a table with D=2, S=2"):
            p.prob(x)

    def test_sampling_matches_weights(self):
        p = TabularDistribution(1, 2, [0.25, 0.75])
        idx = p.sample_indices(20000, RandomSource(3))
        assert abs(idx.mean() - 0.75) < 0.02


class TestZeroMassError:
    def test_zero_mass_names_observed_positions(self):
        # the exact models' error names the observed positions, as Python ints
        p = TabularDistribution.point_mass(seq("AA"))
        den = ExactDenoiser(p)
        pred = ExactMarginalPredictor(CleanPredictor.from_table(np.ones(4), 2), p)
        cases = [(den.posterior_array, "B?", (0,)), (den.posterior_array, "BA", (0, 1)),
                 (den.posterior_array, "?B", (1,)), (pred.likelihood_array, "B?", (0,)),
                 (pred.likelihood_array, "?B", (1,))]
        for answer, text, observed in cases:
            with pytest.raises(UnsupportedContextError) as exc:
                answer(masked_from_str(text, AB).tokens)
            assert exc.value.positions == observed
            assert all(type(d) is int for d in exc.value.positions)
            assert str(exc.value) == (
                f"no completion of {text} has positive mass "
                f"(observed positions {list(observed)})"
            )


class TestContextMass:
    def test_padded_mass_is_the_mass_of_each_context(self):
        # entry c of the padded table, c a base-(S+1) context code, is the
        # total weight of the completions of context c
        D, S = 3, 3
        w = np.arange(S**D, dtype=float) / 351.0
        p = TabularDistribution(D, S, w)
        mass = p.context_mass()
        assert mass.shape == ((S + 1) ** D,) and not mass.flags.writeable
        assert p.context_mass() is mass
        table = sequence_table(D, S)
        for code in range((S + 1) ** D):
            tokens = np.array([code // (S + 1) ** d % (S + 1) for d in range(D)])
            completes = ((table == tokens) | (tokens == S)).all(axis=1)
            assert mass[code] == pytest.approx(w[completes].sum(), abs=1e-15)

    @pytest.mark.parametrize("S", [2, 3])
    def test_d1_padding(self, S):
        w = np.arange(1, S + 1, dtype=float)
        assert np.array_equal(pad_contexts(w, 1, S), np.append(w, w.sum()))

    def test_context_table_cap(self):
        # 3**16 = 43 million context entries, though 2**16 sequences pass
        with pytest.raises(SizeCapError, match=r"3\*\*16 = 43046721"):
            pad_contexts(np.full(2**16, 2.0**-16), 16, 2)


class TestRandomSource:
    def test_bitwise_reproducible(self):
        a = RandomSource(123, 4).generator().random(16)
        b = RandomSource(123, 4).generator().random(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomSource(123, 0).generator().random(16)
        b = RandomSource(123, 1).generator().random(16)
        assert not np.array_equal(a, b)

    def test_substreams_are_stable_and_disjoint(self):
        root = RandomSource(9)
        kids = [root.substream(i) for i in range(50)]
        ids = {k.stream_id for k in kids}
        assert len(ids) == 50
        assert kids[3] == root.substream(3)

    def test_substream_independence_rough(self):
        # pooled uniforms across substreams still look uniform
        vals = np.concatenate([RandomSource(11).substream(i).generator().random(500) for i in range(20)])
        assert stats.kstest(vals, "uniform").pvalue > 0.01
