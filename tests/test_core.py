import json

import numpy as np
import pytest
from scipy import stats

from guidesampler.core import (
    Alphabet,
    ContextTables,
    MaskedSequence,
    RandomSource,
    TabularDistribution,
    TokenSequence,
    check_schedule,
    consistent_completions,
    decode_index,
    encode_index,
    encode_rows,
    identity_schedule,
    mask_forward,
    masked_from_str,
    power_schedule,
    sequence_from_str,
    sequence_table,
)
from guidesampler.errors import SizeCapError, UnsupportedContextError

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
        assert decode_index(7, 2, 3) == TokenSequence([1, 2], ABC)

    def test_round_trip_all_81(self):
        for i in range(81):
            x = decode_index(i, 4, 3)
            assert encode_index(x) == i

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
        broken = type(sched)(kappa=sched.kappa, kappa_dot=lambda t: 1.01, name="broken")
        with pytest.raises(ValueError):
            check_schedule(broken)

    def test_inverse_matches_closed_form_and_bisection(self):
        p = power_schedule(3.0)
        generic = type(p)(kappa=p.kappa, kappa_dot=p.kappa_dot)  # no closed inverse
        for u in [0.1, 0.5, 0.9]:
            assert p.inverse(u) == pytest.approx(1 - (1 - u) ** (1 / 3), abs=1e-9)
            assert generic.inverse(u) == pytest.approx(p.inverse(u), abs=1e-9)

    def test_bisection_inverts_an_array_as_each_scalar(self):
        p = power_schedule(3.0)
        generic = type(p)(kappa=p.kappa, kappa_dot=p.kappa_dot)  # no closed inverse
        u = RandomSource(2).generator().random((4, 5))
        each = np.array([[generic.inverse(float(v)) for v in row] for row in u])
        assert generic.inverse(u).shape == u.shape
        assert np.abs(generic.inverse(u) - each).max() <= 1e-12


class TestMaskForward:
    def test_t0_masks_everything(self):
        x = seq("ABAB")
        out = mask_forward(x, 0.0, identity_schedule(), RandomSource(1))
        assert out.masked_positions().size == 4

    def test_t1_is_identity(self):
        x = seq("ABBA")
        out = mask_forward(x, 1.0, identity_schedule(), RandomSource(1))
        assert out.is_clean() and out.to_clean() == x

    def test_unmasked_fraction_concentrates(self):
        # D = 10000, t = 0.3: binomial 3-sigma bound 0.3 +/- 0.02
        x = TokenSequence(np.zeros(10000, dtype=int), AB)
        out = mask_forward(x, 0.3, identity_schedule(), RandomSource(7))
        frac = out.unmasked_positions().size / 10000
        assert abs(frac - 0.3) < 0.02

    def test_t_out_of_range_rejected(self):
        x = seq("AB")
        for t in (-0.1, 1.1):
            with pytest.raises(ValueError):
                mask_forward(x, t, identity_schedule(), RandomSource(0))

    def test_masked_count_is_binomial(self):
        # chi-square GOF of mask_forward's masked counts vs Binomial(D, 1-kappa(t))
        D, t, n = 8, 0.4, 100000
        x = TokenSequence(np.zeros(D, dtype=int), AB)
        sched = identity_schedule()
        gen = RandomSource(42).generator()
        counts = np.zeros(D + 1)
        for _ in range(n):
            m = mask_forward(x, t, sched, gen).masked_positions().size
            counts[m] += 1
        expected = stats.binom.pmf(np.arange(D + 1), D, 1 - t) * n
        chi2 = ((counts - expected) ** 2 / expected).sum()
        p = stats.chi2.sf(chi2, D)
        assert p > 0.001


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

    def test_sampling_matches_weights(self):
        p = TabularDistribution(1, 2, [0.25, 0.75])
        idx = p.sample_indices(20000, RandomSource(3))
        assert abs(idx.mean() - 0.75) < 0.02


class TestConsistentCompletions:
    def uniform_three(self):
        # uniform over {AA, AB, BB} at D=2, S=2
        w = np.zeros(4)
        for text in ("AA", "AB", "BB"):
            w[encode_index(seq(text))] = 1 / 3
        return TabularDistribution(2, 2, w)

    def test_fully_unmasked_is_delta(self):
        p = self.uniform_three()
        out = consistent_completions(seq("AB").as_masked(), p)
        assert out == [(seq("AB"), 1.0)]

    def test_partial_mask_renormalizes(self):
        p = self.uniform_three()
        out = dict(consistent_completions(masked_from_str("A?", AB), p))
        assert out[seq("AA")] == pytest.approx(0.5)
        assert out[seq("AB")] == pytest.approx(0.5)
        assert len(out) == 2

    def test_fully_masked_returns_support(self):
        p = self.uniform_three()
        out = dict(consistent_completions(MaskedSequence.fully_masked(2, AB), p))
        assert len(out) == 3
        for v in out.values():
            assert v == pytest.approx(1 / 3)

    def test_zero_mass_context_raises(self):
        p = self.uniform_three()
        with pytest.raises(UnsupportedContextError):
            consistent_completions(masked_from_str("BA", AB), p)  # BA has zero mass

    def test_zero_mass_names_observed_positions(self):
        # the error names the observed positions, as Python ints
        p = TabularDistribution.point_mass(seq("AA"))
        for text, observed in (("B?", (0,)), ("BA", (0, 1)), ("?B", (1,))):
            with pytest.raises(UnsupportedContextError) as exc:
                consistent_completions(masked_from_str(text, AB), p)
            assert exc.value.positions == observed
            assert all(type(d) is int for d in exc.value.positions)
            assert str(exc.value) == (
                f"no completion of {text} has positive mass "
                f"(observed positions {list(observed)})"
            )

    def test_weights_depend_only_on_context(self):
        # the operation takes no time argument; identical contexts from
        # different forward times must give identical output by construction
        p = self.uniform_three()
        a = consistent_completions(masked_from_str("A?", AB), p)
        b = consistent_completions(masked_from_str("A?", AB), p)
        assert a == b

    def test_weights_nonnegative_and_sum_to_one(self):
        gen = RandomSource(5).generator()
        p = TabularDistribution.from_unnormalized(3, 3, gen.random(27))
        for _ in range(20):
            x1 = TokenSequence(gen.integers(0, 3, size=3), ABC)
            xt = mask_forward(x1, gen.random(), identity_schedule(), RandomSource(int(gen.integers(1 << 30))))
            out = consistent_completions(xt, p)
            ws = np.array([w for _, w in out])
            assert (ws >= 0).all()
            assert ws.sum() == pytest.approx(1.0, abs=1e-9)


class TestContextTables:
    def test_blocks_are_position_major(self):
        # table entry i belongs to decode_index(i): axis j of a block indexes
        # the token at the j-th masked position
        D, S = 3, 3
        w = np.arange(S**D, dtype=float) / 351.0
        other = 2.0 * w + 1.0
        mass, (block, block2) = ContextTables(D, S, w, other).blocks(np.array([3, 1, 3]))
        assert block.shape == block2.shape == (S, S)
        for a in range(S):
            for c in range(S):
                i = encode_index(TokenSequence([a, 1, c], ABC))
                assert block[a, c] == w[i] and block2[a, c] == other[i]
        assert mass == block.sum()


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
