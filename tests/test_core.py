import json
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from guidesampler.core import (
    TABULAR_STATE_CAP,
    TEXT_S_LIMIT,
    Alphabet,
    RandomSource,
    TabularDistribution,
    _check_state_count,
    check_context_count,
    clean_rows,
    encode_rows,
    pack_table,
    pad_contexts,
    sequence_table,
    unpack_table,
)
from guidesampler.denoising import ExactDenoiser
from guidesampler.errors import SizeCapError, UnsupportedContextError
from guidesampler.predictors import CleanPredictor, ExactMarginalPredictor

from bruteforce import loop_pad_contexts, delta_weights, row

AB = Alphabet(2)


class TestAlphabetAndSequences:
    def test_mask_index_is_one_past_last_symbol(self):
        assert Alphabet(4).mask_index == 4

    def test_alphabet_rejects_degenerate_size(self):
        with pytest.raises(ValueError):
            Alphabet(1)

    @pytest.mark.parametrize("bad", [[0, 2], [-1, 0]])  # 2 is the mask sentinel for S=2
    def test_clean_rows_rejects_mask_and_negative(self, bad):
        with pytest.raises(ValueError, match="0..1"):
            clean_rows(np.array([bad]), 2)

    @pytest.mark.parametrize("S", [2, 26, 40])
    def test_every_letter_round_trips(self, S):
        # token parses each letter exactly as letter and render_rows write it
        alpha = Alphabet(S)
        tokens = np.arange(S + 1)
        text = alpha.render_rows(tokens[None, :])[0]
        assert [alpha.token(c) for c in text] == tokens.tolist()
        assert [alpha.token(alpha.letter(int(t))) for t in tokens] == tokens.tolist()

    def test_token_is_case_sensitive(self):
        # at S=40, 'h' is token 39 and 'H' token 7; once 'h' parsed as 7
        assert (Alphabet(40).token("h"), Alphabet(40).token("H")) == (39, 7)
        for bad in ("a", "", "AB", "@", "C"):
            with pytest.raises(ValueError, match="outside alphabet of size 2"):
                AB.token(bad)

    def test_degenerate_d1_s2_supported(self):
        assert sequence_table(1, 2).tolist() == [[0], [1]]
        assert encode_rows(np.array([1]), 2) == 1

    @pytest.mark.parametrize("S", [2, 20, 40, TEXT_S_LIMIT])
    def test_render_rows_matches_letter(self, S):
        alpha = Alphabet(S)
        rows = RandomSource(S).generator().integers(0, S + 1, (7, 5))
        rows[0] = S
        expected = ["".join(alpha.letter(int(t)) for t in row) for row in rows]
        assert alpha.render_rows(rows) == expected
        assert "\n".join(expected).splitlines() == expected

    def test_render_rows_refuses_alphabets_past_printable_letters(self):
        # at S=100 token 68 is U+0085 and token 95 U+00A0: the joined text
        # of these two rows read back as 3 lines
        with pytest.raises(ValueError, match="up to S = 62"):
            Alphabet(100).render_rows(np.array([[0, 68, 1], [95, 2, 3]]))

    @pytest.mark.parametrize("token", [-1, 3])
    def test_render_rows_refuses_tokens_outside_the_alphabet(self, token):
        with pytest.raises(ValueError, match="outside"):
            AB.render_rows(np.array([[0, token]]))


class TestEncoding:
    def test_zero_case(self):
        assert encode_rows(np.array([0, 0]), 3) == 0

    def test_little_endian_convention(self):
        # position 0 is least significant: (1, 2) at S=3 -> 1 + 2*3 = 7
        assert encode_rows(np.array([1, 2]), 3) == 1 + 2 * 3
        assert sequence_table(2, 3)[7].tolist() == [1, 2]

    def test_round_trip_all_81(self):
        for i, r in enumerate(sequence_table(4, 3)):
            assert encode_rows(r, 3) == i

    def test_round_trip_exhaustive_up_to_cap(self):
        # largest configuration used in tests: 65536 states
        table = sequence_table(8, 4)
        assert table.shape == (65536, 8)
        codes = encode_rows(table, 4)
        assert np.array_equal(codes, np.arange(65536))

    def test_cap_enforced_at_construction(self):
        with pytest.raises(SizeCapError):
            sequence_table(30, 4)


class TestTableCap:
    """Both size checks pass a table of exactly TABULAR_STATE_CAP entries and
    refuse the next length up, naming its size, before any table is made."""

    @pytest.mark.parametrize("S, D", [(2, 24), (4, 12), (16, 6)])
    def test_state_count(self, S, D):
        assert _check_state_count(D, S) == TABULAR_STATE_CAP
        with pytest.raises(SizeCapError, match=rf"{S}\*\*{D + 1} = {S ** (D + 1)} "):
            _check_state_count(D + 1, S)

    @pytest.mark.parametrize("S, D", [(1, 24), (3, 12), (15, 6)])
    def test_context_count(self, S, D):
        assert check_context_count(D, S) == TABULAR_STATE_CAP
        with pytest.raises(SizeCapError, match=rf"{S + 1}\*\*{D + 1} = {(S + 1) ** (D + 1)} "):
            check_context_count(D + 1, S)


class TestTabularDistribution:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            TabularDistribution(1, 2, [0.5, 0.6])
        TabularDistribution(1, 2, [0.5, 0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            TabularDistribution(1, 2, [-0.1, 1.1])

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.nan, 1.0]])
    def test_nan_weight_rejected(self, weights):
        with pytest.raises(ValueError, match="sum to 1"):
            TabularDistribution(1, 2, weights)

    def test_marginal(self):
        p = TabularDistribution.from_unnormalized(2, 2, [1, 1, 0, 1])  # AA, BA, BB
        np.testing.assert_allclose(p.marginal(0), [1 / 3, 2 / 3])
        np.testing.assert_allclose(p.marginal(1), [2 / 3, 1 / 3])

    def test_json_round_trip(self):
        p = TabularDistribution.from_unnormalized(2, 3, np.arange(1, 10, dtype=float))
        q = TabularDistribution.from_json(json.loads(json.dumps(p.to_json())))
        np.testing.assert_array_equal(p.weights, q.weights)
        assert (q.D, q.S) == (2, 3)

    def test_json_round_trip_is_bit_for_bit(self):
        w = RandomSource(3).generator().random(9)
        w[2], w[5] = -0.0, 5e-324  # a negative zero and the least subnormal
        p = TabularDistribution.from_unnormalized(2, 3, w)
        obj = json.loads(json.dumps(p.to_json()))
        assert obj["weights"]["dtype"] == "<f8" and obj["weights"]["shape"] == [9]
        q = TabularDistribution.from_json(obj)
        assert np.array_equal(q.weights.view(np.int64), p.weights.view(np.int64))

    def test_list_form_still_reads(self):
        p = TabularDistribution.from_unnormalized(2, 3, np.arange(1, 10, dtype=float))
        q = TabularDistribution.from_json({"D": 2, "S": 3, "weights": p.weights.tolist()})
        assert np.array_equal(q.weights.view(np.int64), p.weights.view(np.int64))

    def test_sampling_matches_weights(self):
        p = TabularDistribution(1, 2, [0.25, 0.75])
        idx = p.sample_indices(20000, RandomSource(3))
        assert abs(idx.mean() - 0.75) < 0.02


class TestPackedTables:
    def table(self):
        t = RandomSource(4).generator().normal(0, 1e3, (3, 4, 5))
        t[0, 0, 0], t[1, 2, 3], t[2, 3, 4] = -np.inf, -0.0, np.inf
        t[0, 1, 2] = 5e-324
        return t

    def test_round_trip_is_bit_for_bit(self):
        t = self.table()
        back = unpack_table(json.loads(json.dumps(pack_table(t))), "t")
        assert back.shape == t.shape and back.dtype == np.float64
        assert np.array_equal(back.view(np.int64), t.view(np.int64))

    def test_list_form_reads_the_same_array(self):
        t = self.table()
        back = unpack_table(json.loads(json.dumps(t.tolist())), "t")
        assert np.array_equal(back.view(np.int64), t.view(np.int64))

    @pytest.mark.parametrize("form", ["packed", "list"])
    def test_result_is_writable_and_owns_its_data(self, form):
        t = self.table()
        back = unpack_table(pack_table(t) if form == "packed" else t.tolist(), "t")
        assert back.flags.writeable and back.flags.owndata
        back[0, 0, 0] = 1.0

    def test_empty_table(self):
        back = unpack_table(pack_table(np.zeros((0, 3))), "t")
        assert back.shape == (0, 3)

    @pytest.mark.parametrize("change,message", [
        ({"dtype": "<f4"}, "dtype must be '<f8'"),
        ({"dtype": ">f8"}, "dtype must be '<f8'"),
        ({"base64": "not base64!"}, "invalid base64"),
        ({"base64": "AAA"}, "invalid base64"),
        ({"base64": "ÄÄÄÄ"}, "invalid base64"),
        ({"base64": 12}, "invalid base64"),
        ({"base64": "AAAA"}, "3 bytes"),
        ({"shape": [3, 4, 6]}, "do not hold"),
        ({"shape": [3, -4, -5]}, "nonnegative"),
        ({"shape": [60.0]}, "nonnegative"),
        ({"shape": 60}, "nonnegative"),
    ])
    def test_malformed_packed_table_is_refused(self, change, message):
        obj = {**pack_table(self.table()), **change}
        with pytest.raises(ValueError, match=message):
            unpack_table(obj, "t")

    @pytest.mark.parametrize("stray", ["!", " ", "\n"])
    def test_stray_characters_in_base64_are_refused(self, stray):
        obj = pack_table(self.table())
        obj["base64"] = obj["base64"][:8] + stray + obj["base64"][8:]
        with pytest.raises(ValueError, match="invalid base64"):
            unpack_table(obj, "t")

    @pytest.mark.parametrize("key", ["dtype", "shape", "base64"])
    def test_missing_field_is_a_key_error(self, key):
        obj = pack_table(self.table())
        del obj[key]
        with pytest.raises(KeyError):
            unpack_table(obj, "t")

    @pytest.mark.parametrize("form", ["packed", "list"])
    def test_nan_is_refused_naming_the_key_and_index(self, form):
        t = self.table()
        t[1, 3, 2] = np.nan
        obj = pack_table(t) if form == "packed" else json.loads(json.dumps(t.tolist()))
        with pytest.raises(ValueError, match=r"pairwise holds NaN at index \[1, 3, 2\]"):
            unpack_table(obj, "pairwise")


class TestZeroMassError:
    def test_zero_mass_names_observed_positions(self):
        # the exact models' error names the observed positions, as Python ints
        p = TabularDistribution(2, 2, delta_weights("AA", 2))
        den = ExactDenoiser(p)
        pred = ExactMarginalPredictor(CleanPredictor.from_table(np.ones(4), 2), p)
        cases = [(den.posterior_array, "B?", (0,)), (den.posterior_array, "BA", (0, 1)),
                 (den.posterior_array, "?B", (1,)), (pred.likelihood_array, "B?", (0,)),
                 (pred.likelihood_array, "?B", (1,))]
        for answer, text, observed in cases:
            with pytest.raises(UnsupportedContextError) as exc:
                answer(row(text, 2)[None])
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

    @pytest.mark.parametrize("D,S", [
        (8, 4), (6, 5), (4, 3), (3, 10), (2, 20), (5, 9), (1, 4), (10, 3), (4, 12), (7, 5),
        (3, 1), (2, 8), (3, 16), (1, 20), (4, 7), (1, 1), (1, 8), (2, 1), (5, 2), (2, 7),
        # padded in cache blocks, (8, 4), (5, 12) and (4, 16) with a short
        # last block; S >= 8 meets the blocking at (5, 12) and (4, 16)
        (9, 3), (11, 2), (5, 12), (4, 16),
    ])
    def test_slab_adds_keep_the_bits_of_the_axis_sums(self, D, S):
        # 30% zero weights, subnormals, and a table with half its entries
        # -0.0: a padding entry over zeros only is +0.0, as np.sum gives it
        gen = np.random.default_rng(D * 100 + S)
        w = gen.random(S**D)
        w[gen.random(S**D) < 0.3] = 0.0
        signed = np.where(gen.random(S**D) < 0.5, -0.0, w)
        for values in (w, w / 3.0, w * 1e-300, signed):
            want = loop_pad_contexts(values, D, S)
            assert pad_contexts(values, D, S).tobytes() == want.tobytes()

    @staticmethod
    def peak_bytes(build) -> int:
        """Peak traced bytes that ``build()`` allocates beyond what was
        allocated before it."""
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            build()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()

    @pytest.mark.parametrize("D,S", [(8, 4), (6, 8)])
    def test_tables_allocate_no_second_table(self, D, S, monkeypatch):
        # each build allocates its own (S+1)**D table and, beside it, no
        # array of the S**D clean sequences' size or more: no p*c, clamped
        # clean or quotient copy. The clean values are made beforehand.
        gen = RandomSource(D + S).generator()
        p = TabularDistribution.from_unnormalized(D, S, gen.random(S**D))
        clean = CleanPredictor.from_table(gen.uniform(0.05, 0.95, S**D), S)
        values = clean.table(D, S)
        monkeypatch.setattr(clean, "table", lambda D, S: values)
        pred = ExactMarginalPredictor(clean, p)
        bound = 8 * (S + 1) ** D + 128 * 1024  # numpy's ufunc buffers
        assert self.peak_bytes(p.context_mass) < bound
        assert self.peak_bytes(pred._likelihoods) < bound

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
