import itertools
import json
import re

import numpy as np
import pytest

from guidesampler import acceptance
from guidesampler.cli import load_model, load_predictor, main
from guidesampler.core import RandomSource, TabularDistribution, pack_table, unpack_table
from guidesampler.denoising import ParametricDenoiser
from guidesampler.errors import ConfigError
from guidesampler.predictors import PairwiseInteractionPredictor


@pytest.fixture()
def model_file(tmp_path):
    gen = RandomSource(5).generator()
    p = TabularDistribution.from_unnormalized(3, 3, np.exp(gen.normal(0, 0.8, 27)))
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "tabular", **p.to_json()}))
    return path


@pytest.fixture()
def predictor_file(tmp_path):
    gen = RandomSource(6).generator()
    table = 0.05 + 0.9 * gen.random(27)
    path = tmp_path / "pred.json"
    path.write_text(json.dumps({"kind": "exact_marginal", "clean_table": table.tolist()}))
    return path


class TestSampleCommand:
    def test_fixed_seed_runs_are_byte_identical(self, tmp_path, model_file):
        args = ["sample", "--model", str(model_file), "--n", "10", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("samples.txt", "paths.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_outputs_exist_and_parse(self, tmp_path, model_file):
        out = tmp_path / "run"
        assert main(["sample", "--model", str(model_file), "--n", "4", "--seed", "1",
                     "--out", str(out)]) == 0
        lines = (out / "samples.txt").read_text().strip().splitlines()
        assert len(lines) == 4 and all(len(s) == 3 for s in lines)
        paths = [json.loads(l) for l in (out / "paths.jsonl").read_text().splitlines()]
        assert len(paths) == 4
        assert sorted(paths[0]["permutation"]) == [0, 1, 2]
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["n_chains"] == 4 and diag["n_steps"] == 4 * 3
        # one weight row per distinct (context, position) pair of a step
        pairs = {(p["states"][i], p["permutation"][i]) for p in paths for i in range(3)}
        assert diag["step_weight_requests"] == len(pairs)
        cfg = json.loads((out / "resolved_config.json").read_text())
        assert cfg["command"] == "sample" and cfg["seed"] == 1

    @pytest.mark.parametrize("route", ["aoarm", "euler"])
    def test_chains_share_one_context_cache(self, tmp_path, model_file, monkeypatch, route):
        # a kernel call evaluates each of its (context, position) pairs
        # once, however many chains reach it; step_weight_requests counts
        # the pairs evaluated and denoiser_evals the distinct contexts of
        # each call, summed. The any-order route never meets a pair or a
        # context twice; the Euler route meets again the pairs of a context
        # that outlives a step
        from guidesampler.denoising import ExactDenoiser

        calls = []
        posterior = ExactDenoiser.posterior_array

        def spy(self, tokens, positions=None):
            # one record per pair; a call without positions answers every
            # position of every row
            rows = np.reshape(tokens, (-1, tokens.shape[-1]))
            at = positions
            if at is None:
                D = rows.shape[1]
                rows, at = np.repeat(rows, D, axis=0), np.tile(np.arange(D), len(rows))
            calls.append(list(zip((row.tobytes() for row in rows), at.tolist())))
            return posterior(self, tokens, positions)

        monkeypatch.setattr(ExactDenoiser, "posterior_array", spy)
        out = tmp_path / "run"
        assert main(["sample", "--model", str(model_file), "--route", route, "--n", "20",
                     "--seed", "2", "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["denoiser_evals"] == sum(len({row for row, _ in call}) for call in calls)
        seen = [pair for call in calls for pair in call]
        assert diag["step_weight_requests"] == len(seen)
        if route == "aoarm":
            assert len(seen) == len(set(seen)) < 20 * 3
            assert diag["denoiser_evals"] == len({row for row, _ in seen})

    def test_guided_sampling_with_predictor(self, tmp_path, model_file, predictor_file):
        out = tmp_path / "guided"
        rc = main(["sample", "--model", str(model_file), "--predictor", str(predictor_file),
                   "--mode", "deg", "--gamma", "2.0", "--n", "5", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        assert len((out / "samples.txt").read_text().splitlines()) == 5

    def test_pairwise_interaction_predictor_file(self, tmp_path, model_file):
        from guidesampler.core import RandomSource as RS
        from guidesampler.predictors import PairwiseInteractionPredictor

        gen = RS(9).generator()
        pred = PairwiseInteractionPredictor(3, 3, link="logistic")
        pred.single[:] = gen.normal(0, 0.5, pred.single.shape)
        path = tmp_path / "clf.json"
        path.write_text(json.dumps(pred.to_json()))
        out = tmp_path / "clf_run"
        rc = main(["sample", "--model", str(model_file), "--predictor", str(path),
                   "--mode", "tag", "--gamma", "1.0", "--n", "4", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        assert len((out / "samples.txt").read_text().splitlines()) == 4

    def test_euler_route(self, tmp_path, model_file):
        out = tmp_path / "euler"
        rc = main(["sample", "--model", str(model_file), "--route", "euler", "--dt", "0.05",
                   "--n", "3", "--seed", "4", "--out", str(out)])
        assert rc == 0
        assert len((out / "samples.txt").read_text().splitlines()) == 3

    def test_euler_temperature_on_zero_mass_prior(self, tmp_path):
        # p on {AAA, BBB}: simultaneous Euler jumps can land on a context
        # without mass, which the tempered model must report as unsupported
        model = tmp_path / "two.json"
        weights = [0.5] + [0.0] * 6 + [0.5]
        model.write_text(json.dumps({"kind": "tabular", "D": 3, "S": 2, "weights": weights}))
        out = tmp_path / "tempered"
        rc = main(["sample", "--model", str(model), "--route", "euler", "--dt", "0.05",
                   "--temperature", "0.8", "--n", "2000", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert set((out / "samples.txt").read_text().split()) == {"AAA", "BBB"}

    def test_modifier_flags(self, tmp_path, model_file):
        out = tmp_path / "mod"
        rc = main(["sample", "--model", str(model_file), "--temperature", "0.5",
                   "--wildtype-weight", "8.0", "--wildtype", "AAA",
                   "--n", "6", "--seed", "5", "--out", str(out)])
        assert rc == 0
        lines = (out / "samples.txt").read_text().splitlines()
        # a strong wild-type bias pulls samples toward AAA
        assert sum(s == "AAA" for s in lines) >= 4

    def test_wildtype_letters_parse_as_rendered(self, tmp_path):
        # at S=40 'h' renders token 39; once it parsed as 'H', token 7, and
        # the bias wrote HHH
        model = tmp_path / "s40.json"
        den = ParametricDenoiser.random(3, 40, RandomSource(8))
        model.write_text(json.dumps({"kind": "parametric", **den.to_json()}))
        out = tmp_path / "h"
        rc = main(["sample", "--model", str(model), "--wildtype", "hhh",
                   "--wildtype-weight", "50", "--n", "3", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert (out / "samples.txt").read_text().split() == ["hhh"] * 3

    def test_no_paths_flag(self, tmp_path, model_file):
        out = tmp_path / "nopaths"
        rc = main(["sample", "--model", str(model_file), "--n", "3", "--seed", "1",
                   "--no-paths", "--out", str(out)])
        assert rc == 0
        assert (out / "paths.jsonl").read_text() == ""

    def test_missing_model_is_config_error(self, tmp_path):
        assert main(["sample", "--model", str(tmp_path / "nope.json"), "--n", "1",
                     "--out", str(tmp_path / "o")]) == 2

    def test_corrupted_model_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sample", "--model", str(bad), "--n", "1", "--out", str(tmp_path / "o")]) == 2
        bad.write_text(json.dumps({"kind": "tabular", "D": 2, "S": 2, "weights": [1.0]}))
        assert main(["sample", "--model", str(bad), "--n", "1", "--out", str(tmp_path / "o")]) == 2

    def test_guided_mode_without_predictor_is_config_error(self, tmp_path, model_file):
        assert main(["sample", "--model", str(model_file), "--mode", "deg", "--n", "1",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("route", ["aoarm", "euler"])
    def test_tag_without_gradient_surface_is_config_error(self, tmp_path, model_file,
                                                          predictor_file, route):
        # an exact_marginal predictor has no gradient surface for tag to read
        assert main(["sample", "--model", str(model_file), "--predictor", str(predictor_file),
                     "--route", route, "--mode", "tag", "--n", "2",
                     "--out", str(tmp_path / "o")]) == 2

    def test_incompatible_predictor_is_config_error(self, tmp_path, model_file):
        pred = tmp_path / "pred_bad.json"
        pred.write_text(json.dumps({"kind": "exact_marginal", "clean_table": [0.5] * 16}))
        assert main(["sample", "--model", str(model_file), "--predictor", str(pred),
                     "--mode", "deg", "--n", "1", "--out", str(tmp_path / "o")]) == 2

    def test_env_seed_overrides_flag(self, tmp_path, model_file, monkeypatch):
        out1, out2, out3 = (tmp_path / n for n in ("e1", "e2", "e3"))
        main(["sample", "--model", str(model_file), "--n", "8", "--seed", "1", "--out", str(out1)])
        monkeypatch.setenv("GUIDESAMPLER_SEED", "99")
        main(["sample", "--model", str(model_file), "--n", "8", "--seed", "1", "--out", str(out2)])
        monkeypatch.setenv("GUIDESAMPLER_SEED", "1")
        main(["sample", "--model", str(model_file), "--n", "8", "--seed", "123", "--out", str(out3)])
        a = (out1 / "samples.txt").read_text()
        b = (out2 / "samples.txt").read_text()
        c = (out3 / "samples.txt").read_text()
        assert a != b  # env changed the seed
        assert a == c  # env wins over the flag

    def test_print_config(self, tmp_path, model_file, capsys):
        rc = main(["sample", "--model", str(model_file), "--n", "2", "--print-config",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["sampler"]["n_samples"] == 2
        assert not (tmp_path / "o").exists()  # print-only, no run

    def test_gamma_zero_equals_mode_none(self, tmp_path, model_file, predictor_file):
        import numpy as np
        from scipy import stats

        from guidesampler.core import RandomSource

        out_a, out_b = tmp_path / "ga", tmp_path / "gb"
        base = ["sample", "--model", str(model_file), "--n", "400", "--no-paths"]
        assert main(base + ["--mode", "none", "--seed", "21", "--out", str(out_a)]) == 0
        assert main(base + ["--predictor", str(predictor_file), "--mode", "deg",
                            "--gamma", "0.0", "--seed", "22", "--out", str(out_b)]) == 0
        # score both sample sets with a fixed real-valued function and compare
        gen = RandomSource(77).generator()
        fitness = gen.normal(0, 1, 27)

        def scores(path):
            lines = (path / "samples.txt").read_text().splitlines()
            idx = [sum((ord(c) - 65) * 3**i for i, c in enumerate(s)) for s in lines]
            return fitness[np.array(idx)]

        assert stats.ks_2samp(scores(out_a), scores(out_b)).pvalue > 0.01

    def test_flags_override_config_file(self, tmp_path, model_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "sample", "model": str(model_file),
                                   "sampler": {"n_samples": 3}, "seed": 7}))
        out = tmp_path / "o"
        rc = main(["sample", "--config", str(cfg), "--n", "5", "--out", str(out)])
        assert rc == 0
        assert len((out / "samples.txt").read_text().splitlines()) == 5

    def test_unknown_config_keys_rejected(self, tmp_path, model_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "sample", "model": str(model_file), "bogus": 1}))
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        cfg.write_text(json.dumps({"command": "sample", "model": str(model_file),
                                   "sampler": {"weird": 1}}))
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_route_mode_mismatch_is_config_error(self, tmp_path, model_file, predictor_file):
        base = ["sample", "--model", str(model_file), "--predictor", str(predictor_file),
                "--n", "2", "--out", str(tmp_path / "o")]
        assert main(base + ["--route", "aoarm", "--mode", "exact"]) == 2
        assert main(base + ["--route", "euler", "--mode", "deg"]) == 2
        assert not (tmp_path / "o").exists()
        # no flag supplies predictor_free's second model, so it is no choice
        with pytest.raises(SystemExit) as exc:
            main(base + ["--mode", "predictor_free"])
        assert exc.value.code == 2

    def test_dt_out_of_range_is_config_error(self, tmp_path, model_file):
        assert main(["sample", "--model", str(model_file), "--route", "euler", "--dt", "0.5",
                     "--n", "2", "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_negative_n_is_config_error(self, tmp_path, model_file):
        assert main(["sample", "--model", str(model_file), "--n", "-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_zero_n_is_config_error(self, tmp_path, model_file):
        assert main(["sample", "--model", str(model_file), "--n", "0",
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_unrepresentable_size_is_config_error(self, tmp_path):
        from guidesampler.denoising import ParametricDenoiser

        model = tmp_path / "big.json"
        model.write_text(json.dumps({"kind": "parametric", **ParametricDenoiser(30, 4).to_json()}))
        assert main(["sample", "--model", str(model), "--n", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_command_mismatch_rejected(self, tmp_path, model_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "verify"}))
        assert main(["sample", "--config", str(cfg), "--model", str(model_file),
                     "--out", str(tmp_path / "o")]) == 2


class TestSampleConfigMistakes:
    """Each of these is a config mistake and exits 2, without samples.
    Unchecked, temperature 0 and NaN exited 3 and inf sampled a uniform law;
    a bad wild type exited 3 with a traceback; gamma NaN exited 3 under
    guidance and 0 without it; seeds -1 and -2 drew the same samples."""

    @staticmethod
    def run(tmp_path, model_file, *flags):
        out = tmp_path / "o"
        rc = main(["sample", "--model", str(model_file), "--n", "2", "--seed", "1",
                   "--out", str(out), *flags])
        assert not (out / "samples.txt").exists()
        return rc

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_temperature_not_positive_and_finite(self, tmp_path, model_file, value):
        assert self.run(tmp_path, model_file, "--temperature", value) == 2

    @pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
    def test_wildtype_weight_not_finite_and_nonnegative(self, tmp_path, model_file, value):
        assert self.run(tmp_path, model_file, "--wildtype-weight", value, "--wildtype", "AAA") == 2

    @pytest.mark.parametrize("weight", [["--wildtype-weight", "1.0"], []],
                             ids=["weighted", "default"])
    @pytest.mark.parametrize("wildtype", ["AAZ", "AA", "AAAA", "A?A", "aaa"])
    def test_wildtype_outside_alphabet_or_wrong_length(self, tmp_path, model_file, capsys,
                                                       wildtype, weight):
        # at the default weight and temperature the modifier is the identity;
        # unchecked there, a wild type of another length sampled and exited 0
        assert self.run(tmp_path, model_file, *weight, "--wildtype", wildtype) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["none", "deg"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_gamma_not_finite_and_nonnegative(self, tmp_path, model_file, predictor_file,
                                              mode, value):
        assert self.run(tmp_path, model_file, "--predictor", str(predictor_file),
                        "--mode", mode, "--gamma", value) == 2

    @pytest.mark.parametrize("seed", ["-1", "-2", str(2**53), str(2**64)])
    def test_seed_flag_outside_range(self, tmp_path, model_file, seed):
        assert main(["sample", "--model", str(model_file), "--n", "2", "--seed", seed,
                     "--out", str(tmp_path / "o")]) == 2

    def test_env_seed_outside_range(self, tmp_path, model_file, monkeypatch):
        monkeypatch.setenv("GUIDESAMPLER_SEED", str(2**53 + 1))
        assert self.run(tmp_path, model_file) == 2

    @pytest.mark.parametrize("seed", [-1, 2**53, "x", None])
    def test_config_seed_outside_range(self, tmp_path, model_file, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": seed}))
        assert main(["sample", "--config", str(cfg), "--model", str(model_file),
                     "--out", str(tmp_path / "o")]) == 2

    def test_largest_seed_samples(self, tmp_path, model_file):
        assert main(["sample", "--model", str(model_file), "--n", "2",
                     "--seed", str(2**53 - 1), "--out", str(tmp_path / "o")]) == 0

    def test_campaign_and_verify_refuse_the_seed_too(self, tmp_path):
        assert main(["campaign", "--seed", "-1", "--out", str(tmp_path / "c")]) == 2
        assert main(["verify", "--seed", str(2**53), "--out", str(tmp_path / "v")]) == 2

    # unchecked, n_samples 2.5 wrote 2 samples and true wrote 1, the text
    # "false" recorded paths, numbers as text were read as numbers, and a
    # number as the wild type or a null weight exited 3
    @pytest.mark.parametrize("key, value", [
        ("n_samples", 2.5), ("n_samples", True), ("n_samples", "3"),
        ("record_paths", "false"), ("record_paths", 0),
        ("wildtype", 5), ("wildtype", ["A", "A", "A"]),
        ("gamma", "1"), ("dt", "0.05"), ("temperature", "1"),
        ("wildtype_weight", None), ("t0", "0"),
    ])
    def test_sampler_section_types(self, tmp_path, model_file, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sampler": {key: value}}))
        out = tmp_path / "o"
        assert main(["sample", "--config", str(cfg), "--model", str(model_file),
                     "--out", str(out)]) == 2
        assert not (out / "samples.txt").exists()
        assert key in capsys.readouterr().err

    # unchecked, seeds 5.7, "5" and true ran as seeds 5, 5 and 1; output_dir
    # 5 exited 3; a model or predictor 7 opened that file descriptor and
    # true opened stdout; sampler 5 exited 1 with a traceback and [] ran the
    # defaults; verify's only 5 exited 3 after writing resolved_config.json
    @pytest.mark.parametrize("command, key, value", [
        ("sample", "seed", 5.7), ("sample", "seed", "5"), ("sample", "seed", True),
        ("sample", "output_dir", 5), ("sample", "model", 7), ("sample", "model", True),
        ("sample", "predictor", 9), ("sample", "sampler", 5), ("sample", "sampler", []),
        ("verify", "only", 5), ("verify", "only", [5]), ("verify", "only", "mixing"),
        ("campaign", "campaign", 5), ("campaign", "campaign", []),
    ])
    def test_top_level_types(self, tmp_path, model_file, capsys, command, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "o"
        flags = ["--model", str(model_file)] if command == "sample" and key != "model" else []
        assert main([command, "--config", str(cfg), *flags, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    def test_resolved_config_runs_again(self, tmp_path, model_file):
        # a resolved config holds "predictor": null when no predictor is given
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["sample", "--model", str(model_file), "--n", "3", "--seed", "4",
                     "--out", str(first)]) == 0
        assert json.loads((first / "resolved_config.json").read_text())["predictor"] is None
        assert main(["sample", "--config", str(first / "resolved_config.json"),
                     "--out", str(second)]) == 0
        assert (first / "samples.txt").read_bytes() == (second / "samples.txt").read_bytes()

    @pytest.mark.parametrize("S", [62, 63])
    def test_alphabet_beyond_printable_letters(self, tmp_path, capsys, S):
        # token 62 renders as chr(127), and from S = 69 on a letter can break
        # a line of samples.txt; S = 62 ends at '~' and still samples
        model = tmp_path / "wide.json"
        p = TabularDistribution.from_unnormalized(2, S, np.ones(S * S))
        model.write_text(json.dumps({"kind": "tabular", **p.to_json()}))
        out = tmp_path / "o"
        rc = main(["sample", "--model", str(model), "--n", "5", "--seed", "1", "--out", str(out)])
        if S == 62:
            assert rc == 0
            assert [len(line) for line in (out / "samples.txt").read_text().splitlines()] == [2] * 5
        else:
            assert rc == 2
            assert not (out / "samples.txt").exists()
            assert "S = 62" in capsys.readouterr().err


def as_lists(obj: dict) -> dict:
    """The same file with every packed table written as nested lists."""
    return {k: unpack_table(v, k).tolist() if isinstance(v, dict) else v for k, v in obj.items()}


class TestModelFiles:
    """Model and predictor files carry each float table packed as base64
    float64; the nested-list form is still read, to the same bits."""

    @staticmethod
    def files():
        """JSON objects of a parametric model and predictor, a tabular model
        and an exact_marginal predictor, all at D=3, S=3."""
        gen = RandomSource(12).generator()
        den = ParametricDenoiser.random(3, 3, RandomSource(13), scale=0.5)
        pred = PairwiseInteractionPredictor(3, 3, bias=-0.2)
        pred.single[:] = gen.normal(0, 0.5, pred.single.shape)
        pred.pair[:] = np.triu(np.ones((3, 3)), 1)[:, :, None, None] * gen.normal(0, 0.5, (4, 4))
        p = TabularDistribution.from_unnormalized(3, 3, np.exp(gen.normal(0, 0.8, 27)))
        return {
            "model": {"kind": "parametric", **den.to_json()},
            "predictor": pred.to_json(),
            "tabular": {"kind": "tabular", **p.to_json()},
            "clean": {"kind": "exact_marginal",
                      "clean_table": pack_table(0.05 + 0.9 * gen.random(27))},
        }

    @staticmethod
    def sample(tmp_path, name, model, predictor, route):
        paths = {}
        for what, obj in (("model", model), ("predictor", predictor)):
            paths[what] = tmp_path / f"{name}_{what}.json"
            paths[what].write_text(json.dumps(obj))
        out = tmp_path / name
        rc = main(["sample", "--model", str(paths["model"]), "--predictor",
                   str(paths["predictor"]), "--route", route,
                   "--mode", "deg" if route == "aoarm" else "exact", "--gamma", "1.5",
                   "--dt", "0.05", "--n", "6", "--seed", "5", "--out", str(out)])
        assert rc == 0
        return [(out / f).read_bytes() for f in ("samples.txt", "paths.jsonl")]

    @pytest.mark.parametrize("pair", [("model", "predictor"), ("tabular", "clean")])
    @pytest.mark.parametrize("route", ["aoarm", "euler"])
    def test_list_and_packed_files_sample_the_same_bytes(self, tmp_path, pair, route):
        files = self.files()
        model, predictor = (files[k] for k in pair)
        packed = self.sample(tmp_path, "packed", model, predictor, route)
        lists = self.sample(tmp_path, "lists", as_lists(model), as_lists(predictor), route)
        assert packed == lists

    def test_to_json_writes_every_table_packed(self):
        for obj in self.files().values():
            tables = [k for k in obj if k in ("single_site", "pairwise", "weights", "clean_table")]
            assert tables and all(obj[k]["dtype"] == "<f8" for k in tables)

    @pytest.mark.parametrize("form", [lambda obj: obj, as_lists])
    def test_loaded_tables_are_writable_and_own_their_data(self, tmp_path, form):
        files = self.files()
        for what in ("model", "predictor"):
            (tmp_path / f"{what}.json").write_text(json.dumps(form(files[what])))
        den, _ = load_model(tmp_path / "model.json")
        pred = load_predictor(tmp_path / "predictor.json", den, None)
        for table in (den.single, den.pair, pred.single, pred.pair):
            assert table.flags.writeable and table.flags.owndata

    @staticmethod
    def broken(obj: dict, key: str, defect: str) -> dict:
        """``obj`` with table ``key`` made malformed by ``defect``."""
        packed = obj[key]
        table = unpack_table(packed, key)
        if defect == "bad base64":
            # a lenient decoder would skip the stray "@" and read the table
            packed = {**packed, "base64": "@" + packed["base64"]}
        elif defect == "dtype <f4":
            packed = {**packed, "dtype": "<f4"}
        elif defect == "byte count":
            packed = {**packed, "base64": pack_table(table.ravel()[1:])["base64"]}
        elif defect == "another shape":
            packed = pack_table(np.zeros(table.shape[:-1] + (table.shape[-1] + 1,)))
        else:  # NaN in either form
            table.flat[1] = np.nan
            packed = pack_table(table) if defect == "NaN packed" else table.tolist()
        return {**obj, key: packed}

    @pytest.mark.parametrize("defect", ["bad base64", "dtype <f4", "byte count",
                                        "another shape", "NaN packed", "NaN list"])
    @pytest.mark.parametrize("what,key", [
        ("model", "single_site"), ("model", "pairwise"), ("predictor", "single_site"),
        ("predictor", "pairwise"), ("tabular", "weights"), ("clean", "clean_table"),
    ])
    def test_malformed_table_is_config_error(self, tmp_path, capsys, what, key, defect):
        files = self.files()
        files[what] = self.broken(files[what], key, defect)
        model, predictor = ("tabular", "clean") if what in ("tabular", "clean") else (
            "model", "predictor")
        paths = {}
        for name in (model, predictor):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(files[name]))
        with pytest.raises(ConfigError, match=re.escape(str(paths[what]))):
            den, p_tab = load_model(paths[model])
            load_predictor(paths[predictor], den, p_tab)
        out = tmp_path / "o"
        assert main(["sample", "--model", str(paths[model]), "--predictor",
                     str(paths[predictor]), "--mode", "deg", "--n", "2", "--seed", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(paths[what]) in err
        if defect != "another shape":  # the constructors' shape checks name no key
            assert key in err
        assert not (out / "samples.txt").exists()


class TestConfigErrorWritesNothing:
    """A config mistake that loading the model or predictor, matching their
    sizes, building the guidance or selecting the checks finds exits 2 and
    leaves no output directory."""

    @staticmethod
    def sample_args(tmp_path, model_file, predictor_file, case):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text("{not json")
        if case == "missing model":
            return ["--model", str(tmp_path / "nope.json")]
        if case == "corrupt model":
            return ["--model", str(corrupt)]
        if case == "corrupt predictor":
            return ["--model", str(model_file), "--predictor", str(corrupt), "--mode", "deg"]
        if case == "unrepresentable size":
            big = tmp_path / "big.json"
            big.write_text(json.dumps({"kind": "parametric",
                                       **ParametricDenoiser(30, 4).to_json()}))
            return ["--model", str(big)]
        if case == "size mismatch":
            other = tmp_path / "pred_d2.json"
            other.write_text(json.dumps({"kind": "exact_marginal", "clean_table": [0.5] * 16}))
            return ["--model", str(model_file), "--predictor", str(other), "--mode", "deg"]
        # an exact_marginal predictor has no gradient surface
        return ["--model", str(model_file), "--predictor", str(predictor_file), "--mode", "tag"]

    @pytest.mark.parametrize("case", ["missing model", "corrupt model", "corrupt predictor",
                                      "unrepresentable size", "size mismatch",
                                      "tag with exact_marginal"])
    def test_sample(self, tmp_path, model_file, predictor_file, capsys, case):
        out = tmp_path / "o"
        args = self.sample_args(tmp_path, model_file, predictor_file, case)
        assert main(["sample", *args, "--n", "2", "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_verify_unknown_check(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert main(["verify", "--only", "nosuch", "--out", str(out)]) == 2
        assert not out.exists()
        assert "unknown acceptance checks: ['nosuch']" in capsys.readouterr().err


class TestVerifyCommand:
    def test_single_passing_check_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "v"
        rc = main(["verify", "--only", "multi_property", "--seed", "20250801",
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "[PASS] multi_property" in text
        results = json.loads((out / "verify_results.json").read_text())
        # --only runs exactly the named check
        assert len(results["checks"]) == 1
        assert results["checks"][0]["pass"] is True

    def test_results_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        # elapsed time belongs in verify_diagnostics.json only
        written = []
        for start, tick in ((0.0, 1.0), (5000.0, 13.0)):
            monkeypatch.setattr(
                acceptance.time, "perf_counter", itertools.count(start, tick).__next__
            )
            out = tmp_path / f"v{start:g}"
            rc = main(["verify", "--only", "posterior_exactness", "--seed", "20250801",
                       "--out", str(out)])
            assert rc == 0
            written.append((out / "verify_results.json").read_bytes())
        assert written[0] == written[1]

    def test_unknown_check_is_config_error(self, tmp_path):
        assert main(["verify", "--only", "nonsense", "--out", str(tmp_path / "v")]) == 2

    def test_failing_check_exits_one(self, tmp_path, capsys, monkeypatch):
        # a check registered here fails by construction, so the exit code
        # does not depend on any real criterion being red
        monkeypatch.setitem(
            acceptance.ACCEPTANCE_CHECKS,
            "always_fails",
            lambda seed: acceptance.CheckResult("always_fails", False, "fails by construction"),
        )
        out = tmp_path / "v"
        rc = main(["verify", "--only", "always_fails", "--seed", "20250801",
                   "--out", str(out)])
        assert rc == 1
        assert "[FAIL] always_fails" in capsys.readouterr().out
        results = json.loads((out / "verify_results.json").read_text())
        assert results["checks"][0]["pass"] is False

    def test_runtime_error_exits_three(self, tmp_path):
        # output "directory" is an existing file: mkdir blows up at runtime
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a dir")
        rc = main(["verify", "--only", "multi_property", "--out", str(blocker)])
        assert rc == 3


class TestCampaignCommand:
    def quick_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "campaign",
            "seed": 31,
            "campaign": {
                "landscape": {"D": 4, "S": 3, "target": {"kind": "quantile", "q": 0.01}},
                "n_labeled": 120, "k": 15, "n_filter_total": 30,
                "gammas": [1.0], "refit_qs": [0.5],
                "classifier_epochs": 30, "refit_train_steps": 60,
                "seeds": [0, 1, 2], "require_extrapolative": False,
            },
        }))
        return cfg

    def test_rows_and_rerun_identical(self, tmp_path):
        cfg = self.quick_config(tmp_path)
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["campaign", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["campaign", "--config", str(cfg), "--out", str(out2)]) == 0
        lines = (out1 / "campaign.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4 * 3  # header + 4 arms x 3 seeds
        assert (out1 / "campaign.csv").read_bytes() == (out2 / "campaign.csv").read_bytes()
        summary = json.loads((out1 / "campaign_summary.json").read_text())
        assert "unguided" in summary["arms"]

    def test_missing_output_dir_created(self, tmp_path):
        cfg = self.quick_config(tmp_path)
        out = tmp_path / "deep" / "nested" / "dir"
        assert main(["campaign", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "campaign.csv").exists()


class TestCampaignConfigMistakes:
    """Each of these is a config mistake and exits 2 before any work.
    Unchecked, the bad counts, gammas, refit quantiles and label fractions
    exited 3 after the first seeds had run, an empty seed list exited 0 with
    no rows, and refit_train_steps true trained one step and exited 0."""

    @staticmethod
    def run(tmp_path, **campaign):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"campaign": campaign}))
        out = tmp_path / "c"
        rc = main(["campaign", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()
        return rc

    def test_fractional_refit_train_steps(self, tmp_path):
        assert self.run(tmp_path, refit_train_steps=1500.5) == 2

    def test_string_refit_train_steps(self, tmp_path):
        assert self.run(tmp_path, refit_train_steps="x") == 2

    def test_negative_refit_train_steps(self, tmp_path):
        assert self.run(tmp_path, refit_train_steps=-5) == 2

    def test_boolean_refit_train_steps(self, tmp_path):
        assert self.run(tmp_path, refit_train_steps=True) == 2

    def test_fractional_classifier_epochs(self, tmp_path):
        assert self.run(tmp_path, classifier_epochs=2.5) == 2

    def test_zero_k(self, tmp_path):
        assert self.run(tmp_path, k=0) == 2

    def test_k_above_n_filter_total(self, tmp_path):
        assert self.run(tmp_path, k=50, n_filter_total=40) == 2

    def test_empty_seeds(self, tmp_path):
        assert self.run(tmp_path, seeds=[]) == 2

    def test_landscape_not_an_object(self, tmp_path):
        assert self.run(tmp_path, landscape=5) == 2

    @pytest.mark.parametrize("seeds", [[0, "1"], [0, 1.5], [True], 3])
    def test_seeds_not_a_list_of_integers(self, tmp_path, seeds):
        assert self.run(tmp_path, seeds=seeds) == 2

    # each of these exited 3 after resolved_config.json was written and
    # seed 0's first arms had run
    def test_negative_gamma(self, tmp_path):
        assert self.run(tmp_path, gammas=[-1.0]) == 2

    def test_zero_refit_q(self, tmp_path):
        assert self.run(tmp_path, refit_qs=[0.0]) == 2

    def test_label_top_fraction_above_one(self, tmp_path):
        assert self.run(tmp_path, label_top_fraction=1.5) == 2

    # small enough that a campaign the check lets through ends in seconds
    FAST = {"n_labeled": 60, "k": 5, "n_filter_total": 10, "classifier_epochs": 2,
            "refit_train_steps": 2, "seeds": [0], "gammas": [1.0], "refit_qs": [0.5],
            "require_extrapolative": False}

    # unchecked, "false" ran the multi-property campaign and "no" added the
    # exact arm; D 4.5 ran as D=4 and axes "2" was read as 2; a landscape
    # seed, which no draw reads, was accepted and ignored; the others
    # exited 3 once the first seed ran, or (D 9) after the output was made
    @pytest.mark.parametrize("mistake", [
        {"acceptance_gamma": "x"}, {"acceptance_gamma": -1.0},
        {"multi_property": "false"}, {"include_exact_arm": "no"},
        {"require_extrapolative": 1},
        {"landscape": {"D": 4.5}}, {"landscape": {"D": 0}}, {"landscape": {"D": 9}},
        {"landscape": {"S": 1}}, {"landscape": {"S": "4"}},
        {"landscape": {"axes": "2"}}, {"landscape": {"axes": 3}},
        {"landscape": {"bogus": 1}}, {"landscape": {"seed": 3}},
        {"landscape": {"energy_scale": "big"}},
        {"landscape": {"coupling_scale": -0.1}},
        {"landscape": {"target": {"kind": "top"}}},
        {"landscape": {"target": {"kind": "quantile", "pct": 0.1}}},
        {"landscape": {"target": {"kind": "quantile", "q": "0.001"}}},
        {"landscape": {"target": {"kind": "threshold"}}},
        {"landscape": {"axes": 2, "target": {"kind": "rectangle", "bounds": [[0.0, 1.0]]}}},
    ], ids=lambda m: json.dumps(m, separators=(",", ":")))
    def test_mistake_exits_2_before_any_seed(self, tmp_path, capsys, mistake):
        assert self.run(tmp_path, **{**self.FAST, **mistake}) == 2
        assert "Traceback" not in capsys.readouterr().err
