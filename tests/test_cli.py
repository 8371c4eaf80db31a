import itertools
import json

import numpy as np
import pytest

from guidesampler import acceptance
from guidesampler.cli import main
from guidesampler.core import RandomSource, TabularDistribution


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
        assert not (tmp_path / "o" / "samples.txt").exists()

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

    @pytest.mark.parametrize("wildtype", ["AAZ", "AA", "AAAA"])
    def test_wildtype_outside_alphabet_or_wrong_length(self, tmp_path, model_file, capsys, wildtype):
        assert self.run(tmp_path, model_file, "--wildtype-weight", "1.0", "--wildtype", wildtype) == 2
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
