
import numpy as np
import pytest

from guidesampler.core import Alphabet, RandomSource
from guidesampler.bench import (
    _planted_table,
    check_campaign_config,
    make_landscape,
    metrics,
    prepare_campaign_seed,
    resolve_campaign_config,
    run_campaign,
    run_campaign_seed,
    run_posthoc_filter,
    run_refit_baseline,
    run_unguided,
    write_campaign_csv,
)
from guidesampler.denoising import ExactDenoiser
from guidesampler.errors import SizeCapError

from bruteforce import loop_planted_table

AB = Alphabet(2)

SMALL_SPEC = {
    "D": 4,
    "S": 3,
    "target": {"kind": "quantile", "q": 0.01},
}


class TestMakeLandscape:
    def test_zero_energies_give_uniform(self):
        land = make_landscape(
            {"D": 3, "S": 2, "energy_scale": 0.0, "coupling_scale": 0.0,
             "target": {"kind": "quantile", "q": 0.01}},
            RandomSource(1),
        )
        np.testing.assert_allclose(land.p_data.weights, 1 / 8)

    def test_quantile_target_mass_in_window(self):
        land = make_landscape(
            {"D": 8, "S": 4, "target": {"kind": "quantile", "q": 0.001}}, RandomSource(2)
        )
        assert 0.0005 <= land.target_mass <= 0.002

    @pytest.mark.parametrize("D, S", [(8, 4), (6, 5), (5, 3), (3, 2), (1, 4)])
    def test_planted_table_matches_loop_reference_bit_for_bit(self, D, S):
        gen = RandomSource(D * 10 + S).generator()
        h = gen.normal(0, 1.0, (D, S))
        J = gen.normal(0, 0.5, (D, D, S, S))
        assert _planted_table(D, S, h, J).tobytes() == loop_planted_table(D, S, h, J).tobytes()

    def test_caps_enforced(self):
        with pytest.raises(SizeCapError):
            make_landscape({"D": 9, "S": 4, "target": {"kind": "quantile", "q": 0.01}}, RandomSource(0))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            make_landscape({"D": 3, "S": 2, "bogus": 1}, RandomSource(0))

    def test_rng_must_be_a_source_or_generator(self):
        # an int seed died inside numpy with an AttributeError
        with pytest.raises(TypeError, match="RandomSource or numpy Generator"):
            make_landscape(SMALL_SPEC, 5)

    def test_two_axis_rectangle_target(self):
        land = make_landscape(
            {"D": 4, "S": 3, "axes": 2,
             "target": {"kind": "rectangle", "bounds": [[1.0, float("inf")], [float("-inf"), 0.0]]}},
            RandomSource(4),
        )
        assert land.n_axes == 2
        fv = land.fitness_rows(np.array([[0, 1, 2, 0]]))
        assert fv.shape == (1, 2)
        # anticorrelated single-site effects
        corr = np.corrcoef(land.fitness_tables[0], land.fitness_tables[1])[0, 1]
        assert corr < 0


class TestMetrics:
    def land(self):
        return make_landscape(SMALL_SPEC, RandomSource(5))

    def test_identical_samples_zero_diversity(self):
        land = self.land()
        rows = np.tile(np.array([0, 1, 2, 0]), (5, 1))
        _, diversity, _ = metrics(rows, land, None)
        assert diversity == 0.0

    def test_hand_counted_diversity(self):
        # {AA, BB}: the single pair differs at both positions
        land = make_landscape(
            {"D": 2, "S": 2, "target": {"kind": "threshold", "value": 1e9}}, RandomSource(6)
        )
        rows = np.array([[0, 0], [1, 1]])
        _, diversity, _ = metrics(rows, land, None)
        assert diversity == 2.0

    def test_member_of_reference_has_zero_novelty(self):
        land = self.land()
        rows = np.array([[0, 1, 2, 0]])
        refs = np.array([[0, 1, 2, 0], [1, 1, 1, 1]])
        _, _, novelty = metrics(rows, land, refs)
        assert novelty == 0.0

    def test_success_uses_true_fitness(self):
        land = self.land()
        rows = np.stack([np.array([0, 1, 2, 0]), np.array([2, 2, 1, 1])])
        want = land.success_mask(rows).mean()
        success, _, _ = metrics(rows, land, None)
        assert success == want

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics(np.empty((0, 4), dtype=int), self.land(), None)


class TestArms:
    def setup(self, seed=7):
        cfg = resolve_campaign_config(
            {"landscape": SMALL_SPEC, "n_labeled": 200, "k": 30, "n_filter_total": 60,
             "classifier_epochs": 60, "refit_train_steps": 200, "seeds": [0],
             "require_extrapolative": False}
        )
        return cfg, prepare_campaign_seed(cfg, RandomSource(seed), 0)

    def test_filter_with_k_equal_n_total_is_unguided_set(self):
        cfg, ctx = self.setup()
        land, den, clf = ctx["landscape"], ctx["denoiser"], ctx["classifier"]
        rows_f, _ = run_posthoc_filter(den, clf, land, 30, 30, RandomSource(8).substream(1))
        rows_u, _ = run_unguided(den, land, 30, RandomSource(8).substream(1))
        assert np.array_equal(np.sort(rows_f.view("i8,i8,i8,i8"), axis=0),
                              np.sort(rows_u.view("i8,i8,i8,i8"), axis=0))

    def test_filter_k_exceeding_total_rejected(self):
        cfg, ctx = self.setup()
        with pytest.raises(ValueError):
            run_posthoc_filter(ctx["denoiser"], ctx["classifier"], ctx["landscape"], 10, 20, RandomSource(0))

    def test_easy_target_filter_matches_unguided_rate(self):
        # target mass ~0.5: filtering cannot hurt much; sanity of the metric plumbing
        land = make_landscape(
            {"D": 3, "S": 2, "target": {"kind": "quantile", "q": 0.5}}, RandomSource(9)
        )
        den = ExactDenoiser(land.p_data)
        rows, res = run_unguided(den, land, 4000, RandomSource(10))
        # binomial 3-sigma window around the true mass under p_data
        se = (land.target_mass * (1 - land.target_mass) / 4000) ** 0.5
        assert abs(res.success_rate - land.target_mass) < 3 * se + 0.02

    def test_refit_top_q_one_trains_on_everything(self):
        cfg, ctx = self.setup()
        rows, res = run_refit_baseline(
            ctx["labeled_rows"], ctx["labeled_values"], 1.0, RandomSource(11),
            ctx["landscape"], 20, train_steps=100,
        )
        assert res.extra["n_curated"] == len(ctx["labeled_values"])
        assert rows.shape == (20, 4)

    def test_refit_invalid_q_rejected(self):
        cfg, ctx = self.setup()
        for q in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                run_refit_baseline(
                    ctx["labeled_rows"], ctx["labeled_values"], q, RandomSource(12),
                    ctx["landscape"], 5,
                )


class TestCampaign:
    def quick_cfg(self):
        return {
            "landscape": SMALL_SPEC,
            "n_labeled": 150,
            "k": 20,
            "n_filter_total": 40,
            "gammas": [1.0],
            "refit_qs": [0.5],
            "classifier_epochs": 40,
            "refit_train_steps": 100,
            "seeds": [0, 1, 2],
            "require_extrapolative": False,
        }

    def test_row_count_and_csv(self, tmp_path):
        results, summary = run_campaign(self.quick_cfg(), RandomSource(13))
        # 4 arms x 3 seeds
        assert len(results) == 12
        path = tmp_path / "campaign.csv"
        write_campaign_csv(results, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 13
        assert lines[0].startswith("arm,seed,gamma")

    def test_rerun_identical(self, tmp_path):
        r1, _ = run_campaign(self.quick_cfg(), RandomSource(14))
        r2, _ = run_campaign(self.quick_cfg(), RandomSource(14))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_campaign_csv(r1, a)
        write_campaign_csv(r2, b)
        assert a.read_bytes() == b.read_bytes()

    def test_summary_has_ci_and_matched_tags(self):
        cfg = self.quick_cfg()
        cfg["gammas"] = [1.0, 10.0]
        cfg["acceptance_gamma"] = 10.0
        results, summary = run_campaign(cfg, RandomSource(16))
        assert "guidance_g10" in summary["arms"]
        m = summary["arms"]["guidance_g10"]["success_rate"]
        assert m["ci_lo"] <= m["mean"] <= m["ci_hi"]
        assert "filter" in summary["matched"]
        assert set(summary["matched"]["filter"]) == {"wall_time_ratio", "matched"}

    def test_unknown_config_keys_rejected(self):
        with pytest.raises(ValueError):
            resolve_campaign_config({"bogus": 1})

    def test_defaults_pass_the_config_check(self):
        check_campaign_config(resolve_campaign_config(None))

    @pytest.mark.parametrize("key, value", [
        ("refit_train_steps", 1500.5), ("refit_train_steps", True), ("classifier_epochs", -1),
        ("n_labeled", 0), ("k", 0), ("seeds", []), ("seeds", (0, 1)),
        ("gammas", [-1.0]), ("gammas", [float("nan")]), ("gammas", [True]), ("gammas", 1.0),
        ("refit_qs", [0.0]), ("refit_qs", [1.5]), ("label_top_fraction", 1.5),
        ("label_top_fraction", 0),
    ])
    def test_config_mistake_raises_before_any_seed_runs(self, monkeypatch, key, value):
        ran = []
        monkeypatch.setattr("guidesampler.bench.run_campaign_seed", lambda *a: ran.append(a))
        with pytest.raises(ValueError, match=key):
            run_campaign({**self.quick_cfg(), key: value}, RandomSource(0))
        assert not ran

    def test_labeled_data_excludes_target_region(self):
        cfg = resolve_campaign_config(
            {"landscape": {"D": 4, "S": 3, "target": {"kind": "quantile", "q": 0.05}},
             "n_labeled": 400, "require_extrapolative": False}
        )
        ctx = prepare_campaign_seed(cfg, RandomSource(17), 0)
        land = ctx["landscape"]
        assert not land.success_mask(ctx["labeled_rows"]).any()

    def test_exact_upper_bound_arm(self):
        cfg = self.quick_cfg()
        cfg["include_exact_arm"] = True
        cfg["acceptance_gamma"] = 1.0
        cfg["seeds"] = [0]
        results, _ = run_campaign(cfg, RandomSource(18))
        assert any(r.arm == "guidance_exact_g1" for r in results)

    @staticmethod
    def multi_cfg():
        return resolve_campaign_config({
            "multi_property": True,
            "landscape": {"D": 6, "S": 3},
            "n_labeled": 250, "k": 20, "n_filter_total": 40,
            "gammas": [1.0], "refit_qs": [0.5],
            "classifier_epochs": 40, "refit_train_steps": 60,
            "seeds": [0],
        })

    def test_multi_property_campaign(self):
        from guidesampler.predictors import ProductPredictor

        cfg = self.multi_cfg()
        ctx = prepare_campaign_seed(cfg, RandomSource(19), 0)
        land = ctx["landscape"]
        # rectangle target over two anticorrelated axes, rare under p_data,
        # and anchored strictly beyond the labeled points
        assert land.n_axes == 2
        assert land.spec["target"]["kind"] == "rectangle"
        assert 0.0 < land.target_mass <= 1e-3
        assert not land.success_mask(ctx["labeled_rows"]).any()
        assert isinstance(ctx["classifier"], ProductPredictor)
        results = run_campaign_seed(cfg, RandomSource(19), 0)
        assert {r.arm for r in results} == {"unguided", "filter", "guidance_g1", "refit_q0.5"}

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_anchored_landscape_equals_a_fresh_one(self, seed):
        # anchoring re-resolves only the target on the drawn tables: a
        # landscape drawn from the anchored spec on the same substream is
        # the same, bit for bit. (Seed 2 of this small landscape has no
        # rectangle beyond the labeled frontier, and anchoring raises.)
        master = RandomSource(19)
        land = prepare_campaign_seed(self.multi_cfg(), master, seed)["landscape"]
        fresh = make_landscape(land.spec, master.substream(seed).substream(0))
        assert land.p_data.weights.tobytes() == fresh.p_data.weights.tobytes()
        assert len(land.fitness_tables) == len(fresh.fitness_tables) == 2
        for a, b in zip(land.fitness_tables, fresh.fitness_tables):
            assert a.tobytes() == b.tobytes()
        every_state = np.stack(land.fitness_tables, axis=1)
        assert np.array_equal(land.target(every_state), fresh.target(every_state))
        assert land.target(every_state).any()
        assert land.target_mass == fresh.target_mass
        assert land.spec == fresh.spec
