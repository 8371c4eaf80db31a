"""Acceptance suite: one test per criterion, each printing its verdict line.

``test_criterion_3_loss_identity`` asserts the loss identity that holds for
the losses as defined: the permutation-averaged NLL equals the masking
cross-entropy weighted by the unmasking rate 1/(1-t)
(aoarm_loss == rate_weighted_fm_loss), which per token is
D x E_{m~U{1..D}}[mean masked cross-entropy]. It also asserts that the
retired relation aoarm_loss == D x fm_loss (fm_loss being the unweighted
uniform-time cross-entropy) stays visibly false; its standing counterexample
is D=1 on a fair coin, where aoarm_loss = ln 2 but D x fm_loss = (1/2) ln 2.
See the check's module docstring for the derivation pointers.
"""

import pytest

from guidesampler.acceptance import (
    DEFAULT_SEED,
    check_campaign,
    check_determinism,
    check_gamma_limits,
    check_jump_time_law,
    check_loss_identity,
    check_multi_property,
    check_posterior_exactness,
    check_sampler_equivalence,
    check_tag_boundary,
)


@pytest.fixture()
def report(capsys):
    def _report(result):
        with capsys.disabled():
            print(f"\n{result.line()}")
        return result

    return _report


class TestAcceptance:
    def test_criterion_1_posterior_exactness(self, report):
        r = report(check_posterior_exactness(DEFAULT_SEED))
        assert r.passed, r.details

    def test_criterion_2_sampler_equivalence(self, report):
        r = report(check_sampler_equivalence(DEFAULT_SEED))
        assert r.passed, r.details

    def test_criterion_3_loss_identity(self, report):
        r = report(check_loss_identity(DEFAULT_SEED))
        assert r.passed, (
            "The permutation-averaged NLL must equal the rate-weighted masking "
            "cross-entropy (weight 1/(1-t), pattern weights (m-1)!(D-m)!/D!) to 1e-9 on "
            "every instance. " + r.details
        )
        assert r.metrics["max_true_identity_gap"] <= 1e-9, r.details
        # the retired relation aoarm == D * fm_loss is false for these losses
        # (D=1 fair coin: ln 2 vs (1/2) ln 2); its gap must stay visible
        assert r.metrics["max_claimed_gap"] >= 0.1, r.details

    def test_criterion_4_jump_time_law(self, report):
        r = report(check_jump_time_law(DEFAULT_SEED))
        assert r.passed, r.details

    def test_criterion_5_tag_boundary(self, report):
        r = report(check_tag_boundary(DEFAULT_SEED))
        assert r.passed, r.details

    def test_criterion_6_multi_property(self, report):
        r = report(check_multi_property(DEFAULT_SEED))
        assert r.passed, r.details

    def test_criterion_7_gamma_limits(self, report):
        r = report(check_gamma_limits(DEFAULT_SEED))
        assert r.passed, r.details

    def test_criterion_8_campaign(self, report):
        r = report(check_campaign(DEFAULT_SEED))
        assert r.passed, r.details
        assert r.duration_s <= 600.0

    def test_criterion_9_determinism(self, report):
        r = report(check_determinism(DEFAULT_SEED))
        assert r.passed, r.details
