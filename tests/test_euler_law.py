"""The Euler route samples the exact law of its step rule.

:func:`bruteforce.euler_rule_law` carries the rule's law over every context
at D=4, S=3, with weights formed pair by pair from the models' own answers.
Each Euler mode, at two step sizes and two switch points, is compared with
it by ``chi_square_gof`` at alpha = 0.001, and so is a prior with
zero-mass contexts, where jumps that land together on no mass are undone.
"""

import numpy as np
import pytest

from guidesampler.core import RandomSource, TabularDistribution
from guidesampler.denoising import ExactDenoiser
from guidesampler.oracle import EmpiricalDistribution, chi_square_gof
from guidesampler.predictors import CleanPredictor, ExactMarginalPredictor, PairwiseInteractionPredictor
from guidesampler.sampling import GuidanceConfig, euler_sample_many

from bruteforce import euler_rule_law

D, S = 4, 3
N = 20_000


def models():
    """A random prior, a clean predictor, a pairwise predictor for tag, and
    a second random prior for predictor_free."""
    gen = RandomSource(3101).generator()
    p = TabularDistribution.from_unnormalized(D, S, np.exp(gen.normal(0, 0.8, S**D)))
    clean = CleanPredictor.from_table(0.05 + 0.9 * gen.random(S**D), S)
    pairwise = np.triu(np.ones((D, D)), 1)[:, :, None, None] * gen.normal(0, 0.4, (D, D, S + 1, S + 1))
    gradient = PairwiseInteractionPredictor(D, S, link="logistic", bias=float(gen.normal(0, 0.5)),
                                            single=gen.normal(0, 0.8, (D, S + 1)), pairwise=pairwise)
    second = TabularDistribution.from_unnormalized(D, S, np.exp(gen.normal(0, 0.8, S**D)))
    return p, clean, gradient, second


def config(mode, t0):
    p, clean, gradient, second = models()
    if mode == "none":
        return GuidanceConfig(t0=t0)
    if mode == "predictor_free":
        return GuidanceConfig(mode=mode, gamma=3.0, second_denoiser=ExactDenoiser(second), t0=t0)
    predictor = gradient if mode == "tag" else ExactMarginalPredictor(clean, p)
    return GuidanceConfig(mode=mode, gamma=3.0, predictor=predictor, t0=t0)


def gate(den, cfg, dt, seed):
    """The chi-square verdict of n Euler draws against the rule law, and the
    law's undone mass."""
    weights, undone = euler_rule_law(den, cfg, dt)
    rows, _ = euler_sample_many(den, cfg, dt, N, RandomSource(seed))
    emp = EmpiricalDistribution.from_token_rows(rows, den.D, den.S)
    return chi_square_gof(emp, TabularDistribution(den.D, den.S, weights)), undone


MODES = ("none", "exact", "tag", "predictor_free")


@pytest.mark.parametrize("t0", [0.0, 0.5])
@pytest.mark.parametrize("dt", [0.1, 0.01])
@pytest.mark.parametrize("mode", MODES)
def test_rule_law(mode, dt, t0):
    seed = 3110 + 4 * MODES.index(mode) + 2 * (dt == 0.01) + (t0 > 0)  # one per cell
    verdict, undone = gate(ExactDenoiser(models()[0]), config(mode, t0), dt, seed)
    assert undone == 0.0  # the prior has full support
    assert verdict.passed, verdict


def test_rule_law_with_undone_jumps():
    # p on {AAA, BBB}: two positions that jump in one step land on a context
    # with no mass unless they agree, and then only the first jump is kept
    w = np.zeros(8)
    w[[0, 7]] = 0.5
    p = TabularDistribution(3, 2, w)
    clean = CleanPredictor.from_table(0.3 + 0.4 * (np.arange(8) % 2), 2)
    cfg = GuidanceConfig(mode="exact", gamma=3.0, predictor=ExactMarginalPredictor(clean, p))
    verdict, undone = gate(ExactDenoiser(p), cfg, 0.1, 3130)
    assert undone > 0.01
    assert verdict.passed, verdict
