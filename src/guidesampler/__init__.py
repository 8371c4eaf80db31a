"""Guided discrete-sequence generation over masking noise processes.

Subpackages:

* :mod:`guidesampler.core`: alphabets, tabular distributions,
  seeded, reproducible randomness; a sequence is a token row (D,) and n of
  them a token matrix (n, D) in every module;
* :mod:`guidesampler.denoising`: clean-token posterior models and exact
  loss evaluators;
* :mod:`guidesampler.predictors`: property likelihood models on partially
  masked inputs;
* :mod:`guidesampler.sampling`: Euler CTMC integration, any-order
  autoregressive sampling, and the guidance mechanisms;
* :mod:`guidesampler.oracle`: brute-force posteriors and statistical
  verdicts;
* :mod:`guidesampler.bench`: synthetic design-campaign harness;
* :mod:`guidesampler.cli`: config-driven entry point.
"""

__version__ = "0.1.0"
