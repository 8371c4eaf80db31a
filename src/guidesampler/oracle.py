"""Brute-force ground truth and statistical verdicts.

Pure functions over immutable inputs; everything here is deliberately
independent of the samplers it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy import stats

from .core import TabularDistribution, clean_rows, encode_rows
from .predictors import CleanPredictor

DEFAULT_CHI2_ALPHA = 0.001
DEFAULT_KS_ALPHA = 0.01
MIN_EXPECTED_CELL = 5.0


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of one statistical test at a stated significance level."""

    statistic: float
    p_value: float
    alpha: float
    passed: bool
    dof: Optional[int] = None
    name: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "dof": self.dof,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "pass": self.passed,
        }


class EmpiricalDistribution:
    """Counts per sequence index over the S**D state space."""

    def __init__(self, counts, D: int, S: int):
        c = np.asarray(counts, dtype=np.int64)
        if c.shape != (S**D,) or (c < 0).any():
            raise ValueError("counts must be a nonnegative vector of length S**D")
        self.counts = c
        self.D, self.S = D, S
        self.n = int(c.sum())

    @classmethod
    def from_token_rows(cls, rows: np.ndarray, D: int, S: int) -> "EmpiricalDistribution":
        """Counts of the clean rows (n, D); a row holding the mask or a
        token outside 0..S-1, or of another length, raises ValueError."""
        rows = clean_rows(rows, S)
        if rows.shape[1] != D:
            raise ValueError(f"rows of length {rows.shape[1]} do not fit D={D}")
        counts = np.bincount(encode_rows(rows, S), minlength=S**D)
        return cls(counts, D, S)

    @property
    def probs(self) -> np.ndarray:
        if self.n == 0:
            raise ValueError("empirical distribution holds no samples")
        return self.counts / self.n


DistLike = Union[TabularDistribution, EmpiricalDistribution, np.ndarray]


def _prob_vector(dist: DistLike):
    if isinstance(dist, TabularDistribution):
        return dist.weights, (dist.D, dist.S)
    if isinstance(dist, EmpiricalDistribution):
        return dist.probs, (dist.D, dist.S)
    v = np.asarray(dist, dtype=float)
    return v, None


def brute_force_posterior(p: TabularDistribution, clean: CleanPredictor, gamma: float) -> TabularDistribution:
    """Exact tilted posterior: weights proportional to p(y|x)**gamma * p(x)."""
    if gamma == 0.0:
        return p
    tilt = clean.table(p.D, p.S) ** gamma
    w = tilt * p.weights
    total = w.sum()
    if total <= 0:
        raise ValueError("tilted posterior has zero normalizer")
    return TabularDistribution(p.D, p.S, w / total)


def tv_distance(a: DistLike, b: DistLike) -> float:
    """Total variation distance 0.5 * sum |a - b| over a shared index set."""
    va, meta_a = _prob_vector(a)
    vb, meta_b = _prob_vector(b)
    if va.shape != vb.shape or (meta_a and meta_b and meta_a != meta_b):
        raise ValueError("distributions live on different index sets")
    return float(0.5 * np.abs(va - vb).sum())


def _pool_cells(expected_counts: np.ndarray, observed: np.ndarray):
    """Merge cells with expected count below MIN_EXPECTED_CELL into one
    overflow cell; returns (expected, observed) after pooling."""
    small = expected_counts < MIN_EXPECTED_CELL
    if not small.any():
        return expected_counts, observed
    exp_keep = expected_counts[~small]
    obs_keep = observed[~small]
    exp = np.append(exp_keep, expected_counts[small].sum())
    obs = np.append(obs_keep, observed[small].sum())
    return exp, obs


def chi_square_gof(
    emp: EmpiricalDistribution,
    expected: TabularDistribution,
    alpha: float = DEFAULT_CHI2_ALPHA,
) -> TestVerdict:
    """Pearson goodness-of-fit with small-cell pooling.

    Degrees of freedom = (#cells after pooling) - 1. Requires at least 80% of
    pooled cells to carry expected count >= 5, and raises the same error when
    pooling merges two or more cells of positive expected mass into a lone
    cell, which would pass any sample. A lone cell that no pooling of live
    cells made (a point-mass target) passes: the fit is exact.
    """
    if emp.n == 0:
        raise ValueError("empirical distribution holds no samples")
    if (emp.D, emp.S) != (expected.D, expected.S):
        raise ValueError("distributions live on different index sets")
    exp_counts = expected.weights * emp.n
    pooled_live = int(((exp_counts > 0) & (exp_counts < MIN_EXPECTED_CELL)).sum())
    exp, obs = _pool_cells(exp_counts, emp.counts.astype(float))
    # drop structurally-empty cells (zero expected mass and zero observations)
    dead = (exp == 0) & (obs == 0)
    exp, obs = exp[~dead], obs[~dead]
    if (exp == 0).any():
        # mass observed where none was expected: certain rejection
        return TestVerdict(float("inf"), 0.0, alpha, False, dof=exp.size - 1, name="chi_square_gof")
    if exp.size < 2 and pooled_live < 2:
        # a single live cell: the fit is exact by construction
        return TestVerdict(0.0, 1.0, alpha, True, dof=0, name="chi_square_gof")
    if exp.size < 2 or (exp >= MIN_EXPECTED_CELL).mean() < 0.8:
        raise ValueError(
            "chi-square validity violated: fewer than 80% of pooled cells have "
            "expected count >= 5; increase N"
        )
    statistic = float(((obs - exp) ** 2 / exp).sum())
    dof = exp.size - 1
    p_value = float(stats.chi2.sf(statistic, dof))
    return TestVerdict(statistic, p_value, alpha, p_value > alpha, dof=dof, name="chi_square_gof")


def ks_uniform(values, alpha: float = DEFAULT_KS_ALPHA) -> TestVerdict:
    """One-sample Kolmogorov-Smirnov test against Uniform(0, 1)."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("no values to test")
    if (v < 0).any() or (v > 1).any():
        raise ValueError("values must lie in [0, 1]")
    res = stats.kstest(v, "uniform")
    return TestVerdict(
        float(res.statistic), float(res.pvalue), alpha, res.pvalue > alpha, name="ks_uniform"
    )
