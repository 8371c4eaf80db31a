"""Output checks applied to every benchmark operation.

Each check returns a list of problems; an empty list means the output
passed. None of these run inside a timed operation.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy import stats

from guidesampler import oracle
from guidesampler.core import TabularDistribution, encode_rows
from guidesampler.predictors import CleanPredictor

#: Significance level of the decile chi-square test on ``tabular_deg``.
CHI2_ALPHA = 0.001
N_CELLS = 10


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def rows_digest(rows: np.ndarray) -> str:
    return digest(np.ascontiguousarray(rows, dtype=np.int64).tobytes())


def check_rows(rows, n: int, D: int, S: int) -> list:
    """Shape (n, D), integer tokens, every token a real symbol in 0..S-1
    (the mask sentinel S is a failure)."""
    rows = np.asarray(rows)
    if rows.shape != (n, D):
        return [f"shape {rows.shape}, expected {(n, D)}"]
    if not np.issubdtype(rows.dtype, np.integer):
        return [f"token dtype {rows.dtype} is not integer"]
    problems = []
    n_mask = int((rows == S).sum())
    if n_mask:
        problems.append(f"{n_mask} tokens are the mask sentinel {S}")
    n_out = int(((rows < 0) | (rows > S)).sum())
    if n_out:
        problems.append(f"{n_out} tokens lie outside 0..{S - 1}")
    return problems


class DecileChiSquare:
    """Pearson chi-square of samples against the exact tilted posterior,
    over cells cut at the deciles of the clean-likelihood table.

    The expected law is ``oracle.brute_force_posterior(p, clean, gamma)``.
    Ten cells of equal state count keep every expected count large at the
    benchmark's sample size, unlike a test on the full joint.
    """

    def __init__(self, p: TabularDistribution, clean: CleanPredictor, gamma: float):
        clean_table = clean.table(p.D, p.S)
        target = oracle.brute_force_posterior(p, clean, gamma)
        edges = np.quantile(clean_table, np.linspace(0.0, 1.0, N_CELLS + 1)[1:-1])
        self.cell = np.searchsorted(edges, clean_table, side="right")
        self.cell_mass = np.bincount(self.cell, weights=target.weights, minlength=N_CELLS)
        self.S = p.S

    def p_value(self, rows: np.ndarray) -> float:
        observed = np.bincount(self.cell[encode_rows(rows, self.S)], minlength=N_CELLS)
        expected = self.cell_mass * rows.shape[0]
        statistic = float(((observed - expected) ** 2 / expected).sum())
        return float(stats.chi2.sf(statistic, N_CELLS - 1))

    def __call__(self, rows: np.ndarray) -> list:
        p = self.p_value(rows)
        if p <= CHI2_ALPHA:
            return [f"decile chi-square against the exact tilted posterior: p={p:.3g} <= {CHI2_ALPHA}"]
        return []
