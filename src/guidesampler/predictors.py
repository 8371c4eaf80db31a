"""Property predictors p(y | x_t) on partially masked sequences.

Every time-dependent predictor exposes the likelihoods of token rows, and
of the S+1 children of (context, position) pairs, clamped to
[LIKELIHOOD_FLOOR, 1] so guidance ratios never divide by zero. It may expose
a gradient surface over the mask-extended one-hot encoding: one row of S+1
entries per (context, position) pair, which is what first-order guidance
reads to score unmask transitions.

The trainable family is a linear classifier over the mask-extended one-hot
encoding augmented with pairwise interaction terms. It supports two links:

* ``logistic``: p(y|x) = sigmoid(score); the link used when fitting labeled
  data;
* ``exp``: log p(y|x) = score (capped at 0); with single-site terms only the
  log-likelihood is affine in the one-hot encoding, which makes first-order
  guidance exact rather than approximate.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .core import (
    TabularDistribution,
    _padded_blocks,
    as_generator,
    check_context_count,
    clean_rows,
    encode_rows,
    pack_table,
    require_support,
    sequence_table,
    unpack_table,
)
from .errors import CapabilityError

#: Likelihoods are clamped below by this before forming guidance ratios.
LIKELIHOOD_FLOOR = 1e-12


def clamp_likelihood(values: np.ndarray) -> np.ndarray:
    """An array of likelihoods clamped to [LIKELIHOOD_FLOOR, 1]. Any
    non-finite entry raises ValueError."""
    if not np.isfinite(values).all():
        raise ValueError(f"predictor produced a non-finite likelihood: {values}")
    return np.clip(values, LIKELIHOOD_FLOOR, 1.0)


# ---------------------------------------------------------------------------
# clean predictors
# ---------------------------------------------------------------------------


class CleanPredictor:
    """Deterministic event likelihood p(y | x) on clean sequences, in [0, 1]:
    ``fn`` maps one token row (D,) to a float, and ``batch_fn``, when given,
    the rows (n, D) to their n values."""

    def __init__(self, fn: Callable[[np.ndarray], float], batch_fn=None):
        self._fn = fn
        self._batch_fn = batch_fn

    @classmethod
    def from_table(cls, table: np.ndarray, S: int) -> "CleanPredictor":
        """Clean predictor whose likelihood at row x is ``table[encode_rows(x, S)]``."""
        return cls(
            lambda x: float(table[encode_rows(x, S)]),
            batch_fn=lambda rows: table[encode_rows(rows, S)],
        )

    def likelihood(self, x: np.ndarray) -> float:
        v = float(self._fn(x))
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"clean predictor returned {v}, outside [0, 1]")
        return v

    def table(self, D: int, S: int) -> np.ndarray:
        """Likelihood at every sequence, in :func:`sequence_table` order. An
        answer of ``batch_fn`` of another shape than (S**D,) raises
        ValueError naming the shape."""
        rows = sequence_table(D, S)
        if self._batch_fn is not None:
            vals = np.asarray(self._batch_fn(rows), dtype=float)
            if vals.shape != (rows.shape[0],):
                raise ValueError(f"clean predictor batch_fn answered shape {vals.shape} for "
                                 f"{rows.shape[0]} rows; it must answer ({rows.shape[0]},)")
        else:
            vals = np.array([self.likelihood(r) for r in rows])
        if not ((vals >= 0) & (vals <= 1)).all():  # NaN fails too
            raise ValueError("clean predictor table leaves [0, 1]")
        return vals


# ---------------------------------------------------------------------------
# time predictors
# ---------------------------------------------------------------------------


class TimePredictor:
    """Likelihood on partially masked inputs; immutable once constructed.

    ``likelihood_array`` has a rows form and a pair form. On a token
    matrix (n, D) alone it returns the n likelihoods (n,), clamped to
    [LIKELIHOOD_FLOOR, 1]. With ``positions`` (P,) beside the contexts
    ``tokens`` (P, D) of P (context, position) pairs it returns (P, S+1):
    entry [j, s] is the likelihood of row j with position ``positions[j]``
    set to s, so for a masked position columns 0..S-1 are its children and
    column S is row j itself. A pair-form entry whose row has no mass is
    NaN there, where the rows form raises. A predictor with a gradient
    surface answers ``gradient_surface_array`` on pairs the same way: the
    answer is (P, S+1), row j the surface of context j at ``positions[j]``.
    Every answer entry is bit for bit that of its one row (or pair) called
    alone. The samplers make one pair-form call per step, likelihood or
    gradient; an answer of any other shape raises CapabilityError there.
    The campaign filter scores clean rows in the rows form.
    """

    def likelihood_array(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        raise NotImplementedError

    @property
    def has_gradient_surface(self) -> bool:
        return False

    def gradient_surface_array(self, tokens: np.ndarray, positions: np.ndarray) -> np.ndarray:
        raise CapabilityError(f"{type(self).__name__} exposes no gradient surface")


class ExactMarginalPredictor(TimePredictor):
    """The true noisy predictor E[p(y | x1) | x_t] under a tabular prior,
    computed by exact marginalization over consistent completions.

    Every context's likelihood sits in one (S+1)**D table, built on the
    first query: p*c written into the table and padded as
    :func:`pad_contexts` pads, each cache block divided in place by the
    prior's shared context-mass table and clamped as soon as its padding
    ends, then the clamped clean values written at fully unmasked contexts;
    NaN where the mass is zero. No other array of the table's size is made.
    Construction refuses a size whose table exceeds the table cap.
    """

    def __init__(self, clean: CleanPredictor, p: TabularDistribution):
        check_context_count(p.D, p.S)
        self.clean = clean
        self.p = p
        self.D, self.S = p.D, p.S
        self._table = None

    def _likelihoods(self) -> np.ndarray:
        if self._table is None:
            D, S = self.D, self.S
            clean, mass = self.clean.table(D, S), self.p.context_mass()
            # zeros: see pad_contexts
            lik = np.zeros((S + 1,) * D)
            box = lik[(slice(0, S),) * D]
            np.multiply(np.reshape(self.p.weights, box.shape), np.reshape(clean, box.shape),
                        out=box)
            flat = lik.reshape(-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                for start, stop in _padded_blocks(lik, S):
                    block = flat[start:stop]
                    np.divide(block, mass[start:stop], out=block)
                    np.clip(block, LIKELIHOOD_FLOOR, 1.0, out=block)
            np.clip(np.reshape(clean, box.shape), LIKELIHOOD_FLOOR, 1.0, out=box)
            flat.setflags(write=False)
            self._table = flat
        return self._table

    def likelihood_array(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        """Clamped likelihood of each row of the token matrix (n, D), (n,),
        where the first masked row whose context has no mass raises
        UnsupportedContextError; or, with ``positions`` (P,), of each pair's
        S+1 rows (see :class:`TimePredictor`), (P, S+1), one table gather at
        the row's index plus (s - token) times the position's place value,
        NaN where a row has no mass."""
        V = self.S + 1
        codes = encode_rows(tokens, V)
        if positions is None:
            lik = self._likelihoods()[codes]
            require_support(tokens, ~np.isnan(lik), self.S)
            return lik
        positions = np.asarray(positions, dtype=np.int64)
        place = V**positions
        held = np.take(tokens, positions + tokens.shape[1] * np.arange(positions.size))
        return self._likelihoods().take((codes - held * place)[:, None]
                                        + np.arange(V) * place[:, None])


# ---------------------------------------------------------------------------
# pairwise-interaction classifier family
# ---------------------------------------------------------------------------


#: most (pair, row) entries of one chunk of ``score_array``'s pair terms,
#: 32 KiB per int64 or float64 array: with its cell index, its term buffer,
#: numpy's buffer for the broadcast offset add and the (D, n) token copy,
#: the 1,280 children of a step at D=12 stay below 256 KiB
_SCORE_CHUNK_CELLS = 4 * 1024


@functools.lru_cache(maxsize=None)
def _upper_pairs(D: int, V: int):
    """The position pairs (d, e) with d < e, in row-major order, as (d, e,
    flat offset of the block pair[d, e] of a (D, D, V, V) table)."""
    first, second = np.triu_indices(D, 1)
    return first, second, (first * D + second) * (V * V)


#: most (term, child) entries of one chunk of the pair form's term buffer,
#: 1 MiB of float64: at D=12, S=20 the 64 pairs of a step fit in one chunk,
#: and a call on many thousands of pairs keeps its buffers to a few MiB
_PAIR_CHUNK_CELLS = 128 * 1024


@functools.lru_cache(maxsize=None)
def _held_pairs(D: int, V: int):
    """For each position d, the D-1 pairs of :func:`_upper_pairs` that hold
    d, as (their indices (D, D-1) in row-major order, the other position of
    each, that position's step in the pair's cell, 1 when it is second and V
    when first, and each pair's cells at d's tokens 0..V-1 with the other
    token 0, (D, D-1, V))."""
    first, second, offsets = _upper_pairs(D, V)
    held = np.array([np.flatnonzero((first == d) | (second == d)) for d in range(D)],
                    dtype=np.int64).reshape(D, D - 1)
    d_first = first[held] == np.arange(D)[:, None]
    other = np.where(d_first, second[held], first[held])
    d_step = np.where(d_first, V, 1)
    cells = offsets[held][:, :, None] + d_step[:, :, None] * np.arange(V)
    return held, other, np.where(d_first, 1, V), cells


def _site_scores(bias, single, rows) -> np.ndarray:
    """``bias`` plus the single-site sum of each token row of (n, D), (n,):
    ``single[d, rows[:, d]]`` gathered by flat index, then each row's own
    sum."""
    D, V = single.shape
    return bias + np.take(single, rows + np.arange(0, D * V, V)).sum(axis=-1)


def _add_pair_terms(score, pair, columns, pairs, cells, terms) -> None:
    """Add to each row's score, (n,) in place, its pair terms at the int64
    token columns (D, n), one by one in the order of ``pairs``: k pairs as
    (first, second, offsets), a slice of :func:`_upper_pairs`, read from the
    (D, D, V, V) table ``pair``.

    The buffers ``cells`` (int64) and ``terms`` (float64) have n columns
    and at least k and k + 1 rows, so a caller can reuse them across calls.
    The first k rows of ``cells`` get the terms' flat indices. Row 0 of
    ``terms`` takes the score and rows 1..k the gathered terms, and one
    ``np.add.reduce`` over axis 0 adds the rows in order for n >= 2. At
    n = 1 numpy sums that single column pairwise (from 15 terms, numpy
    2.4), so one row takes the in-order ``np.cumsum``.

    Rows 1..k of ``terms`` also hold, viewed as int64, the second positions'
    tokens before the gather. Every index is in range for tokens in [0, S],
    so the gathers clip instead of buffering."""
    first, second, offsets = pairs
    cells, terms = cells[:offsets.size], terms[:offsets.size + 1]
    tokens_e = terms[1:].view(np.int64)
    columns.take(first, axis=0, out=cells, mode="clip")
    cells *= pair.shape[-1]
    columns.take(second, axis=0, out=tokens_e, mode="clip")
    cells += tokens_e
    cells += offsets[:, None]
    terms[0] = score
    pair.take(cells, out=terms[1:], mode="clip")
    if score.size > 1:
        np.add.reduce(terms, axis=0, out=score)
    else:
        score[:] = np.cumsum(terms, axis=0)[-1]


class PairwiseInteractionPredictor(TimePredictor):
    """Linear + pairwise-interaction model over the mask-extended one-hot
    encoding; see module docstring for the two links."""

    def __init__(self, D: int, S: int, link: str = "logistic", bias: float = 0.0,
                 single=None, pairwise=None):
        if link not in ("logistic", "exp"):
            raise ValueError("link must be 'logistic' or 'exp'")
        self.D, self.S, self.link = D, S, link
        self.bias = float(bias)
        self.single = np.zeros((D, S + 1)) if single is None else np.asarray(single, dtype=float)
        self.pair = (
            np.zeros((D, D, S + 1, S + 1)) if pairwise is None else np.asarray(pairwise, dtype=float)
        )
        if self.single.shape != (D, S + 1) or self.pair.shape != (D, D, S + 1, S + 1):
            raise ValueError("parameter tables have wrong shape")

    # -- scoring ------------------------------------------------------------

    def score_array(self, tokens: np.ndarray) -> np.ndarray:
        """Score of each row of the token matrix (n, D), (n,): ``bias +
        single-site sum``, then the pair terms of every (d, e), d < e, added
        one by one in row-major order, so a row's score does not depend on
        the batch it is scored in. The terms are added a chunk of pairs at a
        time, for two rows or more by one in-order ``np.add.reduce`` over
        axis 0 of a (pairs + 1, rows) buffer, for one row by ``np.cumsum``
        (see :func:`_add_pair_terms`). A chunk's cell index holds at most
        ``_SCORE_CHUNK_CELLS`` entries, and the call makes the chunk buffers
        once: arrays of (all pairs, all rows) grow with the batch, and at a
        few hundred KiB each call can map and fault them in again."""
        D = self.D
        first, second, offsets = _upper_pairs(D, self.S + 1)
        n = tokens.shape[0]
        score = _site_scores(self.bias, self.single, tokens)
        columns = np.ascontiguousarray(tokens.T, dtype=np.int64)
        chunk = max(1, min(_SCORE_CHUNK_CELLS // max(1, n), offsets.size))
        cells = np.empty((chunk, n), dtype=np.int64)
        terms = np.empty((chunk + 1, n))
        for lo in range(0, offsets.size, chunk):
            at = slice(lo, lo + chunk)
            _add_pair_terms(score, self.pair, columns, (first[at], second[at], offsets[at]),
                            cells, terms)
        return score

    def _child_scores(self, tokens: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Scores of the S+1 rows of each pair (``tokens[j]`` with position
        ``positions[j]`` set to s), (P, S+1), bit for bit ``score_array``
        of each such row.

        A child's site terms are its parent's single-site gather with
        column d replaced, summed by the same ``.sum(axis=-1)`` over rows of
        D. Its pair terms fill rows 1..K of a (K+1, S+1, P) buffer: the
        parent's K pair cells are formed once per pair, the K-(D-1) terms
        that do not hold d gathered once per pair and broadcast over the
        children, and the D-1 that hold d gathered per child. Row 0 takes
        the site score, and one in-order ``np.add.reduce`` over axis 0 adds
        the rows as ``score_array`` does; there are always >= 2 columns."""
        D, V = self.D, self.S + 1
        first, second, offsets = _upper_pairs(D, V)
        held, other, other_step, d_cells = _held_pairs(D, V)
        P, pairs = positions.size, np.arange(positions.size)
        sites = np.empty((V, P, D))
        sites[...] = np.take(self.single, tokens + np.arange(0, D * V, V))
        sites[:, pairs, positions] = self.single[positions].T
        terms = np.empty((offsets.size + 1, V, P))
        terms[0] = self.bias + sites.reshape(V * P, D).sum(axis=-1).reshape(V, P)
        columns = np.ascontiguousarray(tokens.T, dtype=np.int64)
        cells = columns[first] * V + columns[second] + offsets[:, None]
        terms[1:] = self.pair.take(cells)[:, None, :]
        base = other_step[positions] * np.take_along_axis(tokens, other[positions], axis=1)
        terms[1 + held[positions], :, pairs[:, None]] = self.pair.take(
            base[:, :, None] + d_cells[positions])
        return np.add.reduce(terms.reshape(terms.shape[0], V * P), axis=0).reshape(V, P).T

    # -- likelihood ---------------------------------------------------------

    def _prob_from_score(self, score):
        if self.link == "logistic":
            return 1.0 / (1.0 + np.exp(-score))
        return np.exp(np.minimum(score, 0.0))

    def likelihood_array(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        """Clamped likelihood of each row of the token matrix (n, D), (n,),
        from ``score_array``; or, with ``positions`` (P,), of each pair's
        S+1 rows (see :class:`TimePredictor`), (P, S+1), from
        :meth:`_child_scores` on chunks of pairs whose term buffer holds at
        most ``_PAIR_CHUNK_CELLS`` entries."""
        if positions is None:
            score = self.score_array(tokens)
        else:
            chunk = max(1, _PAIR_CHUNK_CELLS // ((self.D * (self.D - 1) // 2 + 1) * (self.S + 1)))
            score = np.concatenate([self._child_scores(tokens[lo:lo + chunk],
                                                       positions[lo:lo + chunk])
                                    for lo in range(0, max(1, positions.size), chunk)])
        return clamp_likelihood(self._prob_from_score(score))

    #: the same method, under the name the campaign filter calls on rows
    likelihood_batch = likelihood_array

    # -- gradient surface ---------------------------------------------------

    @property
    def has_gradient_surface(self) -> bool:
        return True

    def _affine_part(self, tokens: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """d score / d x_{d,c} at the one-hot of the pairs (``tokens[j]``,
        ``positions[j]``), shape (P, S+1)."""
        # terms[j, e, :] = pair[d, e, :, x_e] for d < e and pair[e, d, x_e, :]
        # for e < d, d = positions[j]; summing them over e in order keeps the
        # rounding of the position-by-position accumulation
        d, e = positions[:, None], np.arange(self.D)
        terms = np.where((d < e)[..., None], self.pair[d, e, :, tokens],
                         self.pair[e, d, tokens, :])
        terms[d == e] = 0.0
        head = self.single[positions][:, None, :]
        return np.concatenate([head, terms], axis=1).cumsum(axis=1)[:, -1, :]

    def gradient_surface_array(self, tokens: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """d log p(y|x) / d x_{d,c} at the one-hot encoding of the pairs
        (``tokens[j]``, ``positions[j]``), shape (P, S+1). The logistic
        factor takes ``math.exp`` of each row's score: ``np.exp`` differs
        from it in the last bit on some scores."""
        A = self._affine_part(tokens, positions)
        score = self.score_array(tokens)
        if self.link == "logistic":
            ex = np.array([math.exp(-s) for s in score.tolist()])
            return (1.0 - 1.0 / (1.0 + ex))[:, None] * A
        # log p = score while score < 0; the cap at 0 freezes the likelihood
        return np.where((score < 0)[:, None], A, 0.0)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "kind": "pairwise_interaction",
            "link": self.link,
            "D": self.D,
            "S": self.S,
            "bias": self.bias,
            "single_site": pack_table(self.single),
            "pairwise": pack_table(self.pair),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PairwiseInteractionPredictor":
        bias = float(obj.get("bias", 0.0))
        if math.isnan(bias):
            raise ValueError("bias is NaN")
        return cls(
            int(obj["D"]), int(obj["S"]), obj.get("link", "logistic"), bias,
            unpack_table(obj["single_site"], "single_site"),
            unpack_table(obj["pairwise"], "pairwise"),
        )


def train_noisy_classifier(
    rows,
    labels,
    S: int,
    rng,
    epochs: int = 400,
    lr: float = 0.2,
    l2_pairwise: float = 10.0,
):
    """Fit the pairwise-interaction logistic classifier on re-noised copies.

    ``rows`` is the clean token matrix (n, D) over S symbols (see
    :func:`clean_rows`) and ``labels`` its n labels, read as bools; both
    classes must occur. Each epoch draws a fresh masking time per example
    and takes one full-batch gradient step on the summed binary
    cross-entropy plus an L2 penalty of ``l2_pairwise`` on the pairwise
    terms only (single-site terms are unregularized).

    Returns (model, loss): the mean BCE of the last epoch, computed once
    from that epoch's probabilities; 0.0 when no epoch ran.

    Each epoch forms the flat cell index of its pair terms once, (pairs,
    rows) in the layout of ``tokens.T``. The scores gather their terms with
    it and add them to ``bias + single-site sum`` in row-major pair order,
    with one in-order ``np.add.reduce`` over axis 0 (see
    :func:`_add_pair_terms`, which ``score_array`` calls too), so they are
    ``score_array``'s bits. The pair gradient is one ``np.bincount`` over
    the same index and the single-site gradient one more; each adds a
    cell's examples in row order starting from 0.0, exactly as
    ``np.add.at`` into zeros does. Keep that order: ``np.add.reduceat`` and
    a one-hot matmul (whose order follows the BLAS blocking) add in other
    orders and move the weights in the last bits.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not lr > 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    if not l2_pairwise >= 0:
        raise ValueError(f"l2_pairwise must be >= 0, got {l2_pairwise}")
    seqs = clean_rows(rows, S)
    n, D = seqs.shape
    if not n:
        raise ValueError("training data must be nonempty")
    ys = np.asarray(labels, dtype=bool)
    if ys.shape != (n,):
        raise ValueError(f"labels must hold one entry per row ({n}), got shape {ys.shape}")
    if ys.all() or not ys.any():
        raise ValueError("need at least one positive and one negative example")
    gen = as_generator(rng)
    y = ys.astype(float)
    V = S + 1
    upper = _upper_pairs(D, V)
    k = upper[2].size
    site_offset = np.arange(D) * V
    bias = 0.0
    single = np.zeros((D, V))
    pair = np.zeros((D, D, V, V))  # blocks with d >= e get zero gradient and stay 0
    # one epoch's buffers, made once: fresh arrays of a few hundred KiB cost
    # page faults on every epoch
    cells = np.empty((k, n), dtype=np.int64)
    terms = np.empty((k + 1, n))
    pair_weights = np.empty((k, n))

    p = None
    for _ in range(epochs):
        t = gen.random((n, 1))
        keep = gen.random((n, D)) < t
        tokens = np.where(keep, seqs, S)
        scores = _site_scores(bias, single, tokens)
        columns = np.ascontiguousarray(tokens.T, dtype=np.int64)
        _add_pair_terms(scores, pair, columns, upper, cells, terms)
        p = 1.0 / (1.0 + np.exp(-scores))
        resid = (p - y) / n
        bias -= lr * resid.sum()
        single -= lr * np.bincount(
            (tokens + site_offset).ravel(), weights=np.repeat(resid, D), minlength=D * V
        ).reshape(D, V)
        if k:  # at D = 1 there are no pairs, and bincount of nothing is int
            pair_weights[...] = resid
            g = np.bincount(
                cells.ravel(), weights=pair_weights.ravel(), minlength=pair.size
            ).reshape(pair.shape)
            g += (l2_pairwise / n) * pair
            pair -= lr * g
    model = PairwiseInteractionPredictor(D, S, "logistic", bias, single, pair)
    if p is None:
        return model, 0.0
    return model, float(-(y * np.log(np.clip(p, 1e-300, 1))
                          + (1 - y) * np.log(np.clip(1 - p, 1e-300, 1))).mean())


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


class ProductPredictor(TimePredictor):
    """Conditional-independence product of several predictors. Every part
    answers every row (or pair), once per call, in part order."""

    def __init__(self, parts: Sequence[TimePredictor]):
        if not parts:
            raise ValueError("product of zero predictors")
        self.parts = list(parts)

    def likelihood_array(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        """The product of the parts' likelihoods, in part order, of the rows
        (n,) or of the pairs' rows (P, S+1), as the parts answer the same
        call, clamped. A pair-form entry that is NaN, a row without mass
        under some part, stays NaN."""
        first, *rest = self.parts
        vals = np.array(first.likelihood_array(tokens, positions), dtype=float)
        for part in rest:
            vals *= part.likelihood_array(tokens, positions)
        if positions is None:
            return clamp_likelihood(vals)
        kept = ~np.isnan(vals)
        vals[kept] = clamp_likelihood(vals[kept])
        return vals

    @property
    def has_gradient_surface(self) -> bool:
        return all(p.has_gradient_surface for p in self.parts)

    def gradient_surface_array(self, tokens: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """The sum, in part order, of the parts' surfaces of the pairs
        (``tokens[j]``, ``positions[j]``), shape (P, S+1). The first part's
        surface is taken as is, so a -0.0 in it stays -0.0."""
        if not self.has_gradient_surface:
            raise CapabilityError("not all product parts expose a gradient surface")
        first, *rest = self.parts
        out = np.array(first.gradient_surface_array(tokens, positions), dtype=float)
        for part in rest:
            out += part.gradient_surface_array(tokens, positions)
        return out
