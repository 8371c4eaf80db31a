"""Property predictors p(y | x_t) on partially masked sequences.

Every time-dependent predictor exposes a likelihood clamped to
[LIKELIHOOD_FLOOR, 1] so guidance ratios never divide by zero, and may expose
a gradient surface over the mask-extended one-hot encoding (D x (S+1)), which
is what first-order guidance reads to score unmask transitions.

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
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Alphabet,
    MaskedSequence,
    TabularDistribution,
    TokenSequence,
    as_generator,
    check_context_count,
    encode_rows,
    pad_contexts,
    require_support,
    sequence_table,
)
from .denoising import pair_positions
from .errors import CapabilityError

#: Likelihoods are clamped below by this before forming guidance ratios.
LIKELIHOOD_FLOOR = 1e-12


def clamp_likelihood(value: float) -> float:
    if not np.isfinite(value):
        raise ValueError(f"predictor produced a non-finite likelihood: {value}")
    return float(min(max(value, LIKELIHOOD_FLOOR), 1.0))


# ---------------------------------------------------------------------------
# clean predictors
# ---------------------------------------------------------------------------


class CleanPredictor:
    """Deterministic event likelihood p(y | x) on clean sequences, in [0, 1]."""

    def __init__(self, fn: Callable[[TokenSequence], float], batch_fn=None, name: str = "clean"):
        self._fn = fn
        self._batch_fn = batch_fn
        self.name = name

    @classmethod
    def from_table(cls, table: np.ndarray, S: int, name: str = "clean") -> "CleanPredictor":
        """Clean predictor whose likelihood at x is ``table[encode_index(x)]``."""
        return cls(
            lambda x: float(table[encode_rows(x.tokens[None, :], S)[0]]),
            batch_fn=lambda rows: table[encode_rows(rows, S)],
            name=name,
        )

    def likelihood(self, x: TokenSequence) -> float:
        v = float(self._fn(x))
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"clean predictor returned {v}, outside [0, 1]")
        return v

    def table(self, D: int, S: int) -> np.ndarray:
        """Likelihood at every sequence, indexed by encode_index order."""
        rows = sequence_table(D, S)
        if self._batch_fn is not None:
            vals = np.asarray(self._batch_fn(rows), dtype=float)
        else:
            alpha = Alphabet(S)
            vals = np.array([self.likelihood(TokenSequence(r, alpha)) for r in rows])
        if not ((vals >= 0) & (vals <= 1)).all():  # NaN fails too
            raise ValueError("clean predictor table leaves [0, 1]")
        return vals


# ---------------------------------------------------------------------------
# time predictors
# ---------------------------------------------------------------------------


class TimePredictor:
    """Likelihood on partially masked inputs; immutable once constructed.

    Every predictor answers rows (n, D) as well as one token array (D,),
    each row bit for bit its single-row call: ``likelihood_array`` returns a
    float for (D,) and an array (n,) for (n, D), clamped to
    [LIKELIHOOD_FLOOR, 1]. A predictor with a gradient surface answers
    ``gradient_surface_array`` with (D, S+1) for (D,) and (n, D, S+1) for
    (n, D), and has a pair form: with ``positions`` (P,), ``tokens`` (P, D)
    are the contexts of P (context, position) pairs and the answer is their
    (P, S+1) rows, row j the surface of context j at ``positions[j]``. The
    samplers score a step's distinct children in one likelihood call and
    take the surface rows of the pairs a step draws in one gradient call;
    an answer of any other shape raises CapabilityError there.
    """

    def likelihood_array(self, tokens: np.ndarray):
        raise NotImplementedError

    def likelihood(self, xt: MaskedSequence) -> float:
        return self.likelihood_array(xt.tokens)

    @property
    def has_gradient_surface(self) -> bool:
        return False

    def gradient_surface_array(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        raise CapabilityError(f"{type(self).__name__} exposes no gradient surface")


class ExactMarginalPredictor(TimePredictor):
    """The true noisy predictor E[p(y | x1) | x_t] under a tabular prior,
    computed by exact marginalization over consistent completions.

    Every context's likelihood sits in one (S+1)**D table, built on the
    first query: the padded p*c (see :func:`pad_contexts`) divided in place
    by the prior's shared context-mass table and clamped, with the clamped
    clean values at fully unmasked contexts and NaN where the mass is zero.
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
            clean = self.clean.table(D, S)
            lik = pad_contexts(self.p.weights * clean, D, S)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(lik, self.p.context_mass(), out=lik)
            np.clip(lik, LIKELIHOOD_FLOOR, 1.0, out=lik)
            lik.reshape((S + 1,) * D)[(slice(0, S),) * D] = np.reshape(
                np.clip(clean, LIKELIHOOD_FLOOR, 1.0), (S,) * D)
            lik.setflags(write=False)
            self._table = lik
        return self._table

    def likelihood_array(self, tokens: np.ndarray):
        """Clamped likelihood of one token array (D,) as a float, or of each
        row of (n, D) as an array. The first masked row whose context has no
        mass raises UnsupportedContextError."""
        lik = self._likelihoods()[encode_rows(tokens, self.S + 1)]
        require_support(tokens, ~np.isnan(lik), self.S)
        return float(lik) if np.ndim(lik) == 0 else lik


# ---------------------------------------------------------------------------
# pairwise-interaction classifier family
# ---------------------------------------------------------------------------


#: most (pair, row) entries of one chunk of ``score_array``'s pair terms,
#: 56 KiB per int64 or float64 temporary: with the (D, n) token copy, the
#: 1,280 children of a step at D=12 stay below 256 KiB
_SCORE_CHUNK_CELLS = 7 * 1024


@functools.lru_cache(maxsize=None)
def _upper_pairs(D: int):
    """The position pairs (d, e) with d < e, in row-major order."""
    return np.triu_indices(D, 1)


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

    def score_array(self, tokens: np.ndarray):
        """Score of one token array (D,), or of each row of (n, D). Each row
        adds the pair terms of every (d, e), d < e, to ``bias + single-site
        sum`` one by one in row-major order, with one vector add per pair
        over all rows, so a row's score does not depend on the batch it is
        scored in. The terms are gathered by their flat index into ``pair``
        a chunk of pairs at a time, the chunk sized so that its (pairs, rows)
        temporaries hold at most ``_SCORE_CHUNK_CELLS`` entries: arrays of
        (all pairs, all rows) grow with the batch, and at a few hundred KiB
        each call can map and fault them in again."""
        first, second = _upper_pairs(self.D)
        V = self.S + 1
        rows = np.reshape(tokens, (-1, self.D))
        # single[d, rows[:, d]] by flat index, then each row's own sum
        score = self.bias + np.take(self.single, rows + np.arange(0, self.D * V, V)).sum(axis=-1)
        columns = np.ascontiguousarray(rows.T)
        chunk = max(1, _SCORE_CHUNK_CELLS // max(1, rows.shape[0]))
        for lo in range(0, first.size, chunk):
            self._add_pair_terms(score, columns, first[lo:lo + chunk], second[lo:lo + chunk])
        return score if tokens.ndim > 1 else score[0]

    def _add_pair_terms(self, score, columns, first, second) -> None:
        """Add to ``score`` the terms of the pairs (first[j], second[j]), in
        order, at the token columns (D, n) of the rows. A helper, so that a
        chunk's temporaries are freed before the next chunk's are made."""
        V = self.S + 1
        cells = columns[first] * V
        cells += columns[second]
        cells += ((first * self.D + second) * (V * V))[:, None]
        for term in np.take(self.pair, cells):
            score += term

    # -- likelihood ---------------------------------------------------------

    def _prob_from_score(self, score):
        if self.link == "logistic":
            return 1.0 / (1.0 + np.exp(-score))
        return np.exp(np.minimum(score, 0.0))

    def likelihood_array(self, tokens: np.ndarray):
        """Clamped likelihood of one token array (D,) as a float, or of each
        row of (n, D) as an array."""
        probs = self._prob_from_score(self.score_array(tokens))
        if np.ndim(probs) == 0:
            return clamp_likelihood(float(probs))
        if not np.isfinite(probs).all():
            raise ValueError(f"predictor produced a non-finite likelihood: {probs}")
        return np.clip(probs, LIKELIHOOD_FLOOR, 1.0)

    #: the same method, under the name the campaign filter calls on rows
    likelihood_batch = likelihood_array

    # -- gradient surface ---------------------------------------------------

    @property
    def has_gradient_surface(self) -> bool:
        return True

    def _affine_part(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        """d score / d x_{d,c} at the one-hot of tokens (D,), shape (D, S+1),
        of each row of (n, D), shape (n, D, S+1), or of the pairs
        (``tokens[j]``, ``positions[j]``), shape (P, S+1)."""
        rows, at, _ = pair_positions(tokens, positions)
        # terms[..., e, :] = pair[d, e, :, x_e] for d < e and pair[e, d, x_e, :]
        # for e < d, d the pair's position; summing them over e in order
        # keeps the rounding of the position-by-position accumulation
        d, e = at[..., None], np.arange(self.D)
        terms = np.where((d < e)[..., None], self.pair[d, e, :, rows], self.pair[e, d, rows, :])
        terms[np.broadcast_to(d == e, terms.shape[:-1])] = 0.0
        head = self.single[at][..., None, :]
        return np.concatenate([np.broadcast_to(head, terms.shape[:-2] + head.shape[-2:]), terms],
                              axis=-2).cumsum(axis=-2)[..., -1, :]

    def gradient_surface_array(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        """d log p(y|x) / d x_{d,c} at the one-hot encoding of one token
        array (D,), shape (D, S+1), of each row of (n, D), shape (n, D, S+1),
        or of the pairs (``tokens[j]``, ``positions[j]``), shape (P, S+1).
        The logistic factor takes ``math.exp`` of each row's score, as the
        single-row call does: ``np.exp`` differs from it in the last bit on
        some scores."""
        A = self._affine_part(tokens, positions)
        score = self.score_array(tokens)
        # one factor per context row, spread over its answer's trailing axes
        spread = np.shape(score) + (1,) * (A.ndim - np.ndim(score))
        if self.link == "logistic":
            ex = np.reshape([math.exp(-s) for s in np.ravel(score).tolist()], spread)
            return (1.0 - 1.0 / (1.0 + ex)) * A
        # log p = score while score < 0; the cap at 0 freezes the likelihood
        return np.where(np.reshape(score < 0, spread), A, 0.0)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "kind": "pairwise_interaction",
            "link": self.link,
            "D": self.D,
            "S": self.S,
            "bias": self.bias,
            "single_site": self.single.tolist(),
            "pairwise": self.pair.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PairwiseInteractionPredictor":
        return cls(
            int(obj["D"]), int(obj["S"]), obj.get("link", "logistic"),
            float(obj.get("bias", 0.0)), obj["single_site"], obj["pairwise"],
        )


def train_noisy_classifier(
    labeled: Sequence,
    rng,
    epochs: int = 400,
    lr: float = 0.2,
    l2_pairwise: float = 10.0,
    two_stage: bool = False,
):
    """Fit the pairwise-interaction logistic classifier on re-noised copies.

    ``labeled`` is a sequence of (TokenSequence, bool) pairs. Each epoch draws
    a fresh masking time per example and takes one full-batch gradient step on
    the summed binary cross-entropy plus an L2 penalty of ``l2_pairwise`` on
    the pairwise terms only (single-site terms are unregularized).

    ``two_stage=True`` reproduces the freeze protocol: first fit on clean
    inputs, then freeze every parameter not involving a mask token and adapt
    only the mask-facing terms on noised inputs. Default off.

    Returns (model, loss): the loss of the last step; 0.0 when none ran.

    The single-site gradient and the gradients of all (d, e) pairs are one
    ``np.bincount`` each, which adds each cell's examples in row order
    starting from 0.0, exactly as ``np.add.at`` into zeros does. Keep that
    order: ``np.add.reduceat`` and a one-hot matmul (whose order follows the
    BLAS blocking) add in other orders and move the weights in the last bits.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if not lr > 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    if not l2_pairwise >= 0:
        raise ValueError(f"l2_pairwise must be >= 0, got {l2_pairwise}")
    pairs = list(labeled)
    if not pairs:
        raise ValueError("labeled data must be nonempty")
    ys = np.array([bool(y) for _, y in pairs])
    if ys.all() or not ys.any():
        raise ValueError("need at least one positive and one negative example")
    D = pairs[0][0].D
    S = pairs[0][0].alphabet.size
    if any(x.D != D or x.alphabet.size != S for x, _ in pairs):
        raise ValueError("labeled sequences must share one length and one alphabet")
    seqs = np.stack([x.tokens for x, _ in pairs])
    gen = as_generator(rng)
    model = PairwiseInteractionPredictor(D, S, link="logistic")
    y = ys.astype(float)
    n = len(pairs)
    V = S + 1
    first, second = _upper_pairs(D)
    single_offset = np.arange(D) * V
    pair_offset = np.arange(first.size) * (V * V)

    def epoch_step(tokens, mask_only: bool):
        scores = model.score_array(tokens)
        p = 1.0 / (1.0 + np.exp(-scores))
        resid = (p - y) / n
        if not mask_only:
            model.bias -= lr * resid.sum()
        g_single = np.bincount(
            (tokens + single_offset).ravel(), weights=np.repeat(resid, D), minlength=D * V
        ).reshape(D, V)
        if mask_only:
            g_single[:, :S] = 0.0
        model.single -= lr * g_single
        if first.size:  # at D = 1 there are no pairs, and bincount of nothing is int
            cell = (tokens[:, first] * V + tokens[:, second] + pair_offset).ravel()
            g = np.bincount(
                cell, weights=np.repeat(resid, first.size), minlength=first.size * V * V
            ).reshape(first.size, V, V)
            g += (l2_pairwise / n) * model.pair[first, second]
            if mask_only:
                g[:, :S, :S] = 0.0
            model.pair[first, second] -= lr * g
        return float(-(y * np.log(np.clip(p, 1e-300, 1)) + (1 - y) * np.log(np.clip(1 - p, 1e-300, 1))).mean())

    loss = 0.0
    if two_stage:
        for _ in range(epochs):
            loss = epoch_step(seqs, mask_only=False)
    for _ in range(epochs):
        t = gen.random((n, 1))
        keep = gen.random((n, D)) < t
        loss = epoch_step(np.where(keep, seqs, S), mask_only=two_stage)
    return model, loss


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


class ProductPredictor(TimePredictor):
    """Conditional-independence product of several predictors.

    ``switch_fractions[i]`` stages part i in only once the unmasked fraction
    of the input reaches it (state-dependent staging; fully unmasked inputs
    always include every part). Each part is called once per call, on the
    rows where it is active.
    """

    def __init__(self, parts: Sequence[TimePredictor], S: int,
                 switch_fractions: Optional[Sequence[float]] = None):
        if not parts:
            raise ValueError("product of zero predictors")
        self.parts = list(parts)
        self.S = S
        self.switch = list(switch_fractions) if switch_fractions is not None else [0.0] * len(parts)
        if len(self.switch) != len(self.parts):
            raise ValueError("one switch fraction per part required")

    def _staged(self, tokens: np.ndarray):
        """(rows (n, D) of tokens (D,) or (n, D), the indices of the rows at
        which each part is active, in part order)."""
        rows = np.reshape(tokens, (-1, np.shape(tokens)[-1]))
        frac = (rows != self.S).sum(axis=1) / rows.shape[1]
        return rows, [np.flatnonzero(frac >= s) for s in self.switch]

    def likelihood_array(self, tokens: np.ndarray):
        """Clamped likelihood of one token array (D,) as a float, or of each
        row of (n, D) as an array: the product, in part order, of the parts
        active at the row, and 1 where none is."""
        rows, active = self._staged(tokens)
        vals = np.ones(rows.shape[0])
        for part, on in zip(self.parts, active):
            if on.size:
                vals[on] *= part.likelihood_array(rows[on])
        if not np.isfinite(vals).all():
            raise ValueError(f"predictor produced a non-finite likelihood: {vals}")
        vals = np.clip(vals, LIKELIHOOD_FLOOR, 1.0)
        return float(vals[0]) if np.ndim(tokens) == 1 else vals

    @property
    def has_gradient_surface(self) -> bool:
        return all(p.has_gradient_surface for p in self.parts)

    def gradient_surface_array(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        """The sum, in part order, of the active parts' surfaces of one token
        array (D,), shape (D, S+1), of each row of (n, D), shape
        (n, D, S+1), or of the pairs (``tokens[j]``, ``positions[j]``), shape
        (P, S+1); zeros where no part is active. A row's first active
        part's surface is taken as is, so a -0.0 in it stays -0.0."""
        if not self.has_gradient_surface:
            raise CapabilityError("not all product parts expose a gradient surface")
        rows, active = self._staged(tokens)
        n, D = rows.shape
        out = np.zeros((n, self.S + 1) if positions is not None else (n, D, self.S + 1))
        started = np.zeros(n, dtype=bool)
        for part, on in zip(self.parts, active):
            if not on.size:
                continue
            at = None if positions is None else np.asarray(positions)[on]
            g = part.gradient_surface_array(rows[on], at)
            first = ~started[on]
            out[on[first]] = g[first]
            out[on[~first]] += g[~first]
            started[on] = True
        return out if np.ndim(tokens) > 1 else out[0]
