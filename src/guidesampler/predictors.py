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

import csv
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import stats

from .core import (
    Alphabet,
    ContextTables,
    MaskedSequence,
    TabularDistribution,
    TokenSequence,
    as_generator,
    encode_rows,
    sequence_table,
)
from .denoising import Denoiser
from .errors import CapabilityError

#: Likelihoods are clamped below by this before forming guidance ratios.
LIKELIHOOD_FLOOR = 1e-12


def clamp_likelihood(value: float) -> float:
    if not np.isfinite(value):
        raise ValueError(f"predictor produced a non-finite likelihood: {value}")
    return float(min(max(value, LIKELIHOOD_FLOOR), 1.0))


def unmasked_fraction(tokens: np.ndarray, S: int) -> float:
    return float((tokens != S).sum() / tokens.size)


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
        if (vals < 0).any() or (vals > 1).any():
            raise ValueError("clean predictor table leaves [0, 1]")
        return vals


# ---------------------------------------------------------------------------
# time predictors
# ---------------------------------------------------------------------------


class TimePredictor:
    """Likelihood on partially masked inputs; immutable once constructed."""

    deterministic = True

    def likelihood_array(self, tokens: np.ndarray) -> float:
        raise NotImplementedError

    def likelihood(self, xt: MaskedSequence) -> float:
        return self.likelihood_array(xt.tokens)

    @property
    def has_gradient_surface(self) -> bool:
        return False

    def gradient_surface_array(self, tokens: np.ndarray) -> np.ndarray:
        raise CapabilityError(f"{type(self).__name__} exposes no gradient surface")


class ExactMarginalPredictor(TimePredictor):
    """The true noisy predictor E[p(y | x1) | x_t] under a tabular prior,
    computed by exact marginalization over consistent completions."""

    def __init__(self, clean: CleanPredictor, p: TabularDistribution):
        self.clean = clean
        self.p = p
        self.D, self.S = p.D, p.S
        self._tables = ContextTables(p.D, p.S, p.weights, p.weights * clean.table(p.D, p.S))
        self._alpha = Alphabet(p.S)

    def likelihood_array(self, tokens: np.ndarray) -> float:
        if (tokens != self.S).all():
            return clamp_likelihood(self.clean.likelihood(TokenSequence(tokens, self._alpha)))
        denom, (_, wc) = self._tables.blocks(tokens)
        return clamp_likelihood(float(wc.sum()) / denom)

    def child_likelihoods(self, tokens: np.ndarray, d: int) -> np.ndarray:
        """Clamped likelihoods of the S children of ``tokens`` at masked
        position d, shape (S,): child s sets position d to symbol s. The
        parent's two blocks are sliced once; child s sums its sub-block at
        index s of d's axis, the view ``likelihood_array(child)`` sums, so
        each value is that call's bit for bit. A zero-mass child raises that
        call's UnsupportedContextError."""
        S = self.S
        toks = tokens.tolist()

        def child(s):
            return np.array(toks[:d] + [s] + toks[d + 1:])

        if toks.count(S) == 1:
            # clean children take the clean predictor's value, which wc / w
            # of one sequence does not reproduce bit for bit
            return np.array([self.likelihood_array(child(s)) for s in range(S)])
        index = tuple(slice(None) if t == S else t for t in toks)
        w, wc = (tensor[index] for tensor in self._tables.tensors)
        lead = (slice(None),) * toks[:d].count(S)
        out = []
        for s in range(S):
            denom = float(w[lead + (s,)].sum())
            if denom <= 0.0:
                self.likelihood_array(child(s))  # raises the zero-mass error
            # clamp_likelihood without its finiteness check: the tables are
            # finite and the denominator is positive
            out.append(min(max(float(wc[lead + (s,)].sum()) / denom, LIKELIHOOD_FLOOR), 1.0))
        return np.array(out)


class PomPredictor(TimePredictor):
    """Monte-Carlo estimate of E[p(y | x1)] with completions drawn from the
    product of the denoiser's per-position marginals."""

    deterministic = False

    def __init__(self, clean: CleanPredictor, denoiser: Denoiser, n_samples: int, rng):
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        self.clean = clean
        self.denoiser = denoiser
        self.n_samples = n_samples
        self._gen = as_generator(rng)
        self._alpha = Alphabet(denoiser.S)

    def likelihood_array(self, tokens: np.ndarray) -> float:
        S = self.denoiser.S
        masked = np.flatnonzero(tokens == S)
        if masked.size == 0:
            return clamp_likelihood(self.clean.likelihood(TokenSequence(tokens, self._alpha)))
        post = self.denoiser.posterior_array(tokens)
        cdf = post[masked].cumsum(axis=1)
        u = self._gen.random((self.n_samples, masked.size, 1))
        draws = (u > cdf[None, :, :]).sum(axis=2)
        total = 0.0
        filled = np.tile(tokens, (self.n_samples, 1))
        filled[:, masked] = draws
        for row in filled:
            total += self.clean.likelihood(TokenSequence(row, self._alpha))
        return clamp_likelihood(total / self.n_samples)


# ---------------------------------------------------------------------------
# pairwise-interaction classifier family
# ---------------------------------------------------------------------------


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
        """Score of one token array (D,), or of each row of (n, D). The pair
        terms of every (d, e), d < e, are gathered at once and added to
        ``bias + single-site sum`` by a running sum in row-major order, the
        order score_batch adds them in, so a row's score does not depend on
        the batch it is scored in."""
        first, second = _upper_pairs(self.D)
        head = self.bias + self.single[np.arange(self.D), tokens].sum(axis=-1)
        terms = self.pair[first, second, tokens[..., first], tokens[..., second]]
        return np.concatenate([head[..., None], terms], axis=-1).cumsum(axis=-1)[..., -1]

    def score_batch(self, tokens: np.ndarray) -> np.ndarray:
        """Scores of the rows of tokens (n, D), equal to score_array's. It
        makes one vector add per pair, which on the trainer's batches
        (n = 1,000, D = 8, S = 4) is about 1.6x faster than score_array's
        gather on a 2-core x86-64 machine."""
        out = np.full(tokens.shape[0], self.bias)
        pos = np.arange(self.D)
        out += self.single[pos, tokens].sum(axis=1)
        for d in range(self.D):
            for e in range(d + 1, self.D):
                out += self.pair[d, e, tokens[:, d], tokens[:, e]]
        return out

    def score_relaxed(self, X: np.ndarray) -> float:
        """Score at a relaxed (real-valued) one-hot encoding X of shape (D, S+1)."""
        s = self.bias + float((self.single * X).sum())
        for d in range(self.D):
            for e in range(d + 1, self.D):
                s += float(X[d] @ self.pair[d, e] @ X[e])
        return s

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

    #: the same method, under the name the campaign filter and the acceptance
    #: checks call on rows
    likelihood_batch = likelihood_array

    def likelihood_relaxed(self, X: np.ndarray) -> float:
        return clamp_likelihood(float(self._prob_from_score(self.score_relaxed(X))))

    def child_likelihoods(self, tokens: np.ndarray, d: int) -> np.ndarray:
        """Clamped likelihoods of the S children of ``tokens`` at position d,
        shape (S,): child s sets position d to symbol s. One
        ``likelihood_array`` call scores them all."""
        children = np.repeat(tokens[None, :], self.S, axis=0)
        children[:, d] = np.arange(self.S)
        return self.likelihood_array(children)

    # -- gradient surface ---------------------------------------------------

    @property
    def has_gradient_surface(self) -> bool:
        return True

    def _affine_part(self, tokens: np.ndarray) -> np.ndarray:
        """d score / d x_{d,c} at the one-hot of tokens, shape (D, S+1)."""
        # terms[e, d] = pair[d, e, :, x_e] for d < e and pair[e, d, x_e, :]
        # for e < d; summing them over e in order keeps the rounding of the
        # position-by-position accumulation
        e = np.arange(self.D)
        upper = self.pair[:, e, :, tokens]
        lower = self.pair[e, :, tokens, :]
        terms = np.where((e[None, :] < e[:, None])[:, :, None], upper, lower)
        terms[e, e] = 0.0
        return np.concatenate([self.single[None], terms]).cumsum(axis=0)[-1]

    def gradient_surface_array(self, tokens: np.ndarray) -> np.ndarray:
        """d log p(y|x) / d x_{d,c} at the one-hot encoding of the input."""
        A = self._affine_part(tokens)
        score = self.score_array(tokens)
        if self.link == "logistic":
            return (1.0 - 1.0 / (1.0 + math.exp(-score))) * A
        # log p = score while score < 0; the cap at 0 freezes the likelihood
        return A if score < 0 else np.zeros_like(A)

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

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path) -> "PairwiseInteractionPredictor":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


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
        scores = model.score_batch(tokens)
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
# threshold regressor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdRegressor:
    """Ensemble mean/spread regressor with an exceedance threshold y_star."""

    mu: Callable[[MaskedSequence], float]
    sigma: Callable[[MaskedSequence], float]
    y_star: float


def threshold_likelihood(reg: ThresholdRegressor, xt: MaskedSequence) -> float:
    """p(y >= y_star | x_t) = 1 - Phi((y_star - mu) / sigma)."""
    s = float(reg.sigma(xt))
    if s <= 0:
        raise ValueError(f"ensemble spread must be positive, got {s}")
    z = (reg.y_star - float(reg.mu(xt))) / s
    return float(stats.norm.sf(z))


class ThresholdPredictor(TimePredictor):
    """TimePredictor adapter around a ThresholdRegressor."""

    def __init__(self, reg: ThresholdRegressor, alphabet: Alphabet):
        self.reg = reg
        self._alpha = alphabet

    def likelihood_array(self, tokens: np.ndarray) -> float:
        return clamp_likelihood(
            threshold_likelihood(self.reg, MaskedSequence(tokens, self._alpha))
        )


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


class ProductPredictor(TimePredictor):
    """Conditional-independence product of several predictors.

    ``switch_fractions[i]`` stages part i in only once the unmasked fraction
    of the input reaches it (state-dependent staging; fully unmasked inputs
    always include every part).
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
        self.deterministic = all(getattr(p, "deterministic", True) for p in self.parts)

    def _active(self, tokens: np.ndarray):
        frac = unmasked_fraction(tokens, self.S)
        return [p for p, s in zip(self.parts, self.switch) if frac >= s]

    def likelihood_array(self, tokens: np.ndarray) -> float:
        val = 1.0
        for p in self._active(tokens):
            val *= p.likelihood_array(tokens)
        return clamp_likelihood(val)

    @property
    def has_gradient_surface(self) -> bool:
        return all(p.has_gradient_surface for p in self.parts)

    def gradient_surface_array(self, tokens: np.ndarray) -> np.ndarray:
        if not self.has_gradient_surface:
            raise CapabilityError("not all product parts expose a gradient surface")
        active = self._active(tokens)
        if not active:
            D = tokens.size
            return np.zeros((D, self.S + 1))
        return np.sum([p.gradient_surface_array(tokens) for p in active], axis=0)


# ---------------------------------------------------------------------------
# labeled-data CSV
# ---------------------------------------------------------------------------


def load_labeled_csv(path, S: int):
    """Read 'sequence,label' rows; labels parse as bool when every value is
    boolean-like, else as float. Returns (sequences, labels array, is_bool)."""
    alpha = Alphabet(S)
    seqs, raw = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip().lower() for h in header[:2]] != ["sequence", "label"]:
            raise ValueError("expected CSV header 'sequence,label'")
        for row in reader:
            if not row:
                continue
            seqs.append(TokenSequence([alpha.token(c) for c in row[0].strip()], alpha))
            raw.append(row[1].strip().lower())
    boolish = {"0", "1", "true", "false"}
    if raw and all(r in boolish for r in raw):
        return seqs, np.array([r in ("1", "true") for r in raw]), True
    return seqs, np.array([float(r) for r in raw]), False


def save_labeled_csv(path, sequences: Sequence[TokenSequence], labels) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence", "label"])
        for x, y in zip(sequences, labels):
            writer.writerow([str(x), int(y) if isinstance(y, (bool, np.bool_)) else y])
