"""Clean-token posterior models and exact evaluators of their training losses.

A denoiser maps a partially masked sequence to per-position posteriors over
the real symbols. Posteriors here condition on the masked context as a set,
so they are order-free and carry no time argument (the conditional of clean
data given a masked observation does not depend on when the masking
happened); the decode-order sensitivity of causal-attention implementations
therefore does not arise and needs no mitigation.

Loss evaluators enumerate their expectations exactly:

* :func:`fm_loss_exact`: uniform-time masking cross-entropy; each mask
  pattern with m masked positions has weight
  ``integral_0^1 t^(D-m) (1-t)^m dt = m! (D-m)! / (D+1)!``
  (each position survives independently with probability t, and the Beta
  integral averages the pattern probability over the uniform time prior);
* :func:`rate_weighted_fm_loss_exact`: the same cross-entropies weighted by
  the unmasking rate 1/(1-t), giving pattern weight
  ``integral_0^1 t^(D-m) (1-t)^(m-1) dt = (m-1)! (D-m)! / D!`` for m >= 1;
  this weighting is what the permutation-averaged likelihood actually
  matches (see :func:`aoarm_loss_exact`);
* :func:`aoarm_loss_exact`: expected whole-sequence negative log-likelihood
  under uniformly random decode orders, enumerated over all D! permutations.

All losses are nonnegative minimization targets.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    Alphabet,
    ContextTables,
    MaskedSequence,
    TabularDistribution,
    TokenSequence,
    as_generator,
    sequence_table,
)
from .errors import SizeCapError, TrainingDivergedError

FM_ENUM_CAP_D = 12
AOARM_ENUM_CAP_D = 8


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row softmax tolerating -inf entries (zero-probability symbols)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class PerPositionPosterior:
    """Per-position clean-token posteriors for one masked context.

    ``probs[d, s]`` is p(x1^d = s | x_t) over the S real symbols; rows at
    unmasked positions are the one-hot of the observed token. No mass is ever
    placed on the mask sentinel (it has no column).
    """

    probs: np.ndarray
    source: MaskedSequence

    def row(self, d: int) -> np.ndarray:
        return self.probs[d]

    def validate(self, atol: float = 1e-9) -> "PerPositionPosterior":
        S = self.source.alphabet.size
        if self.probs.shape != (self.source.D, S):
            raise ValueError("posterior table has wrong shape")
        if not np.isfinite(self.probs).all() or (self.probs < 0).any():
            raise ValueError("posterior entries must be finite and nonnegative")
        sums = self.probs.sum(axis=1)
        if np.abs(sums - 1.0).max() > atol:
            raise ValueError("posterior rows must sum to 1")
        for d in self.source.unmasked_positions():
            if self.probs[d, self.source.tokens[d]] != 1.0:
                raise ValueError(f"unmasked row {d} is not the observed one-hot")
        return self


class Denoiser:
    """Base class: immutable after construction, safe to evaluate concurrently."""

    D: int
    S: int
    deterministic = True

    def posterior_array(self, tokens: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def logits_array(self, tokens: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.posterior_array(tokens))

    def posterior(self, xt: MaskedSequence) -> PerPositionPosterior:
        return PerPositionPosterior(self.posterior_array(xt.tokens), xt).validate()

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.S)


@functools.lru_cache(maxsize=None)
def _other_axes(m: int) -> tuple:
    """For each axis k of an m-axis block, the tuple of the other axes."""
    return tuple(tuple(a for a in range(m) if a != k) for k in range(m))


class ExactDenoiser(Denoiser):
    """Enumeration-backed posterior for a tabular distribution.

    ``probs[d, s] = sum over consistent completions with x1^d = s of
    p(x1 | x_t)``.
    """

    def __init__(self, p: TabularDistribution):
        self.p = p
        self.D, self.S = p.D, p.S
        self._tables = ContextTables(p.D, p.S, p.weights)

    def posterior_array(self, tokens: np.ndarray) -> np.ndarray:
        S = self.S
        total, (sub,) = self._tables.blocks(tokens)
        toks = tokens.tolist()
        masked = [d for d, t in enumerate(toks) if t == S]
        out = np.zeros((self.D, S))
        for d, axes in zip(masked, _other_axes(len(masked))):
            out[d] = sub.sum(axis=axes) / total
        for d, t in enumerate(toks):
            if t != S:
                out[d, t] = 1.0
        out.setflags(write=False)
        return out


def exact_denoise(p: TabularDistribution, xt: MaskedSequence) -> PerPositionPosterior:
    """One-shot exact posterior; build an ExactDenoiser for repeated queries."""
    return ExactDenoiser(p).posterior(xt)


class ParametricDenoiser(Denoiser):
    """Trainable factorized posterior model.

    Position d's logits over the S real symbols are a single-site term plus
    pairwise couplings from every other position's observed token (over the
    mask-extended alphabet, so masked neighbours contribute their own
    learned column):

        logits[d, s] = single[d, s] + sum_{e != d} pair[d, e, x_t^e, s]

    Zero initialization gives uniform posteriors over real symbols.
    """

    def __init__(self, D: int, S: int, single=None, pair=None):
        self.D, self.S = D, S
        self.single = np.zeros((D, S)) if single is None else np.asarray(single, dtype=float)
        self.pair = np.zeros((D, D, S + 1, S)) if pair is None else np.asarray(pair, dtype=float)
        if self.single.shape != (D, S) or self.pair.shape != (D, D, S + 1, S):
            raise ValueError("parameter tables have wrong shape")

    @classmethod
    def random(cls, D: int, S: int, rng, scale: float = 1.0) -> "ParametricDenoiser":
        gen = as_generator(rng)
        m = cls(D, S, gen.normal(0, scale, (D, S)), gen.normal(0, scale, (D, D, S + 1, S)))
        for d in range(D):
            m.pair[d, d] = 0.0
        return m

    def logits_array(self, tokens: np.ndarray) -> np.ndarray:
        idx = np.arange(self.D)
        ctx = self.pair[:, idx, tokens, :]  # [d, e, s] = pair[d, e, tokens[e], s]
        logits = self.single + ctx.sum(axis=1) - self.pair[idx, idx, tokens, :]
        return logits

    def posterior_array(self, tokens: np.ndarray) -> np.ndarray:
        out = softmax_rows(self.logits_array(tokens))
        for d in range(self.D):
            if tokens[d] != self.S:
                out[d] = 0.0
                out[d, tokens[d]] = 1.0
        return out

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "S": self.S,
            "single_site": self.single.tolist(),
            "pairwise": self.pair.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ParametricDenoiser":
        return cls(int(obj["D"]), int(obj["S"]), obj["single_site"], obj["pairwise"])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path) -> "ParametricDenoiser":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# logit modifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogitModifier:
    """Sampling-time logit adjustments: softmax temperature and an additive
    wild-type bias w at each position's wild-type token."""

    temperature: float = 1.0
    wildtype_weight: float = 0.0
    wildtype_sequence: Optional[TokenSequence] = None

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.wildtype_weight < 0:
            raise ValueError("wild-type weight must be >= 0")
        if self.wildtype_weight > 0 and self.wildtype_sequence is None:
            raise ValueError("wild-type weight requires a wild-type sequence")

    @property
    def is_identity(self) -> bool:
        return self.temperature == 1.0 and self.wildtype_weight == 0.0


def apply_modifiers(logits: np.ndarray, mod: LogitModifier) -> np.ndarray:
    """Add w at each (d, wild-type token), then divide all logits by the
    temperature. Identity settings return the input values bit-identically."""
    out = np.array(logits, dtype=float)
    if mod.is_identity:
        return out
    if mod.wildtype_weight > 0:
        wt = mod.wildtype_sequence.tokens
        out[np.arange(out.shape[0]), wt] += mod.wildtype_weight
    if mod.temperature != 1.0:
        out = out / mod.temperature
    return out


class ModifiedDenoiser(Denoiser):
    """Denoiser with a LogitModifier applied before normalization; unmasked
    positions keep their observed one-hot rows."""

    def __init__(self, base: Denoiser, modifier: LogitModifier):
        self.base, self.modifier = base, modifier
        self.D, self.S = base.D, base.S
        self.deterministic = base.deterministic

    def logits_array(self, tokens: np.ndarray) -> np.ndarray:
        return apply_modifiers(self.base.logits_array(tokens), self.modifier)

    def posterior_array(self, tokens: np.ndarray) -> np.ndarray:
        out = softmax_rows(self.logits_array(tokens))
        for d in range(self.D):
            if tokens[d] != self.S:
                out[d] = 0.0
                out[d, tokens[d]] = 1.0
        return out


# ---------------------------------------------------------------------------
# the context cache and exact loss enumeration
# ---------------------------------------------------------------------------


#: Context codes are int64; (S+1)**D at or above this bound wraps.
CODE_LIMIT = 2**63


class CodeCache:
    """Lazy per-context posterior rows keyed by the base-(S+1) context code.

    This is the one context cache: the loss evaluators use it as is and the
    samplers extend it with predictor memos and the guidance kernel. It alone
    turns token rows into codes (``encode``, ``children``, ``pairs``) and
    back (``decode``), so the key format lives here and nowhere else. Codes
    are int64, so a size whose codes would wrap raises SizeCapError instead
    of evaluating the model on the wrong context. ``diag``, when given,
    counts denoiser evaluations in its ``denoiser_evals`` field.
    """

    def __init__(self, denoiser: Denoiser, diag=None):
        self.denoiser = denoiser
        self.diag = diag
        self.D, self.S = denoiser.D, denoiser.S
        if (self.S + 1) ** self.D >= CODE_LIMIT:
            raise SizeCapError(
                f"context codes (S+1)**D = {self.S + 1}**{self.D} do not fit in int64"
            )
        self.pows = (self.S + 1) ** np.arange(self.D, dtype=np.int64)
        self._post: dict = {}

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """Context codes of token rows (mask = S), one per row."""
        return rows @ self.pows

    def decode(self, code: int) -> np.ndarray:
        return code // self.pows % (self.S + 1)

    def children(self, code: int, d: int) -> range:
        """Codes of the S children of context ``code`` that set masked
        position d to each real symbol, in symbol order."""
        step = int(self.pows[d])
        return range(code - self.S * step, code, step)

    def pairs(self, rows: np.ndarray, positions: np.ndarray):
        """Distinct (context, position) pairs of context rows ``rows[k]`` and
        ``positions[k]``, in ascending (code, position) order, as (codes,
        positions, index of each input pair among them). A pair is keyed by
        the rank of its code among the distinct codes times D plus the
        position: below ``rows.shape[0] * D`` at every size whose context
        codes fit in int64."""
        D = self.D
        distinct, rank = np.unique(self.encode(rows), return_inverse=True)
        keys, inv = np.unique(rank * D + positions, return_inverse=True)
        return distinct[keys // D], keys % D, inv

    def posterior(self, code: int) -> np.ndarray:
        hit = self._post.get(code)
        if hit is None:
            hit = self.denoiser.posterior_array(self.decode(code))
            if self.diag is not None:
                self.diag.denoiser_evals += 1
            self._post[code] = hit
        return hit

    def gather(self, rows: np.ndarray, position: int, symbols: np.ndarray) -> np.ndarray:
        """probs[k] = posterior(context rows[k])[position, symbols[k]]."""
        return np.array([self.posterior(code)[position, s]
                         for code, s in zip(self.encode(rows).tolist(), symbols.tolist())])


def _support(p: TabularDistribution):
    table = sequence_table(p.D, p.S)
    idx = np.flatnonzero(p.weights > 0)
    return table[idx], p.weights[idx]


def _pattern_ce_loss(denoiser: Denoiser, p: TabularDistribution, pattern_weight) -> float:
    """Sum over mask patterns of weight(m) times the expected sum of
    masked-position cross-entropies under p."""
    D, S = p.D, p.S
    toks, w = _support(p)
    cache = CodeCache(denoiser)
    loss = 0.0
    for bits in range(1, 1 << D):
        masked = [d for d in range(D) if bits >> d & 1]
        m = len(masked)
        weight = pattern_weight(m, D)
        if weight == 0.0:
            continue
        ctx = toks.copy()
        ctx[:, masked] = S
        ce = np.zeros(toks.shape[0])
        for d in masked:
            ce -= np.log(cache.gather(ctx, d, toks[:, d]))
        loss += weight * float(w @ ce)
    return loss


def fm_loss_exact(denoiser: Denoiser, p: TabularDistribution) -> float:
    """Exact uniform-time masking cross-entropy loss (see module docstring
    for the Beta pattern-weight derivation)."""
    if p.D > FM_ENUM_CAP_D:
        raise SizeCapError(f"fm_loss_exact enumerates 2**D patterns; D={p.D} exceeds {FM_ENUM_CAP_D}")
    return _pattern_ce_loss(
        denoiser, p, lambda m, D: math.factorial(m) * math.factorial(D - m) / math.factorial(D + 1)
    )


def rate_weighted_fm_loss_exact(denoiser: Denoiser, p: TabularDistribution) -> float:
    """Masking cross-entropy weighted by the unmasking rate 1/(1-t); equals
    the permutation-averaged NLL of aoarm_loss_exact identically."""
    if p.D > FM_ENUM_CAP_D:
        raise SizeCapError(f"D={p.D} exceeds enumeration cap {FM_ENUM_CAP_D}")
    return _pattern_ce_loss(
        denoiser, p, lambda m, D: math.factorial(m - 1) * math.factorial(D - m) / math.factorial(D)
    )


def aoarm_loss_exact(denoiser: Denoiser, p: TabularDistribution) -> float:
    """Expected whole-sequence NLL over uniformly random decode orders,
    enumerated over all D! permutations and the support of p."""
    D, S = p.D, p.S
    if D > AOARM_ENUM_CAP_D:
        raise SizeCapError(f"aoarm_loss_exact enumerates D! orders; D={D} exceeds {AOARM_ENUM_CAP_D}")
    toks, w = _support(p)
    cache = CodeCache(denoiser)
    total = 0.0
    n_perm = 0
    for sigma in itertools.permutations(range(D)):
        ctx = np.full_like(toks, S)
        nll = np.zeros(toks.shape[0])
        for pos in sigma:
            nll -= np.log(cache.gather(ctx, pos, toks[:, pos]))
            ctx[:, pos] = toks[:, pos]
        total += float(w @ nll)
        n_perm += 1
    return total / n_perm


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

LOSS_VARIANTS = ("FM", "MLM", "AOARM")


def _validated_probs(n: int, steps: int, weights, lr: float, batch_size: int):
    """Check train_denoiser's arguments before any draw, raising a ValueError
    that names the bad one; return the draw probabilities of the n samples."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not lr > 0:  # NaN fails too; inf is left to TrainingDivergedError
        raise ValueError(f"lr must be > 0, got {lr}")
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights must have one entry per sample ({n}), got shape {w.shape}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError("weights must be finite and nonnegative")
    total = w.sum()
    if not total > 0:
        raise ValueError("weights must have a positive sum")
    return w / total


def train_denoiser(
    loss_variant: str,
    samples: Sequence[TokenSequence],
    steps: int,
    rng,
    weights=None,
    lr: float = 0.1,
    batch_size: int = 32,
):
    """Stochastic-gradient training of a ParametricDenoiser.

    FM and MLM draw a uniform time per example and score every masked
    position; they coincide exactly here because the model has no time input.
    AOARM reveals a uniformly random subset and scores one uniformly chosen
    hidden position. Returns (model, loss): the running loss after the last
    step, an exponential average of the step losses; 0.0 when none ran.

    The pair gradient of a step is one ``np.bincount`` over the flat cell
    index (e, context token, d, s), which adds each cell's batch rows in row
    order starting from 0.0: the same sum, bit for bit, as adding the rows
    of each (e, context token) group one by one. Keep that order:
    ``np.add.reduceat`` and a one-hot matmul (whose order follows the BLAS
    blocking) add in other orders, and in trials moved ``pair`` by up to
    2.2e-16.
    """
    if loss_variant not in LOSS_VARIANTS:
        raise ValueError(f"loss_variant must be one of {LOSS_VARIANTS}")
    if not samples:
        raise ValueError("training data must be nonempty")
    D = samples[0].D
    S = samples[0].alphabet.size
    if any(x.D != D or x.alphabet.size != S for x in samples):
        raise ValueError("samples must share one length and one alphabet")
    probs = _validated_probs(len(samples), steps, weights, lr, batch_size)
    gen = as_generator(rng)
    data = np.stack([x.tokens for x in samples])
    model = ParametricDenoiser(D, S)
    # pair viewed as [e, context token, d, s] for batched context gathers
    pair_t = model.pair.transpose(1, 2, 0, 3)
    pos = np.arange(D)
    bidx = np.arange(batch_size)[:, None]
    # flat cell of (e, context token c, d, s) is ((c + e*(S+1)) * D + d) * S + s
    e_offset = pos * (S + 1)
    cells = np.arange(D * S)
    n_cells = D * (S + 1) * D * S
    scale = lr / batch_size
    running = None
    for step in range(steps):
        x1 = data[gen.choice(len(samples), size=batch_size, p=probs)]
        if loss_variant == "AOARM":
            # reveal a uniform subset, score one uniformly chosen hidden position
            order = np.argsort(gen.random((batch_size, D)), axis=1)
            k = gen.integers(0, D, size=batch_size)
            rank = np.empty_like(order)
            np.put_along_axis(rank, order, np.broadcast_to(pos, (batch_size, D)), axis=1)
            keep = rank < k[:, None]
            scored = rank == k[:, None]
        else:
            t = gen.random((batch_size, 1))
            keep = gen.random((batch_size, D)) < t
            scored = ~keep
        xt = np.where(keep, x1, S)
        ctx = pair_t[pos[None, :], xt]          # [b, e, d, s]
        logits = model.single + ctx.sum(axis=1) - ctx[:, pos, pos, :]
        rows = softmax_rows(logits)             # [b, d, s]
        truth = rows[bidx, pos, x1]
        batch_loss = float(-(np.log(np.clip(truth, 1e-300, None)) * scored).sum()) / batch_size
        if not math.isfinite(batch_loss):
            raise TrainingDivergedError(step)
        grad = rows.copy()
        grad[bidx, pos, x1] -= 1.0
        grad *= scored[..., None]
        model.single -= scale * grad.sum(axis=0)
        flat = ((xt + e_offset)[:, :, None] * (D * S) + cells).ravel()
        weight = np.broadcast_to(grad[:, None], (batch_size, D, D, S)).ravel()
        acc = np.bincount(flat, weights=weight, minlength=n_cells)
        # untouched cells subtract 0.0, which keeps their bytes
        pair_t -= scale * acc.reshape(D, S + 1, D, S)
        pair_t[pos, :, pos, :] = 0.0  # self-couplings stay zero
        running = batch_loss if running is None else 0.99 * running + 0.01 * batch_loss
    return model, (running if running is not None else 0.0)
