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

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    TabularDistribution,
    as_generator,
    check_context_count,
    clean_rows,
    encode_rows,
    pack_table,
    require_support,
    sequence_table,
    unpack_table,
)
from .errors import SizeCapError, TrainingDivergedError

FM_ENUM_CAP_D = 12
AOARM_ENUM_CAP_D = 8


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis, tolerating -inf entries
    (zero-probability symbols). With 2 to 7 symbols the row maximum is
    S - 1 ``np.maximum`` calls and the row total S - 1 adds, left to right,
    over last-axis slices: numpy sums a last axis shorter than 8 left to
    right too, so the bits are ``np.sum``'s, without its per-row reduction
    loop. From 8 symbols on the total is ``np.sum``, whose 8 accumulators
    add in another order."""
    S = logits.shape[-1]
    if not 2 <= S < 8:
        ex = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return ex / ex.sum(axis=-1, keepdims=True)
    top = np.maximum(logits[..., :1], logits[..., 1:2])
    for s in range(2, S):
        np.maximum(top, logits[..., s:s + 1], out=top)
    ex = np.subtract(logits, top)
    np.exp(ex, out=ex)
    total = ex[..., :1] + ex[..., 1:2]
    for s in range(2, S):
        total += ex[..., s:s + 1]
    ex /= total
    return ex


def pair_positions(tokens: np.ndarray, positions=None):
    """(rows, positions, observed) of the (context, position) pairs a row
    model answers, with one batch shape: the context row, position and token
    there of each pair. With ``positions`` (P,) and ``tokens`` (P, D), pair j
    is position ``positions[j]`` of row j (batch shape (P,)); without, every
    position of each row of ``tokens`` (D,) or (n, D) (batch shape (D,) or
    (n, D)), so the full form is the all-positions case of the pair form."""
    if positions is None:
        return tokens[..., None, :], np.arange(tokens.shape[-1]), tokens
    positions = np.asarray(positions)
    return tokens, positions, tokens[np.arange(positions.size), positions]


def fill_observed(post: np.ndarray, observed: np.ndarray, S: int) -> np.ndarray:
    """``post`` (..., S), an array the caller owns, with each row whose
    ``observed`` token (...) is unmasked overwritten in place by the one-hot
    of that token; returns ``post``. Only observed rows are written, and the
    samplers' pairs are all masked."""
    seen = observed != S
    post[seen] = observed[seen][:, None] == np.arange(S)
    return post


class Denoiser:
    """Base class: immutable after construction, safe to evaluate concurrently.

    ``posterior_array`` takes one token array (D,) and returns its (D, S)
    posterior, or rows (n, D) and returns (n, D, S). It also has a pair
    form: with ``positions`` (P,), ``tokens`` (P, D) are the contexts of P
    (context, position) pairs and the answer is their (P, S) rows, row j the
    posterior of context j at ``positions[j]``. Every answer is bit for bit
    the matching row of the single-row call (see :func:`pair_positions`).
    The samplers call the pair form once per any-order step or Euler round
    on the pairs it draws, and the pattern losses the rows form once per mask pattern on its
    distinct contexts; neither keeps a copy.
    """

    D: int
    S: int

    def posterior_array(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        raise NotImplementedError

    def logits_array(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.posterior_array(tokens, positions))

    def supported(self, rows: np.ndarray) -> np.ndarray:
        """Whether each context row (n, D) has a posterior; a model without
        zero-mass contexts supports every row."""
        return np.ones(rows.shape[0], dtype=bool)


class ExactDenoiser(Denoiser):
    """Enumeration-backed posterior for a tabular distribution.

    ``probs[d, s] = sum over consistent completions with x1^d = s of
    p(x1 | x_t)``: the mass of the child context that sets masked position d
    to s over the mass of the context, both read from the distribution's
    padded context-mass table (:meth:`TabularDistribution.context_mass`).
    Construction refuses a size whose (S+1)**D table exceeds the table cap.
    """

    def __init__(self, p: TabularDistribution):
        check_context_count(p.D, p.S)
        self.p = p
        self.D, self.S = p.D, p.S
        # setting masked position d to s lowers the context code by
        # (S - s) * (S+1)**d
        self._drop = (self.S - np.arange(self.S)) * (self.S + 1) ** np.arange(self.D)[:, None]

    def supported(self, rows: np.ndarray) -> np.ndarray:
        return self.p.context_mass()[encode_rows(rows, self.S + 1)] > 0.0

    def posterior_array(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        """Posterior of one token array (D,), shape (D, S), of each row of
        (n, D), shape (n, D, S), or of the pairs (``tokens[j]``,
        ``positions[j]``), shape (P, S). The first row whose context has no
        mass raises UnsupportedContextError."""
        S = self.S
        mass = self.p.context_mass()
        rows, at, observed = pair_positions(tokens, positions)
        code = encode_rows(rows, S + 1)
        total = mass[code]
        require_support(tokens, total > 0.0, S)
        code, total = code[..., None], total[..., None]
        child = np.where((observed == S)[..., None], code - self._drop.take(at, axis=0), code)
        out = fill_observed(mass.take(child) / total, observed, S)
        out.setflags(write=False)
        return out


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

    def logits_array(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        """Logits of one token array (D,), shape (D, S), of each row of
        (n, D), shape (n, D, S), or of the pairs (``tokens[j]``,
        ``positions[j]``), shape (P, S). The context sum adds over e in
        order, so a pair's logits do not depend on the call it is in."""
        rows, at, observed = pair_positions(tokens, positions)
        # [..., e, s] = pair[at, e, rows[..., e], s]
        ctx = self.pair[at[..., None], np.arange(self.D), rows, :]
        return self.single[at] + ctx.sum(axis=-2) - self.pair[at, at, observed, :]

    def posterior_array(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        """Posterior of one token array (D,), shape (D, S), of each row of
        (n, D), shape (n, D, S), or of the pairs (``tokens[j]``,
        ``positions[j]``), shape (P, S), each row bit for bit its row of
        the single-row call."""
        observed = pair_positions(tokens, positions)[2]
        return fill_observed(softmax_rows(self.logits_array(tokens, positions)), observed, self.S)

    def to_json(self) -> dict:
        return {
            "D": self.D,
            "S": self.S,
            "single_site": pack_table(self.single),
            "pairwise": pack_table(self.pair),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ParametricDenoiser":
        return cls(int(obj["D"]), int(obj["S"]), unpack_table(obj["single_site"], "single_site"),
                   unpack_table(obj["pairwise"], "pairwise"))


# ---------------------------------------------------------------------------
# logit modifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LogitModifier:
    """Sampling-time logit adjustments: softmax temperature and an additive
    wild-type bias w at each position's wild-type token. The temperature must
    be positive and finite and w finite and nonnegative (NaN is neither). The
    wild type is a 1-D integer token row, kept as a read-only int64 copy;
    :class:`ModifiedDenoiser` checks it against its base. Instances compare
    and hash by identity."""

    temperature: float = 1.0
    wildtype_weight: float = 0.0
    wildtype_sequence: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")
        if not 0 <= self.wildtype_weight < math.inf:
            raise ValueError(f"wild-type weight must be finite and >= 0, got {self.wildtype_weight}")
        if self.wildtype_sequence is None:
            if self.wildtype_weight > 0:
                raise ValueError("wild-type weight requires a wild-type sequence")
            return
        row = np.asarray(self.wildtype_sequence)
        if row.ndim != 1 or not np.issubdtype(row.dtype, np.integer):
            raise ValueError(f"a wild type must be a 1-d integer token row, got shape "
                             f"{row.shape} of dtype {row.dtype}")
        row = row.astype(np.int64)
        row.setflags(write=False)
        object.__setattr__(self, "wildtype_sequence", row)

    @property
    def is_identity(self) -> bool:
        return self.temperature == 1.0 and self.wildtype_weight == 0.0


def apply_modifiers(logits: np.ndarray, mod: LogitModifier, positions=None) -> np.ndarray:
    """Add w at each row's wild-type token, then divide all logits by the
    temperature. ``logits`` (..., S) holds the rows of ``positions`` (...);
    without them, logits (D, S) or (n, D, S) hold positions 0..D-1. Identity
    settings return the input values bit-identically."""
    out = np.array(logits, dtype=float)
    if mod.is_identity:
        return out
    if mod.wildtype_weight > 0:
        wt = mod.wildtype_sequence
        if positions is not None:
            wt = wt[positions]
        out = np.where(wt[..., None] == np.arange(out.shape[-1]), out + mod.wildtype_weight, out)
    if mod.temperature != 1.0:
        out = out / mod.temperature
    return out


class ModifiedDenoiser(Denoiser):
    """Denoiser with a LogitModifier applied before normalization; unmasked
    positions keep their observed one-hot rows. It answers rows and pairs
    as its base does, and supports the contexts its base supports. A wild
    type must be a clean row of the base: length D, symbols 0..S-1."""

    def __init__(self, base: Denoiser, modifier: LogitModifier):
        wildtype = modifier.wildtype_sequence
        if wildtype is not None and (
            wildtype.size != base.D or wildtype.min() < 0 or wildtype.max() >= base.S
        ):
            raise ValueError(
                f"wild-type row {wildtype.tolist()} is not a clean row of a model with "
                f"D={base.D}, S={base.S}"
            )
        self.base, self.modifier = base, modifier
        self.D, self.S = base.D, base.S

    def supported(self, rows: np.ndarray) -> np.ndarray:
        return self.base.supported(rows)

    def logits_array(self, tokens: np.ndarray, positions=None) -> np.ndarray:
        return apply_modifiers(self.base.logits_array(tokens, positions), self.modifier, positions)

    # the softmax of the modified logits, observed positions one-hot
    posterior_array = ParametricDenoiser.posterior_array


# ---------------------------------------------------------------------------
# exact loss enumeration
# ---------------------------------------------------------------------------


def _support(p: TabularDistribution):
    table = sequence_table(p.D, p.S)
    idx = np.flatnonzero(p.weights > 0)
    return table[idx], p.weights[idx]


def _pattern_probs(denoiser: Denoiser, toks: np.ndarray, S: int):
    """For each mask pattern bits = 1 .. 2**D - 1, in that order, yield
    (masked, probs): ``masked`` the positions the pattern masks, ascending,
    and probs[k, j] the posterior, at ``masked[j]``, of support row toks[k]'s
    own token there given toks[k] with ``masked`` masked; one rows call on
    the pattern's distinct contexts."""
    D = toks.shape[1]
    for bits in range(1, 1 << D):
        masked = [d for d in range(D) if bits >> d & 1]
        ctx = toks.copy()
        ctx[:, masked] = S
        # the enumeration caps (D <= 12, S**D <= 2**24) keep codes in int64
        _, first, inv = np.unique(encode_rows(ctx, S + 1), return_index=True, return_inverse=True)
        yield masked, denoiser.posterior_array(ctx[first])[inv[:, None], masked, toks[:, masked]]


def _pattern_ce_loss(denoiser: Denoiser, p: TabularDistribution, pattern_weight) -> float:
    """Sum over mask patterns of weight(m) times the expected sum of
    masked-position cross-entropies under p."""
    toks, w = _support(p)
    loss = 0.0
    for masked, probs in _pattern_probs(denoiser, toks, p.S):
        ce = np.zeros(toks.shape[0])
        for j in range(len(masked)):
            ce -= np.log(probs[:, j])
        loss += pattern_weight(len(masked), p.D) * float(w @ ce)
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
    enumerated over all D! permutations and the support of p.

    A decode step's context is the support row with the not yet decoded
    positions masked, so each of the 2**D - 1 mask patterns is evaluated
    once, in one rows call, and every order reads its log-posteriors from
    that table, adding them up in its own decode order."""
    D, S = p.D, p.S
    if D > AOARM_ENUM_CAP_D:
        raise SizeCapError(f"aoarm_loss_exact enumerates D! orders; D={D} exceeds {AOARM_ENUM_CAP_D}")
    toks, w = _support(p)
    # logp[bits]: the support rows' log-posteriors at the positions the mask
    # pattern bits masks, one column each in ascending order, so masked
    # position d is column (bits & ((1 << d) - 1)).bit_count()
    logp = [None] + [np.log(probs, out=probs) for _, probs in _pattern_probs(denoiser, toks, S)]
    total = 0.0
    for sigma in itertools.permutations(range(D)):
        bits = (1 << D) - 1
        nll = np.zeros(toks.shape[0])
        for pos in sigma:
            nll -= logp[bits][:, (bits & ((1 << pos) - 1)).bit_count()]
            bits ^= 1 << pos
        total += float(w @ nll)
    return total / math.factorial(D)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

LOSS_VARIANTS = ("FM", "AOARM")


def _validate(steps: int, lr: float, batch_size: int) -> None:
    """Check train_denoiser's arguments before any draw, raising a ValueError
    that names the bad one."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not lr > 0:  # NaN fails too; inf is left to TrainingDivergedError
        raise ValueError(f"lr must be > 0, got {lr}")


#: Steps whose draws and set-up train_denoiser makes together. A block holds
#: a few (TRAIN_BLOCK_STEPS, batch_size, D) arrays, so the trainer's memory
#: grows with it; 16 keeps the campaign's training under 512 KiB (a test
#: checks this), and larger blocks ran no faster.
TRAIN_BLOCK_STEPS = 16


def _draw_block(loss_variant, gen, cdf, n_steps, batch_size, D):
    """The draws of n_steps training steps, in the order the steps would make
    them one at a time: (sample index (n_steps, b), keep (n_steps, b, D),
    scored (n_steps, b, D)). The sample index is
    ``cdf.searchsorted(u, side="right")``, which is what ``Generator.choice``
    does with ``p``."""
    b = batch_size
    if loss_variant != "AOARM":
        # per step: b choice uniforms, b times, b*D keep uniforms
        u = gen.random(n_steps * b * (2 + D)).reshape(n_steps, b * (2 + D))
        keep = u[:, 2 * b:].reshape(n_steps, b, D) < u[:, b:2 * b, None]
        return cdf.searchsorted(u[:, :b], side="right"), keep, ~keep
    sel = np.empty((n_steps, b), dtype=np.int64)
    scores = np.empty((n_steps, b, D))
    k = np.empty((n_steps, b, 1), dtype=np.int64)
    for i in range(n_steps):
        sel[i] = cdf.searchsorted(gen.random(b), side="right")
        gen.random(out=scores[i])
        k[i, :, 0] = gen.integers(0, D, size=b)
    # reveal a uniform subset, score one uniformly chosen hidden position
    rank = np.argsort(np.argsort(scores, axis=-1), axis=-1)
    return sel, rank < k, rank == k


def train_denoiser(
    loss_variant: str,
    rows,
    S: int,
    steps: int,
    rng,
    lr: float = 0.1,
    batch_size: int = 32,
):
    """Stochastic-gradient training of a ParametricDenoiser on the clean
    token matrix ``rows`` (n, D) over S symbols (see :func:`clean_rows`).

    FM draws a uniform time per example and scores every masked position
    (an MLM loss is the same here: the model has no time input). AOARM
    reveals a uniformly random subset and scores one uniformly chosen hidden
    position. Returns (model, loss): the running loss after the last step,
    an exponential average of the step losses; 0.0 when none ran.

    Draw order: each step draws, from ``rng`` and in this order, the batch
    (``batch_size`` uniforms, as a uniform ``Generator.choice`` does), then
    for FM ``batch_size`` times and ``batch_size * D`` keep uniforms, or
    for AOARM ``batch_size * D`` order uniforms and ``batch_size`` integers
    in [0, D). The draws do not depend on the weights, so the steps of a
    block of ``TRAIN_BLOCK_STEPS`` make theirs before any of them runs (FM
    in one ``random`` call); the generator ends where ``steps`` steps drawn
    one at a time leave it, and the weights and loss do not depend on the
    block size. A non-finite loss raises
    TrainingDivergedError naming the first step that read one.

    The pair table is trained as one flat array in [e, context token, d, s]
    order. A step gathers its contexts with one ``take`` and sums its pair
    gradient with one ``np.bincount``, both over the flat cell index
    ((x_t^e + e*(S+1)) * D + d) * S + s. The bincount adds each cell's batch
    rows in row order starting from 0.0: the same sum, bit for bit, as
    adding the rows of each (e, context token) group one by one. Keep that
    order: ``np.add.reduceat`` and a one-hot matmul (whose order follows the
    BLAS blocking) add in other orders, and in trials moved ``pair`` by up
    to 2.2e-16.
    """
    if loss_variant not in LOSS_VARIANTS:
        raise ValueError(f"loss_variant must be one of {LOSS_VARIANTS}")
    data = clean_rows(rows, S)
    if not data.shape[0]:
        raise ValueError("training data must be nonempty")
    D = data.shape[1]
    _validate(steps, lr, batch_size)
    gen = as_generator(rng)
    cdf = np.full(data.shape[0], 1.0 / data.shape[0]).cumsum()
    cdf /= cdf[-1]
    b, DS = batch_size, D * S
    pos = np.arange(D)
    single = np.zeros((D, S))
    n_cells = D * (S + 1) * DS
    pair = np.zeros(n_cells)  # flat [e, context token, d, s]
    # the D*S flat cells of each (e, context token), one row per pair
    cell_rows = np.arange(n_cells).reshape(D * (S + 1), DS)
    self_cells = cell_rows.reshape(D, S + 1, D, S)[pos, :, pos, :].ravel()
    e_offset = pos * (S + 1)
    # flat index of a (batch row, d, truth symbol) cell of the (b, D, S) posteriors
    row_offset = np.arange(b)[:, None] * DS + pos * S
    index = np.empty((b, D, DS), dtype=np.int64)
    work = np.empty((b, D, DS))  # the step's contexts, then its gradient weights
    scale = lr / batch_size
    running = None
    for first in range(0, steps, TRAIN_BLOCK_STEPS):
        n = min(TRAIN_BLOCK_STEPS, steps - first)
        sel, keep, scored = _draw_block(loss_variant, gen, cdf, n, b, D)
        x1 = data[sel]                            # [step, b, d]
        pairs = np.where(keep, x1, S)             # x_t, then its cell_rows row
        pairs += e_offset
        x1 += row_offset                          # flat index of the truth
        truth = np.empty((n, b, D))
        for i in range(n):
            # mode="clip" gathers without the buffered copy of mode="raise";
            # every index is in range
            cell_rows.take(pairs[i], axis=0, out=index, mode="clip")  # [b, e, d*S + s]
            pair.take(index, out=work, mode="clip")
            logits = work.sum(axis=1).reshape(b, D, S)
            logits += single
            grad = softmax_rows(logits)           # [b, d, s]
            flat = grad.reshape(-1)
            truth[i] = flat[x1[i]]
            flat[x1[i]] -= 1.0
            grad *= scored[i][..., None]
            single -= scale * grad.sum(axis=0)
            np.copyto(work, grad.reshape(b, 1, DS))
            acc = np.bincount(index.reshape(-1), weights=work.reshape(-1), minlength=n_cells)
            # untouched cells subtract 0.0, which keeps their bytes
            acc *= scale
            pair -= acc
            pair[self_cells] = 0.0                # self-couplings stay zero
        # each step's loss terms -log(clip(truth)) * scored, in place
        np.log(np.clip(truth, 1e-300, None, out=truth), out=truth)
        truth *= scored
        losses = np.negative(truth, out=truth).reshape(n, -1).sum(axis=1)
        losses /= batch_size
        finite = np.isfinite(losses)
        if not finite.all():
            raise TrainingDivergedError(first + int(np.argmin(finite)))
        for batch_loss in losses.tolist():
            running = batch_loss if running is None else 0.99 * running + 0.01 * batch_loss
        del sel, keep, scored, x1, pairs, truth  # free the block before the next one draws
    model = ParametricDenoiser(
        D, S, single, np.ascontiguousarray(pair.reshape(D, S + 1, D, S).transpose(2, 0, 1, 3))
    )
    return model, (running if running is not None else 0.0)
