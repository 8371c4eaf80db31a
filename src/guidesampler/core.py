"""Alphabets, sequences, masking, interpolation schedules, tabular distributions.

Everything downstream builds on the conventions fixed here:

* symbols are integers ``0..S-1``; the mask sentinel is index ``S`` (one past
  the last real symbol) and never appears in a clean sequence;
* tabular objects index the ``S**D`` clean sequences by a little-endian
  mixed-radix code (position 0 is the least significant digit);
* masked contexts are coded the same way in base ``S+1``;
* all randomness flows through :class:`RandomSource`, a counter-based
  (Philox) stream keyed by ``(seed, stream_id)``.

All types are immutable after construction and safe to share across
concurrent samplers; generators handed out by :class:`RandomSource` are the
only mutable state and belong to exactly one sampling chain each.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SizeCapError, UnsupportedContextError

#: Largest S**D for which explicit tables over all sequences are allowed.
TABULAR_STATE_CAP = 1 << 24


# ---------------------------------------------------------------------------
# alphabet and sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    """Alphabet of ``size`` real symbols; index ``size`` is the mask sentinel."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, (int, np.integer)) or self.size < 2:
            raise ValueError(f"alphabet size must be an integer >= 2, got {self.size!r}")

    @property
    def mask_index(self) -> int:
        return self.size

    def letter(self, token: int) -> str:
        """Render one token; mask renders as '?'."""
        if token == self.size:
            return "?"
        if 0 <= token < self.size:
            return chr(ord("A") + token)
        raise ValueError(f"token {token} outside alphabet of size {self.size}")

    def token(self, letter: str) -> int:
        if letter == "?":
            return self.size
        idx = ord(letter.upper()) - ord("A")
        if not 0 <= idx < self.size:
            raise ValueError(f"letter {letter!r} outside alphabet of size {self.size}")
        return idx


def _freeze(tokens) -> np.ndarray:
    arr = np.array(tokens, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a sequence must be a non-empty 1-d token array")
    arr.setflags(write=False)
    return arr


class TokenSequence:
    """Fixed-length sequence of real symbols (no mask sentinel allowed)."""

    __slots__ = ("tokens", "alphabet")

    def __init__(self, tokens, alphabet: Alphabet):
        arr = _freeze(tokens)
        if arr.min() < 0 or arr.max() >= alphabet.size:
            raise ValueError("clean sequences may only contain symbols 0..S-1")
        object.__setattr__(self, "tokens", arr)
        object.__setattr__(self, "alphabet", alphabet)

    @property
    def D(self) -> int:
        return self.tokens.size

    def as_masked(self) -> "MaskedSequence":
        return MaskedSequence(self.tokens, self.alphabet)

    def __len__(self):
        return self.tokens.size

    def __eq__(self, other):
        return (
            isinstance(other, TokenSequence)
            and self.alphabet == other.alphabet
            and np.array_equal(self.tokens, other.tokens)
        )

    def __hash__(self):
        return hash((self.alphabet.size, self.tokens.tobytes()))

    def __str__(self):
        return "".join(self.alphabet.letter(int(t)) for t in self.tokens)

    def __repr__(self):
        return f"TokenSequence({str(self)!r}, S={self.alphabet.size})"


class MaskedSequence:
    """Sequence over the mask-extended alphabet: real symbols or the sentinel."""

    __slots__ = ("tokens", "alphabet")

    def __init__(self, tokens, alphabet: Alphabet):
        arr = _freeze(tokens)
        if arr.min() < 0 or arr.max() > alphabet.size:
            raise ValueError("masked sequences may only contain 0..S (S = mask)")
        object.__setattr__(self, "tokens", arr)
        object.__setattr__(self, "alphabet", alphabet)

    @classmethod
    def fully_masked(cls, D: int, alphabet: Alphabet) -> "MaskedSequence":
        return cls(np.full(D, alphabet.mask_index, dtype=np.int64), alphabet)

    @property
    def D(self) -> int:
        return self.tokens.size

    def masked_positions(self) -> np.ndarray:
        return np.flatnonzero(self.tokens == self.alphabet.mask_index)

    def unmasked_positions(self) -> np.ndarray:
        return np.flatnonzero(self.tokens != self.alphabet.mask_index)

    def is_clean(self) -> bool:
        return not (self.tokens == self.alphabet.mask_index).any()

    def to_clean(self) -> TokenSequence:
        if not self.is_clean():
            raise ValueError("sequence still contains masked positions")
        return TokenSequence(self.tokens, self.alphabet)

    def __len__(self):
        return self.tokens.size

    def __eq__(self, other):
        return (
            isinstance(other, MaskedSequence)
            and self.alphabet == other.alphabet
            and np.array_equal(self.tokens, other.tokens)
        )

    def __hash__(self):
        return hash((self.alphabet.size, self.tokens.tobytes()))

    def __str__(self):
        return "".join(self.alphabet.letter(int(t)) for t in self.tokens)

    def __repr__(self):
        return f"MaskedSequence({str(self)!r}, S={self.alphabet.size})"


def sequence_from_str(text: str, alphabet: Alphabet) -> TokenSequence:
    return TokenSequence([alphabet.token(c) for c in text], alphabet)


def masked_from_str(text: str, alphabet: Alphabet) -> MaskedSequence:
    return MaskedSequence([alphabet.token(c) for c in text], alphabet)


# ---------------------------------------------------------------------------
# mixed-radix encoding (little-endian: position 0 least significant)
# ---------------------------------------------------------------------------


def _check_state_count(D: int, S: int, cap: int = TABULAR_STATE_CAP) -> int:
    n = S**D
    if n > cap:
        raise SizeCapError(f"S**D = {S}**{D} = {n} exceeds the table cap {cap}")
    return n


def encode_index(x: TokenSequence) -> int:
    """Little-endian mixed-radix code of a clean sequence."""
    return encode_tokens(x.tokens, x.alphabet.size)


def encode_tokens(tokens: np.ndarray, S: int) -> int:
    code = 0
    for i in range(len(tokens) - 1, -1, -1):
        code = code * S + int(tokens[i])
    return code


def decode_index(index: int, D: int, S: int, alphabet: Optional[Alphabet] = None) -> TokenSequence:
    if not 0 <= index < S**D:
        raise ValueError(f"index {index} out of range for S**D = {S**D}")
    toks = np.empty(D, dtype=np.int64)
    for i in range(D):
        toks[i] = index % S
        index //= S
    return TokenSequence(toks, alphabet or Alphabet(S))


@functools.lru_cache(maxsize=32)
def sequence_table(D: int, S: int) -> np.ndarray:
    """All S**D clean sequences as an (S**D, D) array, row i = decode_index(i)."""
    n = _check_state_count(D, S)
    table = np.empty((n, D), dtype=np.int64)
    idx = np.arange(n)
    for i in range(D):
        table[:, i] = idx % S
        idx = idx // S
    table.setflags(write=False)
    return table


def encode_rows(rows: np.ndarray, S: int) -> np.ndarray:
    """Vectorized little-endian encoding of an (n, D) token matrix."""
    D = rows.shape[1]
    radix = S ** np.arange(D, dtype=np.int64)
    return rows @ radix


# ---------------------------------------------------------------------------
# interpolation schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterpolationSchedule:
    """kappa: [0,1] -> [0,1] with kappa(0)=0, kappa(1)=1, monotone; kappa_dot
    its derivative; kappa_inv the inverse CDF used to draw per-position jump
    times (numeric bisection fallback if absent)."""

    kappa: Callable[[float], float]
    kappa_dot: Callable[[float], float]
    kappa_inv: Optional[Callable[[float], float]] = None
    name: str = "custom"

    def inverse(self, u):
        """kappa^-1 of a scalar or, elementwise, of an array."""
        if self.kappa_inv is not None:
            return self.kappa_inv(u)
        u = np.asarray(u, dtype=float)
        lo, hi = np.zeros_like(u), np.ones_like(u)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = self.kappa(mid) < u
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return (0.5 * (lo + hi))[()]


def identity_schedule() -> InterpolationSchedule:
    return InterpolationSchedule(
        kappa=lambda t: t, kappa_dot=lambda t: 1.0, kappa_inv=lambda u: u, name="identity"
    )


def power_schedule(a: float) -> InterpolationSchedule:
    """kappa(t) = 1 - (1-t)**a, a > 0."""
    if a <= 0:
        raise ValueError("power schedule exponent must be positive")
    return InterpolationSchedule(
        kappa=lambda t: 1.0 - (1.0 - t) ** a,
        kappa_dot=lambda t: a * (1.0 - t) ** (a - 1.0),
        kappa_inv=lambda u: 1.0 - (1.0 - u) ** (1.0 / a),
        name=f"power[{a}]",
    )


def check_schedule(schedule: InterpolationSchedule, grid: int = 1000, tol: float = 1e-6) -> None:
    """Validate endpoints, monotonicity, and kappa_dot against central finite
    differences on an interior grid. Raises ValueError on violation."""
    k0, k1 = schedule.kappa(0.0), schedule.kappa(1.0)
    if abs(k0) > 1e-12 or abs(k1 - 1.0) > 1e-12:
        raise ValueError(f"schedule endpoints violated: kappa(0)={k0}, kappa(1)={k1}")
    ts = np.linspace(0.0, 1.0, grid + 1)
    vals = np.array([schedule.kappa(float(t)) for t in ts])
    if (np.diff(vals) < -1e-12).any():
        raise ValueError("kappa is not monotone nondecreasing")
    h = 1e-6
    for t in ts[1:-1]:
        fd = (schedule.kappa(float(t) + h) - schedule.kappa(float(t) - h)) / (2 * h)
        if abs(fd - schedule.kappa_dot(float(t))) > tol:
            raise ValueError(
                f"kappa_dot disagrees with finite difference at t={t}: "
                f"{schedule.kappa_dot(float(t))} vs {fd}"
            )


# ---------------------------------------------------------------------------
# tabular distributions
# ---------------------------------------------------------------------------


class TabularDistribution:
    """Explicit probability table over all S**D sequences.

    ``weights[i]`` is the probability of ``decode_index(i, D, S)``; the vector
    must be nonnegative and sum to 1 within 1e-9.
    """

    __slots__ = ("D", "S", "weights", "alphabet")

    def __init__(self, D: int, S: int, weights):
        n = _check_state_count(D, S)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError(f"expected {n} weights for D={D}, S={S}, got shape {w.shape}")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        total = w.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1 within 1e-9 (got {total})")
        w = w.copy()
        w.setflags(write=False)
        self.D, self.S, self.weights = D, S, w
        self.alphabet = Alphabet(S)

    @classmethod
    def from_unnormalized(cls, D: int, S: int, weights) -> "TabularDistribution":
        w = np.asarray(weights, dtype=np.float64)
        total = w.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError("cannot normalize: total weight is zero or non-finite")
        return cls(D, S, w / total)

    @classmethod
    def uniform(cls, D: int, S: int) -> "TabularDistribution":
        n = _check_state_count(D, S)
        return cls(D, S, np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, x: TokenSequence) -> "TabularDistribution":
        n = _check_state_count(x.D, x.alphabet.size)
        w = np.zeros(n)
        w[encode_index(x)] = 1.0
        return cls(x.D, x.alphabet.size, w)

    def prob(self, x: TokenSequence) -> float:
        return float(self.weights[encode_index(x)])

    def marginal(self, position: int) -> np.ndarray:
        """Single-position marginal, shape (S,)."""
        table = sequence_table(self.D, self.S)
        out = np.zeros(self.S)
        np.add.at(out, table[:, position], self.weights)
        return out

    def sample_indices(self, n: int, rng) -> np.ndarray:
        gen = as_generator(rng)
        return gen.choice(self.weights.size, size=n, p=self.weights)

    def sample(self, n: int, rng) -> list:
        idx = self.sample_indices(n, rng)
        table = sequence_table(self.D, self.S)
        return [TokenSequence(table[i], self.alphabet) for i in idx]

    def to_json(self) -> dict:
        return {"D": self.D, "S": self.S, "weights": self.weights.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "TabularDistribution":
        return cls(int(obj["D"]), int(obj["S"]), obj["weights"])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path) -> "TabularDistribution":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RandomSource:
    """Deterministic randomness root: (seed, stream_id) -> Philox stream.

    Identical (seed, stream_id) reproduce identical draws bit-for-bit;
    distinct stream_ids give statistically independent streams. Substreams
    derive by mixing, so per-chain streams need no coordination.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream_id & 0xFFFFFFFFFFFFFFFF]
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, child: int) -> "RandomSource":
        return RandomSource(self.seed, _splitmix64(self.stream_id * 0x10001 + child + 1))


def as_generator(rng) -> np.random.Generator:
    """Accept a RandomSource or a ready numpy Generator."""
    if isinstance(rng, RandomSource):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RandomSource or numpy Generator, got {type(rng)!r}")


# ---------------------------------------------------------------------------
# masking forward process
# ---------------------------------------------------------------------------


def mask_forward(x1: TokenSequence, t: float, schedule: InterpolationSchedule, rng) -> MaskedSequence:
    """Corrupt a clean sequence: each position independently keeps its token
    with probability kappa(t) and becomes the mask sentinel otherwise."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time must lie in [0, 1], got {t}")
    keep = schedule.kappa(float(t))
    gen = as_generator(rng)
    u = gen.random(x1.D)
    toks = np.where(u < keep, x1.tokens, x1.alphabet.mask_index)
    return MaskedSequence(toks, x1.alphabet)


# ---------------------------------------------------------------------------
# consistent completions
# ---------------------------------------------------------------------------


def _zero_mass(tokens: np.ndarray, S: int) -> UnsupportedContextError:
    """The error for a masked context without a completion of positive mass;
    it names the observed positions as ints."""
    observed = [int(d) for d in np.flatnonzero(tokens != S)]
    text = "".join(Alphabet(S).letter(int(t)) for t in tokens)
    return UnsupportedContextError(
        f"no completion of {text} has positive mass (observed positions {observed})",
        positions=observed,
    )


class ContextTables:
    """Tables over the S**D clean sequences, sliced by masked context.

    Each table (indexed in encode_index order) is viewed as a position-major
    tensor: axis j indexes position j's token. The first table is the mass
    that decides whether a context is supported.
    """

    def __init__(self, D: int, S: int, *tables: np.ndarray):
        axes = tuple(reversed(range(D)))
        self.S = S
        self.tensors = tuple(np.transpose(t.reshape((S,) * D), axes=axes) for t in tables)

    def blocks(self, tokens: np.ndarray):
        """(mass, blocks) of a masked context: each table's block over its
        completions, with one axis per masked position in position order, and
        the first block's total. Raises UnsupportedContextError when that
        total is not positive."""
        S = self.S
        index = tuple(slice(None) if t == S else t for t in tokens.tolist())
        blocks = [tensor[index] for tensor in self.tensors]
        mass = float(blocks[0].sum())
        if mass <= 0.0:
            raise _zero_mass(tokens, S)
        return mass, blocks


def consistent_mass(xt: MaskedSequence, p: TabularDistribution):
    """Indices and renormalized weights of clean sequences agreeing with xt on
    its unmasked positions. Raises UnsupportedContextError on zero mass."""
    if xt.D != p.D or xt.alphabet.size != p.S:
        raise ValueError("masked sequence and distribution have mismatched D or S")
    table = sequence_table(p.D, p.S)
    unmasked = xt.unmasked_positions()
    if unmasked.size == 0:
        ok = np.flatnonzero(p.weights > 0)
    else:
        match = (table[:, unmasked] == xt.tokens[unmasked]).all(axis=1)
        ok = np.flatnonzero(match & (p.weights > 0))
    total = p.weights[ok].sum()
    if ok.size == 0 or total <= 0.0:
        raise _zero_mass(xt.tokens, p.S)
    return ok, p.weights[ok] / total


def consistent_completions(xt: MaskedSequence, p: TabularDistribution):
    """List of (TokenSequence, weight) with weights = p(x1 | xt), summing to 1.

    The weights depend only on the mask pattern and observed tokens, never on
    the time that produced xt.
    """
    idx, w = consistent_mass(xt, p)
    table = sequence_table(p.D, p.S)
    return [(TokenSequence(table[i], p.alphabet), float(wi)) for i, wi in zip(idx, w)]
