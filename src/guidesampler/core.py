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
from dataclasses import dataclass
from typing import Callable

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


def check_context_count(D: int, S: int, cap: int = TABULAR_STATE_CAP) -> int:
    """Entries (S+1)**D of a table over every masked context; raises
    SizeCapError naming the size when it exceeds the table cap."""
    n = (S + 1) ** D
    if n > cap:
        raise SizeCapError(f"context tables of (S+1)**D = {S + 1}**{D} = {n} entries "
                           f"exceed the table cap {cap}")
    return n


def encode_index(x: TokenSequence) -> int:
    """Little-endian mixed-radix code of a clean sequence."""
    return int(encode_rows(x.tokens, x.alphabet.size))


@functools.lru_cache(maxsize=32)
def sequence_table(D: int, S: int) -> np.ndarray:
    """All S**D clean sequences as an (S**D, D) array, row i the sequence
    whose :func:`encode_index` is i."""
    n = _check_state_count(D, S)
    table = np.empty((n, D), dtype=np.int64)
    idx = np.arange(n)
    for i in range(D):
        table[:, i] = idx % S
        idx = idx // S
    table.setflags(write=False)
    return table


def encode_rows(rows: np.ndarray, S: int) -> np.ndarray:
    """Vectorized little-endian encoding of an (n, D) token matrix, or the
    code of one row (D,)."""
    D = rows.shape[-1]
    radix = S ** np.arange(D, dtype=np.int64)
    return rows @ radix


# ---------------------------------------------------------------------------
# interpolation schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterpolationSchedule:
    """kappa: [0,1] -> [0,1] with kappa(0)=0, kappa(1)=1, monotone; kappa_dot
    its derivative; kappa_inv the inverse CDF used to draw per-position jump
    times."""

    kappa: Callable[[float], float]
    kappa_dot: Callable[[float], float]
    kappa_inv: Callable[[float], float]
    name: str = "custom"

    def inverse(self, u):
        """kappa^-1 of a scalar or, elementwise, of an array."""
        return self.kappa_inv(u)


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


# ---------------------------------------------------------------------------
# tabular distributions
# ---------------------------------------------------------------------------


class TabularDistribution:
    """Explicit probability table over all S**D sequences.

    ``weights[i]`` is the probability of ``sequence_table(D, S)[i]``; the vector
    must be nonnegative and sum to 1 within 1e-9.
    """

    __slots__ = ("D", "S", "weights", "alphabet", "_mass")

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
        self._mass = None

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
        """Weight of ``x``; another length or alphabet raises ValueError."""
        if (x.D, x.alphabet.size) != (self.D, self.S):
            raise ValueError(
                f"sequence of length {x.D} over {x.alphabet.size} symbols does not fit "
                f"a table with D={self.D}, S={self.S}"
            )
        return float(self.weights[encode_index(x)])

    def context_mass(self) -> np.ndarray:
        """Mass of every masked context, flattened by its base-(S+1) code:
        entry c is the total weight of c's completions (see
        :func:`pad_contexts`). Built on the first call, read-only, and shared
        by every exact model of this distribution."""
        if self._mass is None:
            mass = pad_contexts(self.weights, self.D, self.S)
            mass.setflags(write=False)
            self._mass = mass
        return self._mass

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
# masked contexts: padded context sums
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


def require_support(tokens: np.ndarray, supported, S: int) -> None:
    """Raise the UnsupportedContextError of the first row of ``tokens`` (one
    row (D,) or rows (n, D)) whose entry of ``supported`` is false."""
    if not np.all(supported):
        first = int(np.argmin(np.reshape(supported, -1)))
        raise _zero_mass(np.reshape(tokens, (-1, tokens.shape[-1]))[first], S)


def pad_contexts(values: np.ndarray, D: int, S: int) -> np.ndarray:
    """Sums of a table over the S**D clean sequences (encode_index order)
    over every masked context, flattened by the base-(S+1) context code.

    The table is viewed position-major and each axis is padded with its sum
    at index S, the mask sentinel, one axis after another, so entry c sums
    ``values`` over the completions of context c. The one (S+1)**D array is
    filled in place: no other table of that size is allocated.
    """
    check_context_count(D, S)
    out = np.empty((S + 1,) * D)
    out[(slice(0, S),) * D] = np.reshape(values, (S,) * D)
    # C-order axis a holds position D-1-a; an axis's padding sums over the
    # real symbols of the axes not yet padded and over all of the others
    for axis in range(D):
        head = (slice(None),) * axis
        tail = (slice(0, S),) * (D - axis - 1)
        np.sum(out[head + (slice(0, S),) + tail], axis=axis, keepdims=True,
               out=out[head + (slice(S, S + 1),) + tail])
    return out.reshape(-1)
