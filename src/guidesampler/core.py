"""Alphabets, token rows, masking, tabular distributions.

Everything downstream builds on the conventions fixed here:

* a sequence is a token row: an integer array (D,), and n of them a token
  matrix (n, D); no wrapper type holds them;
* symbols are integers ``0..S-1``; the mask sentinel is index ``S`` (one past
  the last real symbol) and never appears in a clean row;
* :class:`Alphabet` renders tokens as text and parses that text back, letter
  for letter: token t is ``chr(ord('A') + t)`` and the mask ``?``;
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

import base64
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError, UnsupportedContextError

#: Largest S**D for which explicit tables over all sequences are allowed.
TABULAR_STATE_CAP = 1 << 24


# ---------------------------------------------------------------------------
# alphabet and token rows
# ---------------------------------------------------------------------------


#: Largest S whose letters chr(ord('A') + t) are all printable ASCII, so that
#: rendered rows hold one row per line: token 61 is '~'.
TEXT_S_LIMIT = ord("~") - ord("A") + 1


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

    def render_rows(self, rows: np.ndarray) -> list:
        """One string per row of a token matrix (n, D), each token rendered
        as :meth:`letter` renders it, from one lookup of all the rows in a
        table of code points. An alphabet larger than ``TEXT_S_LIMIT``
        raises ValueError: its letters leave printable ASCII, and some of
        them break lines."""
        if self.size > TEXT_S_LIMIT:
            raise ValueError(f"rows render as text only up to S = {TEXT_S_LIMIT} symbols, whose "
                             f"letters are printable ASCII; this alphabet has {self.size}")
        if rows.size and (rows.min() < 0 or rows.max() > self.size):
            raise ValueError(f"tokens outside 0..{self.size} (the mask) of an alphabet of size "
                             f"{self.size}")
        n, D = rows.shape
        text = _letter_codes(self.size)[rows].tobytes().decode("utf-32-le", "surrogatepass")
        return [text[i:i + D] for i in range(0, n * D, D)]

    def token(self, letter: str) -> int:
        """The token :meth:`letter` renders as ``letter``, case-sensitive;
        any other text raises ValueError."""
        if letter == "?":
            return self.size
        if len(letter) != 1 or not 0 <= ord(letter) - ord("A") < self.size:
            raise ValueError(f"letter {letter!r} outside alphabet of size {self.size}")
        return ord(letter) - ord("A")


@functools.lru_cache(maxsize=32)
def _letter_codes(S: int) -> np.ndarray:
    """Code point of ``Alphabet(S).letter(t)`` at index t, for t = 0..S."""
    codes = np.arange(ord("A"), ord("A") + S + 1, dtype="<u4")
    codes[S] = ord("?")
    codes.setflags(write=False)
    return codes


def clean_rows(rows, S: int) -> np.ndarray:
    """``rows`` as an int64 token matrix (n, D) of clean sequences. Raises
    ValueError unless it is 2-D with D >= 1, has an integer dtype and holds
    only the symbols 0..S-1: no mask sentinel, no negative token."""
    arr = np.asarray(rows)
    if arr.ndim != 2 or not arr.shape[1] or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"rows must be a 2-d integer token matrix (n, D >= 1), got shape "
                         f"{arr.shape} of dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= S):
        raise ValueError(f"clean rows may only contain symbols 0..{S - 1}")
    return arr.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# mixed-radix encoding (little-endian: position 0 least significant)
# ---------------------------------------------------------------------------


def _check_state_count(D: int, S: int) -> int:
    n = S**D
    if n > TABULAR_STATE_CAP:
        raise SizeCapError(f"S**D = {S}**{D} = {n} exceeds the table cap {TABULAR_STATE_CAP}")
    return n


def check_context_count(D: int, S: int) -> int:
    """Entries (S+1)**D of a table over every masked context; raises
    SizeCapError naming the size when it exceeds the table cap."""
    n = (S + 1) ** D
    if n > TABULAR_STATE_CAP:
        raise SizeCapError(f"context tables of (S+1)**D = {S + 1}**{D} = {n} entries "
                           f"exceed the table cap {TABULAR_STATE_CAP}")
    return n


@functools.lru_cache(maxsize=32)
def sequence_table(D: int, S: int) -> np.ndarray:
    """All S**D clean sequences as an (S**D, D) array, row i the sequence
    whose :func:`encode_rows` code is i."""
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
# tabular distributions
# ---------------------------------------------------------------------------


class TabularDistribution:
    """Explicit probability table over all S**D sequences.

    ``weights[i]`` is the probability of ``sequence_table(D, S)[i]``; the vector
    must be nonnegative and sum to 1 within 1e-9.
    """

    __slots__ = ("D", "S", "weights", "_mass")

    def __init__(self, D: int, S: int, weights):
        n = _check_state_count(D, S)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValueError(f"expected {n} weights for D={D}, S={S}, got shape {w.shape}")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        total = w.sum()
        if not abs(total - 1.0) <= 1e-9:  # NaN fails this test too
            raise ValueError(f"weights must sum to 1 within 1e-9 (got {total})")
        w = w.copy()
        w.setflags(write=False)
        self.D, self.S, self.weights = D, S, w
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

    def to_json(self) -> dict:
        return {"D": self.D, "S": self.S, "weights": pack_table(self.weights)}

    @classmethod
    def from_json(cls, obj: dict) -> "TabularDistribution":
        return cls(int(obj["D"]), int(obj["S"]), unpack_table(obj["weights"], "weights"))


# ---------------------------------------------------------------------------
# float tables in JSON files
# ---------------------------------------------------------------------------

#: The dtype of a packed table: little-endian float64.
PACKED_DTYPE = "<f8"


def pack_table(values: np.ndarray) -> dict:
    """JSON form of a float table: its little-endian float64 bytes in
    base64, beside the dtype and shape. Every value, -0.0, infinities and
    subnormals included, reads back bit for bit."""
    arr = np.ascontiguousarray(values, dtype=PACKED_DTYPE)
    return {"dtype": PACKED_DTYPE, "shape": list(arr.shape),
            "base64": base64.b64encode(arr.tobytes()).decode("ascii")}


def unpack_table(obj, key: str) -> np.ndarray:
    """The float64 array of table ``key`` of a JSON file, in the packed form
    of :func:`pack_table` or as nested lists of numbers. The array is a
    writable copy that owns its data. A dtype other than ``"<f8"``, invalid
    base64, a byte count other than 8 per entry of the shape, and a NaN
    entry raise ValueError naming ``key``; infinities are kept."""
    if isinstance(obj, dict):
        if obj["dtype"] != PACKED_DTYPE:
            raise ValueError(f"{key}: dtype must be {PACKED_DTYPE!r}, got {obj['dtype']!r}")
        shape = obj["shape"]
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ValueError(f"{key}: shape must be a list of nonnegative integers, got {shape!r}")
        try:
            raw = base64.b64decode(obj["base64"], validate=True)
        except (TypeError, ValueError) as e:  # binascii.Error is a ValueError
            raise ValueError(f"{key}: invalid base64: {e}") from e
        if len(raw) != 8 * math.prod(shape):
            raise ValueError(f"{key}: {len(raw)} bytes do not hold the float64 entries of "
                             f"shape {shape}")
        arr = np.frombuffer(raw, dtype=PACKED_DTYPE).reshape(shape).astype(np.float64)
    else:
        arr = np.array(obj, dtype=np.float64)
    nan = np.isnan(arr)
    if nan.any():
        raise ValueError(f"{key} holds NaN at index {np.argwhere(nan)[0].tolist()}")
    return arr


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


#: Entries of one cache block of :func:`pad_contexts`, 2**16 float64 or 512
#: KiB, so a block and its mass block stay in a 2 MiB L2; block sizes from
#: 2**15 to 2**18 time within 10% of each other at D=8, S=4
_PAD_BLOCK = 1 << 16

#: Shortest run (entries of one slab row) that one ``np.add.reduce`` pads;
#: shorter runs take slab adds one run entry at a time, so that numpy's
#: loops run along the rows and not along runs of a few entries
_REDUCE_RUN = 8


def _pad_axis(w: np.ndarray, S: int) -> None:
    """Write the sum over the middle axis of ``w`` (rows, S+1, run) to its
    index S, adding 0.0 and then the slabs of symbols 0..S-1 in order. A
    run of 1 at S >= 8 takes ``np.sum``, whose pairwise order is the one of
    the axis's ``np.sum``; ``np.add.reduce`` over a middle axis with a run
    of 2 or more adds in the slab order."""
    pad = w[:, S]
    if w.shape[2] == 1 and S >= 8:
        np.sum(w[:, :S], axis=1, out=pad)
    elif w.shape[2] >= _REDUCE_RUN:
        np.add.reduce(w[:, :S], axis=1, initial=0.0, out=pad)
    else:
        for j in range(w.shape[2]):
            col = w[:, :, j]
            np.add(col[:, 0], 0.0, out=col[:, S])
            for s in range(1, S):
                col[:, S] += col[:, s]


def _padded_blocks(table: np.ndarray, S: int):
    """Pad the context table ``table`` ((S+1,)*D, C order) in place, as
    :func:`pad_contexts` describes, and yield the flat (start, stop) of each
    block of it as soon as its entries are final, in ascending order.

    From the outermost, an axis is padded over the whole table while one
    index of the axes outside it holds more than ``_PAD_BLOCK`` entries.
    The remaining axes add only within one such index, so they are padded
    one block of whole indices at a time, after which the block is final."""
    D, V = table.ndim, S + 1
    flat = table.reshape(-1)
    axis = 0
    while axis < D and V ** (D - axis) > _PAD_BLOCK:
        _pad_axis(table.reshape(V**axis, V, -1), S)
        axis += 1
    inner = V ** (D - axis)
    step = max(1, _PAD_BLOCK // inner) * inner
    for start in range(0, flat.size, step):
        block = flat[start:start + step]
        for a in range(axis, D):
            _pad_axis(block.reshape(-1, V, V ** (D - 1 - a)), S)
        yield start, start + block.size


def pad_contexts(values: np.ndarray, D: int, S: int) -> np.ndarray:
    """Sums of a table over the S**D clean sequences (encode_rows order)
    over every masked context, flattened by the base-(S+1) context code.

    The table is viewed position-major and each axis is padded with its sum
    at index S, the mask sentinel, one axis after another, so entry c sums
    ``values`` over the completions of context c. The one (S+1)**D array is
    filled in place: no other table of that size is allocated. Outer axes
    whose every index holds more than ``_PAD_BLOCK`` entries are padded over
    the whole array; the rest, one cache-sized block of outer indices at a
    time, which adds the same numbers in the same order.

    Summation order, which fixes every entry's bits: an axis's padding slab
    starts at 0.0 and the slabs of symbols 0..S-1 are added to it in symbol
    order, by whole-slab adds or one ``np.add.reduce`` over the axis, axis by
    axis from the outermost; on the innermost axis at S >= 8 it is numpy's
    pairwise sum instead. Both equal ``np.sum`` over the axis. A slab add
    also writes partial sums where a later axis holds S; that axis's own
    pass overwrites them.
    """
    check_context_count(D, S)
    # zeros: a pass reads the entries where a later axis holds S before
    # that axis's pass writes them
    out = np.zeros((S + 1,) * D)
    out[(slice(0, S),) * D] = np.reshape(values, (S,) * D)
    for _ in _padded_blocks(out, S):
        pass
    return out.reshape(-1)
