"""Unconditional and guided generation over the masking noise process.

The process runs on the linear clock kappa(t) = t: each position unmasks at
a uniform time, so a still-masked position unmasks at rate 1/(1-t). No model
reads the time, so another clock would only relabel the Euler grid and t0.

Two sampling routes produce draws from the same law. Each route has one
core that samples n chains at once over one context cache:

* :func:`aoarm_sample_many`: exact any-order autoregressive sampling. Its
  unmask orders and jump times come from :func:`sample_jump_times` (sorted
  i.i.d. uniforms give each chain a uniform unmask order). Each step makes
  one categorical draw per chain; the per-step state conditional never
  reads the clock (it takes no time argument).
* :func:`euler_sample_many`: numerical CTMC integration with step ``dt``.
  It carries an O(dt) bias and counts outflow renormalizations. Positions
  still masked at the 1-dt horizon are force-completed at time 1.0.

A core's chain state is its token rows (mask = S), plus each chain's unmask
order and jump times, which it returns. With ``paths=True`` the drivers turn
these into one :class:`DecodePath` per chain, which derives its states from
them. :func:`aoarm_sample` and :func:`euler_sample` are the n=1 case.

Guidance modes:

* ``exact``: multiply each single-position rate by the predictor likelihood
  ratio (target over source) raised to gamma;
* ``tag``: replace the log-ratio by the inner product of the one-hot change
  with the predictor's gradient surface (one gradient evaluation per context);
* ``deg``: condition each per-position decode conditional of the equivalent
  any-order sampler: weights proportional to likelihood(candidate)^gamma
  times the denoiser posterior;
* ``predictor_free``: geometric interpolation of conditional and
  unconditional rates from two denoisers; at gamma > 0 a symbol the
  conditional denoiser gives no weight gets weight 0.

One kernel forms the guided weights of every mode for both routes, in one
call per sampler step. :meth:`_ContextCache.pairs` turns a step's context
rows and positions into its distinct (context, position) pairs, their own
rows and positions in ascending (code, position) order; context codes are
keys that exist only in that class, and no code is turned back into a row.
:meth:`_ContextCache.guided_weights` returns the unnormalized rows of those
pairs over the real symbols as one (P, S) matrix,
:meth:`_ContextCache.step_tables` turns it into row totals and CDF rows, and
:meth:`_ContextCache.pair_tables` hands each input pair of a step its total
and CDF row. The any-order route draws from the CDF rows; the Euler route
scales the totals by 1/(1-t) and, when guided, keeps each still-masked
pair's total and CDF row across steps and at the horizon, and looks up
again only the pairs of chains that jumped (all of them when the switch
point flips); :func:`guide_rates` returns the weights of one
context's masked positions, scaled the same way, as a (D, S) rate matrix.
The n chains of a call share one context cache, which keeps nothing
between kernel calls. A step makes one pair-form call to each model on
the step's distinct (context, position) pairs: per denoiser a posterior
call, which forms the rows of those pairs and no other position's, and a
likelihood call, which answers each pair's S children and its source, or
a gradient-surface call. An answer of the wrong shape raises
CapabilityError naming the model and the method. A child with zero
posterior weight gets guided weight 0 and its likelihood is not read.

Composition order with logit modifiers: temperature and wild-type bias are
applied inside the denoiser (ModifiedDenoiser) before guidance reads any
posterior, so gamma always exponentiates likelihoods of the already-tempered
model and never a separate normalizer.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Alphabet, as_generator
from .denoising import Denoiser
from .errors import CapabilityError, DegenerateStepError, SizeCapError, TimeHorizonError
from .predictors import TimePredictor

TIME_HORIZON_EPS = 1e-9

GUIDANCE_MODES = ("none", "exact", "tag", "deg", "predictor_free")
EULER_MODES = ("none", "exact", "tag", "predictor_free")
AOARM_MODES = ("none", "deg", "tag", "predictor_free")
ROUTE_MODES = {"aoarm": AOARM_MODES, "euler": EULER_MODES}


# ---------------------------------------------------------------------------
# configuration and result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuidanceConfig:
    """How to modulate the sampler: mode, strength gamma, and the predictor
    (or a second, conditional denoiser for predictor-free guidance). ``t0``
    delays guidance until the unmasked fraction (any-order route) or the
    clock (Euler route) reaches it. Mode ``tag`` needs a predictor with a
    gradient surface; without one the config raises CapabilityError."""

    mode: str = "none"
    gamma: float = 1.0
    predictor: Optional[TimePredictor] = None
    second_denoiser: Optional[Denoiser] = None
    t0: float = 0.0

    def __post_init__(self):
        if self.mode not in GUIDANCE_MODES:
            raise ValueError(f"unknown guidance mode {self.mode!r}")
        if not 0 <= self.gamma < math.inf:  # NaN fails too
            raise ValueError(f"guidance strength gamma must be finite and >= 0, got {self.gamma}")
        if not 0.0 <= self.t0 <= 1.0:
            raise ValueError("switch time t0 must lie in [0, 1]")
        if self.mode in ("exact", "tag", "deg") and self.predictor is None:
            raise ValueError(f"mode {self.mode!r} requires a predictor")
        if self.mode == "tag" and not getattr(self.predictor, "has_gradient_surface", False):
            raise CapabilityError(
                f"mode 'tag' requires a predictor with a gradient surface; "
                f"{type(self.predictor).__name__} has none"
            )
        if self.mode == "predictor_free" and self.second_denoiser is None:
            raise ValueError("predictor_free mode requires a second (conditional) denoiser")

    @property
    def guided(self) -> bool:
        return self.mode != "none"


def check_route(route: str, mode: str) -> None:
    """Raise ValueError unless ``mode`` is a guidance mode of ``route``."""
    if route not in ROUTE_MODES:
        raise ValueError(f"unknown route {route!r}; known: {', '.join(ROUTE_MODES)}")
    if mode not in ROUTE_MODES[route]:
        raise ValueError(
            f"the {route} route supports guidance modes {ROUTE_MODES[route]} (got {mode!r}); "
            "'deg' belongs to the aoarm route and 'exact' to the euler route"
        )


@dataclass
class SamplerDiagnostics:
    """Counts and wall time of one sampler call, emitted as a JSON summary.

    * ``sampler``: the route name, ``aoarm`` or ``euler``.
    * ``n_chains``: chains sampled.
    * ``n_steps``: chain-steps on the any-order route (D per chain);
      integration steps on the Euler route.
    * ``overflow_renormalizations``: Euler outflows above 1, which jump
      for sure, one per (chain, position, step).
    * ``denoiser_evals``: distinct contexts of each kernel call, summed,
      evaluated by either denoiser.
    * ``predictor_evals``: distinct contexts of each kernel call, summed:
      children and sources whose likelihood the kernel reads, plus
      contexts given the predictor's gradient surface.
    * ``step_weight_requests``: guided weight rows formed, one per distinct
      (context, position) pair of a kernel call.
    * ``wall_time_s``: seconds spent in the call.
    """

    sampler: str = ""
    n_chains: int = 0
    n_steps: int = 0
    overflow_renormalizations: int = 0
    denoiser_evals: int = 0
    predictor_evals: int = 0
    step_weight_requests: int = 0
    wall_time_s: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class DecodePath:
    """Realized generation trace: one unmask event per step.

    ``permutation[i]`` is the position unmasked at step i, ``jump_times[i]``
    the time it happened (nondecreasing; Euler paths may carry tied times at
    dt resolution, and forced terminal unmasks carry time 1.0), ``row`` the
    final tokens. Together they fix ``states``, the D+1 progressively
    unmasked token arrays.
    """

    permutation: np.ndarray
    jump_times: np.ndarray
    row: np.ndarray
    S: int

    @property
    def states(self) -> np.ndarray:
        """(len(permutation)+1, D) token matrix whose row i has the first i
        positions of the permutation unmasked."""
        k = len(self.permutation)
        step = np.full(self.row.size, k + 1)
        step[self.permutation] = np.arange(1, k + 1)
        return np.where(step <= np.arange(k + 1)[:, None], self.row, self.S)

    def to_json(self) -> dict:
        return {
            "permutation": [int(d) for d in self.permutation],
            "jump_times": [float(t) for t in self.jump_times],
            "states": Alphabet(self.S).render_rows(self.states),
        }


def write_paths_jsonl(paths: Sequence[DecodePath], fh) -> None:
    for p in paths:
        fh.write(json.dumps(p.to_json(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def rate_coefficient(t: float) -> float:
    """The masking process's rate factor 1/(1-t) on the linear clock
    kappa(t) = t; it diverges at the t=1 horizon."""
    if t >= 1.0 - TIME_HORIZON_EPS:
        raise TimeHorizonError(
            f"rates diverge at the t=1 horizon (requested t={t}); "
            "stop Euler integration at 1-dt and force-complete"
        )
    return 1.0 / (1.0 - t)


def guide_rates(
    denoiser: Denoiser,
    tokens: np.ndarray,
    t: float,
    cfg: GuidanceConfig = GuidanceConfig(),
) -> np.ndarray:
    """Masking-process generative rates at time t of the context ``tokens``
    (D,), guided by ``cfg`` (an Euler-route mode; 'none' gives coef *
    posterior), from the same kernel the Euler samplers use. A context that
    is not a 1-D integer row of length D over 0..S (S the mask) raises
    ValueError before any model call.

    Returns the (D, S) matrix whose entry (d, s) is the rate of position d
    jumping to real symbol s: ``coef * weights`` at masked positions, with
    ``coef`` = 1 / (1 - t), and zero rows at unmasked positions (no
    transitions out of them, none into the mask). The first entry that is
    not finite and nonnegative raises ValueError naming it.
    """
    D, S = denoiser.D, denoiser.S
    tokens = np.asarray(tokens)
    if (tokens.shape != (D,) or not np.issubdtype(tokens.dtype, np.integer)
            or tokens.min() < 0 or tokens.max() > S):
        raise ValueError(f"context must be an integer row ({D},) over 0..{S} (S the mask), got "
                         f"shape {tokens.shape} of dtype {tokens.dtype}")
    check_route("euler", cfg.mode)
    coef = rate_coefficient(t)
    cache = _ContextCache(denoiser, cfg, SamplerDiagnostics())
    masked = np.flatnonzero(tokens == S)
    rates = np.zeros((D, S))
    rows = np.tile(tokens.astype(np.int64), (masked.size, 1))
    rates[masked] = coef * cache.guided_weights(rows, masked, True)
    bad = ~(np.isfinite(rates) & (rates >= 0))
    if bad.any():
        d, s = np.argwhere(bad)[0].tolist()
        raise ValueError(f"rate ({d},{s}) = {float(rates[d, s])} is not finite and nonnegative")
    return rates


# ---------------------------------------------------------------------------
# jump times (order-statistics machinery)
# ---------------------------------------------------------------------------


def sample_jump_times(D: int, rng, n: int = 1):
    """Per-position jump times of n chains (i.i.d. uniform on [0, 1), the
    law of the linear clock), sorted per chain; the any-order sampler draws
    its orders and times here.

    Returns (tau, sigma), each of shape (n, D): tau nondecreasing along each
    row, sigma[k, i] the position whose time ranked i-th in chain k; ties
    break by ascending position index.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    times = as_generator(rng).random((n, D))
    return np.sort(times, axis=1), np.argsort(times, axis=1, kind="stable")


def lemma1_density(i: int, tau_i: float, tau_prev: float, D: int) -> float:
    """Closed-form conditional density of the i-th jump time given the
    previous one: (D-(i-1)) / (1-t_prev) * ((1-t_i)/(1-t_prev))^(D-i)."""
    if not 1 <= i <= D:
        raise ValueError(f"jump index i={i} outside 1..{D}")
    if not 0.0 <= tau_prev < tau_i < 1.0:
        raise ValueError(f"need 0 <= tau_prev < tau_i < 1, got {tau_prev}, {tau_i}")
    surv = (1.0 - tau_i) / (1.0 - tau_prev)
    return (D - (i - 1)) / (1.0 - tau_prev) * surv ** (D - i)


# ---------------------------------------------------------------------------
# the context cache and the guidance kernel
# ---------------------------------------------------------------------------


def _checked(model, method: str, shape: tuple, *args) -> np.ndarray:
    """The answer of ``model``'s ``method`` to ``args`` as an array, which
    must have ``shape``; any other answer raises CapabilityError naming the
    model and the method. A model that answers only one token array at a
    time returns a scalar or the wrong rows here."""
    out = np.asarray(getattr(model, method)(*args))
    if out.shape != shape:
        raise CapabilityError(
            f"{type(model).__name__}.{method} answered shape {out.shape} where the samplers "
            f"need {shape}: every model must answer the rows or pairs it is given "
            "(see the predictor contract)"
        )
    return out


#: Context codes are int64; (S+1)**D at or above this bound wraps.
CODE_LIMIT = 2**63


class _ContextCache:
    """The base-(S+1) context codes of a denoiser's contexts, and the
    guidance kernel. It alone turns token rows into codes (``encode``,
    ``child_codes``, ``pairs``), so the key format lives here and nowhere
    else. Codes are one-way int64 keys that sort and dedup contexts; a size
    whose codes would wrap raises SizeCapError instead of keying two
    contexts alike. The kernel answers a step's (context, position) pairs
    in one pair-form call to each model, and keeps nothing between
    calls."""

    def __init__(self, denoiser: Denoiser, cfg: GuidanceConfig, diagnostics: SamplerDiagnostics):
        self.denoiser = denoiser
        self.D, self.S = denoiser.D, denoiser.S
        if (self.S + 1) ** self.D >= CODE_LIMIT:
            raise SizeCapError(
                f"context codes (S+1)**D = {self.S + 1}**{self.D} do not fit in int64"
            )
        self.pows = (self.S + 1) ** np.arange(self.D, dtype=np.int64)
        self.cfg = cfg
        self.diag = diagnostics

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """Context codes of token rows (mask = S), one per row."""
        return rows @ self.pows

    def child_codes(self, codes: np.ndarray, positions: np.ndarray,
                    symbols: np.ndarray) -> np.ndarray:
        """Code of each child (``codes[j]``, ``positions[j]``,
        ``symbols[j]``): context ``codes[j]`` with masked position
        ``positions[j]`` set to ``symbols[j]``; symbol S leaves it masked."""
        return codes - (self.S - symbols) * self.pows[positions]

    def pairs(self, rows: np.ndarray, positions: np.ndarray):
        """Distinct (context, position) pairs of context rows ``rows[k]`` and
        ``positions[k]``, in ascending (code, position) order, as (context
        rows, positions, index of each input pair among them). A pair is
        keyed by the rank of its code among the distinct codes times D plus
        the position: below ``rows.shape[0] * D`` at every size whose context
        codes fit in int64."""
        rank = np.unique(self.encode(rows), return_inverse=True)[1]
        _, first, inv = np.unique(rank * self.D + positions, return_index=True, return_inverse=True)
        return rows[first], positions[first], inv

    def supported(self, rows: np.ndarray) -> np.ndarray:
        """Whether each context row has mass under the denoisers."""
        ok = self.denoiser.supported(rows)
        if self.cfg.mode == "predictor_free":
            ok &= self.cfg.second_denoiser.supported(rows)
        return ok

    def _tilts(self, rows: np.ndarray, codes: np.ndarray, positions: np.ndarray,
               scored: np.ndarray, exact: bool):
        """(child likelihoods (P, S), source likelihoods (P, 1) or 1.0) of the
        ``exact`` and ``deg`` modes for the pairs (context ``rows[j]`` of code
        ``codes[j]``, ``positions[j]``), from one pair-form likelihood call.
        It reads the children where ``scored`` holds, plus the sources for
        ``exact``; the other children keep likelihood 1. A read entry that
        is NaN, a child the predictor gives no mass, raises the error the
        predictor's rows form raises for the first such child in ascending
        code order. The distinct read children count as predictor evals."""
        S = self.S
        lik = _checked(self.cfg.predictor, "likelihood_array", (positions.size, S + 1),
                       rows, positions)
        read = np.concatenate([scored, np.full((positions.size, 1), exact)], axis=1)
        pair, symbol = np.nonzero(read)
        keys = self.child_codes(codes[pair], positions[pair], symbol)
        missing = np.isnan(lik[read])
        if missing.any():
            j = np.argmin(np.where(missing, keys, CODE_LIMIT - 1))
            child = rows[pair[j]].copy()
            child[positions[pair[j]]] = symbol[j]
            self.cfg.predictor.likelihood_array(child[None])
        # counted by a sort: np.unique without return_index hashes in numpy
        # 2.4, about 15 times slower on a step's thousand-odd codes
        keys.sort()
        self.diag.predictor_evals += int(keys.size and 1 + np.count_nonzero(keys[1:] != keys[:-1]))
        return np.where(scored, lik[:, :S], 1.0), (lik[:, S:] if exact else 1.0)

    def guided_weights(self, rows: np.ndarray, positions: np.ndarray, active: bool) -> np.ndarray:
        """Unnormalized guided weights of P (context, position) pairs, shape
        (P, S): row j weighs the real symbols for unmasking ``positions[j]``
        of the context row ``rows[j]``. Without guidance, or before the
        switch point (``active`` false), the rows are the denoiser posterior.
        A child with zero posterior weight gets weight 0, and ``exact`` and
        ``deg`` do not read its likelihood. The rows arrive sorted by context
        code (from :meth:`pairs`, or one tiled context), which the
        distinct-context counts of the diagnostics rely on."""
        cfg, S = self.cfg, self.S
        self.diag.step_weight_requests += positions.size
        if positions.size == 0:
            return np.zeros((0, S))
        mode = cfg.mode if cfg.guided and active else "none"
        codes = self.encode(rows)
        contexts = 1 + int(np.count_nonzero(codes[1:] != codes[:-1]))
        shape = (positions.size, S)
        self.diag.denoiser_evals += contexts
        post = _checked(self.denoiser, "posterior_array", shape, rows, positions)
        if mode == "none":
            return post
        if mode == "predictor_free":
            self.diag.denoiser_evals += contexts
            cond = _checked(cfg.second_denoiser, "posterior_array", shape, rows, positions)
            with np.errstate(divide="ignore", invalid="ignore"):
                weights = cond**cfg.gamma * post ** (1.0 - cfg.gamma)
            if cfg.gamma > 0:
                # cond**gamma is 0 there; at gamma > 1 a zero post makes it 0 * inf
                weights[cond == 0.0] = 0.0
            return weights
        if mode == "tag":
            self.diag.predictor_evals += contexts
            grad = _checked(cfg.predictor, "gradient_surface_array", (positions.size, S + 1),
                            rows, positions)
            return post * np.exp(cfg.gamma * (grad[:, :S] - grad[:, S:]))
        # exact and deg: tilt by the child likelihoods; deg omits the source
        # divisor, which the per-row normalization of a decode draw absorbs
        tilt, src = self._tilts(rows, codes, positions, post > 0.0, mode == "exact")
        return post * (tilt / src) ** cfg.gamma

    def step_tables(self, rows: np.ndarray, positions: np.ndarray, active: bool, step: int):
        """(totals, CDF rows) of the guided weights of a step's pairs. The
        first pair, in the order given, whose total is zero or not finite
        raises DegenerateStepError naming the step and the pair's position;
        the message tells the two cases apart."""
        weights = self.guided_weights(rows, positions, active)
        totals = weights.sum(axis=1)
        bad = ~(np.isfinite(totals) & (totals > 0.0))
        if bad.any():
            j = int(bad.argmax())
            total, position = float(totals[j]), int(positions[j])
            if math.isfinite(total):
                raise DegenerateStepError(step, position)
            raise DegenerateStepError(
                step,
                position,
                f"guided symbol weights overflowed (total {total}) at decode step {step} "
                f"(position {position})",
            )
        return totals, np.cumsum(weights, axis=1) / totals[:, None]

    def pair_tables(self, rows: np.ndarray, positions: np.ndarray, active: bool, step: int):
        """(totals, CDF rows) of the pairs (context ``rows[k]``,
        ``positions[k]``), one per input pair, from :meth:`step_tables` on
        their distinct pairs."""
        ctx, pos, inv = self.pairs(rows, positions)
        totals, cdfs = self.step_tables(ctx, pos, active, step)
        return totals[inv], cdfs[inv]


def _draw(cdfs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: the symbol of uniform u[k] under row cdfs[k]."""
    return (cdfs < u[:, None]).sum(axis=1).clip(max=cdfs.shape[1] - 1)


def _run(route: str, core, denoiser: Denoiser, cfg: GuidanceConfig, n: int, rng, paths: bool):
    """Run ``core(cache, n, generator)`` for a route's driver on one context
    cache shared by the n chains, and time it. Returns (rows, diagnostics),
    or (rows, paths, diagnostics)."""
    check_route(route, cfg.mode)
    diag = SamplerDiagnostics(sampler=route, n_chains=n)
    cache = _ContextCache(denoiser, cfg, diag)
    t_start = time.perf_counter()
    rows, order, times = core(cache, n, as_generator(rng))
    diag.wall_time_s = time.perf_counter() - t_start
    if not paths:
        return rows, diag
    S = denoiser.S
    return rows, [DecodePath(perm, tau, row.copy(), S)
                  for row, perm, tau in zip(rows, order, times)], diag


# ---------------------------------------------------------------------------
# any-order autoregressive sampling (exact route)
# ---------------------------------------------------------------------------


def _aoarm_core(cache: _ContextCache, n: int, gen):
    """n any-order chains on one cache; returns (rows, order, jump times).

    The order and times are :func:`sample_jump_times`: sorting i.i.d.
    uniforms gives each chain a uniform unmask order. Step i draws one
    symbol per chain from the guided row of its (context, position) pair,
    formed once per distinct pair.
    """
    D, S, cfg = cache.D, cache.S, cache.cfg
    times, order = sample_jump_times(D, gen, n)
    rows = np.full((n, D), S, dtype=np.int64)
    chains = np.arange(n)
    for i in range(D):
        active = (i / D) >= cfg.t0
        d_vec = order[:, i]
        # a step-i context has exactly i unmasked positions, so pairs never
        # recur across steps and the CDF rows are not worth keeping
        _, cdfs = cache.pair_tables(rows, d_vec, active, i)
        rows[chains, d_vec] = _draw(cdfs, gen.random(n))
        cache.diag.n_steps += n
    return rows, order, times


def aoarm_sample(denoiser: Denoiser, cfg: GuidanceConfig, rng):
    """Draw one sequence: the n=1 case of :func:`aoarm_sample_many`.

    Returns (row, DecodePath, SamplerDiagnostics): the int64 token row (D,)
    equals the path's ``row`` and row 0 of the n=1 batched call. The path's jump
    times are the sorted uniforms that fixed the unmask order. With mode
    'deg', gamma=1 and an exact denoiser and predictor, the output is an
    exact draw from the tilted posterior.
    """
    rows, paths, diag = aoarm_sample_many(denoiser, cfg, 1, rng, paths=True)
    return rows[0], paths[0], diag


def aoarm_sample_many(denoiser: Denoiser, cfg: GuidanceConfig, n: int, rng, paths: bool = False):
    """n any-order chains; returns (token matrix, diagnostics), or (token
    matrix, decode paths, diagnostics) with ``paths``."""
    return _run("aoarm", _aoarm_core, denoiser, cfg, n, rng, paths)


# ---------------------------------------------------------------------------
# Euler CTMC integration
# ---------------------------------------------------------------------------


def check_dt(dt: float) -> int:
    """Number of integration steps: t = k*dt while the step stays at or
    below the 1-dt horizon; residual masks are force-completed there."""
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"dt must lie in (0, 0.1], got {dt}")
    return max(1, int(math.floor((1.0 - 2.0 * dt) / dt + 1e-9)) + 1)


def _euler_core(cache: _ContextCache, n: int, gen, dt: float, n_int: int):
    """n Euler chains on one cache; returns (rows, order, jump times).

    The still-masked (chain, position) pairs are flat arrays. Integration
    step k draws one Bernoulli per pair and one symbol per jumper, which
    jumps at time (k+1)*dt. Pairs still masked at the horizon (step
    ``n_int``, switch read at 1-dt) all jump at time 1.0, with no Bernoulli
    draw. A chain's order sorts its positions by jump time, ties by position.

    A chain's jumps in one step are drawn independently from its context
    before the step, so together they can land on a context the denoisers
    give no mass, where no posterior exists. Such a chain keeps only its
    first jump (lowest position) and its other positions stay masked: at a
    step they wait for later steps, at the horizon they are drawn again from
    the new context. This draws nothing when every landing has mass.
    """
    D, S, cfg, diag = cache.D, cache.S, cache.cfg, cache.diag
    rows = np.full((n, D), S, dtype=np.int64)
    times = np.ones((n, D))
    chain_idx = np.repeat(np.arange(n), D)
    pos_idx = np.tile(np.arange(D), n)
    unguided = not cfg.guided

    def undo_unsupported(chains, positions):
        """Of jumps just drawn at pairs (chains[k], positions[k]), in
        (chain, position) order, mask again every jump but the first of each
        chain whose new row has no mass; returns which were undone."""
        undo = np.zeros(chains.size, dtype=bool)
        later = chains[1:] == chains[:-1]
        if later.any():
            multi = np.unique(chains[1:][later])
            bad = multi[~cache.supported(rows[multi])]
            if bad.size:
                undo[1:] = later & np.isin(chains[1:], bad)
                rows[chains[undo], positions[undo]] = S
                times[chains[undo], positions[undo]] = 1.0
        return undo

    # guided: each still-masked pair's jump weight sum and CDF row, kept
    # across steps and at the horizon, since a chain that does not jump
    # keeps its context. Only the pairs of chains that jumped (every pair
    # when the switch point flips) are looked up again
    sums, cdfs = np.empty(chain_idx.size), np.empty((chain_idx.size, S))
    moved = np.ones(n, dtype=bool)
    was_active = None
    k = 0
    while chain_idx.size:
        # step n_int is the horizon, repeated while jumps are masked again
        step = min(k, n_int)
        k += 1
        horizon = step == n_int
        t = 1.0 - dt if horizon else step * dt
        active = t >= cfg.t0
        if not unguided:
            if active != was_active:
                moved[:], was_active = True, active
            stale = moved[chain_idx]
            if stale.any():
                sums[stale], cdfs[stale] = cache.pair_tables(
                    rows[chain_idx[stale]], pos_idx[stale], active, step)
            moved[:] = False
        if horizon:
            jump = np.ones(chain_idx.size, dtype=bool)
        else:
            coef_dt = rate_coefficient(t) * dt
            diag.n_steps += 1
            outflow = np.full(chain_idx.size, coef_dt) if unguided else coef_dt * sums
            # a uniform draw lies below any outflow of 1 or more
            diag.overflow_renormalizations += int((outflow > 1.0).sum())
            jump = gen.random(chain_idx.size) < outflow
            if not jump.any():
                continue
        jc, jp = chain_idx[jump], pos_idx[jump]
        jump_cdfs = cache.pair_tables(rows[jc], jp, active, step)[1] if unguided else cdfs[jump]
        rows[jc, jp] = _draw(jump_cdfs, gen.random(jc.size))
        times[jc, jp] = 1.0 if horizon else t + dt
        jump[np.flatnonzero(jump)[undo_unsupported(jc, jp)]] = False
        keep = ~jump
        chain_idx, pos_idx = chain_idx[keep], pos_idx[keep]
        if not unguided:
            moved[jc] = True
            sums, cdfs = sums[keep], cdfs[keep]
    order = np.argsort(times, axis=1, kind="stable")
    return rows, order, np.take_along_axis(times, order, axis=1)


def euler_sample(denoiser: Denoiser, cfg: GuidanceConfig, dt: float, rng):
    """Integrate one chain of the (guided) masking CTMC from the fully masked
    state: the n=1 case of :func:`euler_sample_many`.

    Returns (row, DecodePath, SamplerDiagnostics): the int64 token row (D,)
    equals the path's ``row`` and row 0 of the n=1 batched call. Forced terminal
    unmasks carry time 1.0 in the path.
    """
    rows, paths, diag = euler_sample_many(denoiser, cfg, dt, 1, rng, paths=True)
    return rows[0], paths[0], diag


def euler_sample_many(denoiser: Denoiser, cfg: GuidanceConfig, dt: float, n: int, rng,
                      paths: bool = False):
    """n Euler chains stepped from t=0 to the 1-dt horizon; an outflow above
    1 jumps for sure and is counted, and residual masks are force-completed.
    Returns (token matrix, diagnostics), or (token matrix, decode paths,
    diagnostics) with ``paths``."""
    core = functools.partial(_euler_core, dt=dt, n_int=check_dt(dt))
    return _run("euler", core, denoiser, cfg, n, rng, paths)
