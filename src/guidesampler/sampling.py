"""Unconditional and guided generation over the masking noise process.

Two sampling routes produce draws from the same law. Each route has one
core that samples n chains at once over one context cache:

* :func:`aoarm_sample_many`: exact any-order autoregressive sampling. Its
  unmask orders and jump times come from :func:`sample_jump_times` under the
  identity schedule (sorted i.i.d. uniforms give each chain a uniform unmask
  order). Each step makes one categorical draw per chain; the per-step state
  conditional never reads the clock (it takes no time argument).
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
  unconditional rates from two denoisers.

One kernel forms the guided weights of every mode for both routes, in one
call per sampler step. :meth:`CodeCache.pairs` turns a step's context rows
and positions into its distinct (context code, position) pairs, in ascending
(code, position) order; context codes exist only inside the cache.
:meth:`_ContextCache.guided_weights` returns the unnormalized rows of those
pairs over the real symbols as one (P, S) matrix, and
:meth:`_ContextCache.step_tables` turns it into row totals and CDF rows. The
any-order route draws from the CDF rows; the Euler route scales the totals by
kappa_dot/(1-kappa) and forms rows only for pairs its memo lacks;
:func:`guide_rates` returns the weights of one context's masked positions,
scaled the same way, as a (D, S) rate matrix. The kernel reads one
pure-function context cache, shared by the chains of a call when every
component is deterministic (otherwise each chain runs the core alone on its
own substream and cache). It calls the models pair by pair in the order
given, so a stochastic predictor draws as it would with one call per pair.
``exact`` and ``deg`` make one predictor call per (context, position) when
the predictor scores the S children of a position at once
(``child_likelihoods``), and one call per child otherwise.

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

from .core import (
    Alphabet,
    InterpolationSchedule,
    MaskedSequence,
    TokenSequence,
    as_generator,
    identity_schedule,
)
from .denoising import CodeCache, Denoiser
from .errors import CapabilityError, DegenerateStepError, TimeHorizonError
from .predictors import LIKELIHOOD_FLOOR, TimePredictor

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
        if self.gamma < 0:
            raise ValueError("guidance strength gamma must be >= 0")
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
      integration steps on the Euler route, summed per chain when chains run
      one by one on substreams.
    * ``overflow_renormalizations``: Euler outflows above 1 clipped to 1,
      one per (chain, position, step).
    * ``denoiser_evals``: posterior evaluations of either denoiser, one per
      newly cached context.
    * ``predictor_evals``: newly memoized likelihoods (one per child or
      source context) and gradient surfaces.
    * ``step_weight_requests``: distinct (context, position, active) guided
      weight rows formed.
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
    def states(self) -> list:
        state = np.full(self.row.size, self.S, dtype=np.int64)
        states = [state.copy()]
        for d in self.permutation:
            state[d] = self.row[d]
            states.append(state.copy())
        return states

    def final(self) -> TokenSequence:
        return TokenSequence(self.row, Alphabet(self.S))

    def to_json(self) -> dict:
        alpha = Alphabet(self.S)
        return {
            "permutation": [int(d) for d in self.permutation],
            "jump_times": [float(t) for t in self.jump_times],
            "states": ["".join(alpha.letter(int(t)) for t in s) for s in self.states],
        }


def write_paths_jsonl(paths: Sequence[DecodePath], fh) -> None:
    for p in paths:
        fh.write(json.dumps(p.to_json(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def rate_coefficient(t: float, schedule: InterpolationSchedule) -> float:
    if t >= 1.0 - TIME_HORIZON_EPS:
        raise TimeHorizonError(
            f"rates diverge at the t=1 horizon (requested t={t}); "
            "stop Euler integration at 1-dt and force-complete"
        )
    return schedule.kappa_dot(t) / (1.0 - schedule.kappa(t))


def guide_rates(
    denoiser: Denoiser,
    xt: MaskedSequence,
    t: float,
    schedule: InterpolationSchedule,
    cfg: GuidanceConfig = GuidanceConfig(),
) -> np.ndarray:
    """Masking-process generative rates at time t, guided by ``cfg`` (an
    Euler-route mode; 'none' gives coef * posterior), from the same kernel
    the Euler samplers use.

    Returns the (D, S) matrix whose entry (d, s) is the rate of position d
    jumping to real symbol s: ``coef * weights`` at masked positions, with
    ``coef`` = kappa_dot(t) / (1 - kappa(t)), and zero rows at unmasked
    positions (no transitions out of them, none into the mask). The first
    entry that is not finite and nonnegative raises ValueError naming it.
    """
    check_route("euler", cfg.mode)
    coef = rate_coefficient(t, schedule)
    cache = _ContextCache(denoiser, cfg, SamplerDiagnostics())
    masked = xt.masked_positions()
    codes = np.full(masked.size, cache.encode(xt.tokens))
    rates = np.zeros((denoiser.D, denoiser.S))
    rates[masked] = coef * cache.guided_weights(codes, masked, True)
    bad = ~(np.isfinite(rates) & (rates >= 0))
    if bad.any():
        d, s = np.argwhere(bad)[0].tolist()
        raise ValueError(f"rate ({d},{s}) = {float(rates[d, s])} is not finite and nonnegative")
    return rates


# ---------------------------------------------------------------------------
# jump times (order-statistics machinery)
# ---------------------------------------------------------------------------


def sample_jump_times(D: int, schedule: InterpolationSchedule, rng, n: int = 1):
    """Per-position jump times of n chains (i.i.d. with CDF kappa), sorted
    per chain; the any-order sampler draws its orders and times here.

    Returns (tau, sigma), each of shape (n, D): tau nondecreasing along each
    row, sigma[k, i] the position whose time ranked i-th in chain k; ties
    break by ascending position index.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    times = schedule.inverse(as_generator(rng).random((n, D)))
    return np.sort(times, axis=1), np.argsort(times, axis=1, kind="stable")


def lemma1_density(i: int, tau_i: float, tau_prev: float, D: int, schedule: InterpolationSchedule) -> float:
    """Closed-form conditional density of the i-th jump time given the
    previous one: (D-(i-1)) * kd(t_i)/(1-k(t_prev)) * ((1-k(t_i))/(1-k(t_prev)))^(D-i)."""
    if not 1 <= i <= D:
        raise ValueError(f"jump index i={i} outside 1..{D}")
    if not 0.0 <= tau_prev < tau_i < 1.0:
        raise ValueError(f"need 0 <= tau_prev < tau_i < 1, got {tau_prev}, {tau_i}")
    k_prev = schedule.kappa(tau_prev)
    k_i = schedule.kappa(tau_i)
    surv = (1.0 - k_i) / (1.0 - k_prev)
    return (D - (i - 1)) * schedule.kappa_dot(tau_i) / (1.0 - k_prev) * surv ** (D - i)


# ---------------------------------------------------------------------------
# the context cache and the guidance kernel
# ---------------------------------------------------------------------------


class _ContextCache(CodeCache):
    """The posterior memo of CodeCache plus memoized conditional-model rows,
    clamped predictor likelihoods and gradient surfaces, all keyed by the
    context code, and the guidance kernel that reads them."""

    def __init__(self, denoiser: Denoiser, cfg: GuidanceConfig, diagnostics: SamplerDiagnostics):
        super().__init__(denoiser, diagnostics)
        self.cfg = cfg
        self._post2: dict = {}
        self._lik: dict = {}
        self._grad: dict = {}

    @property
    def cacheable(self) -> bool:
        parts = [self.denoiser, self.cfg.second_denoiser]
        if self.cfg.guided and self.cfg.predictor is not None:
            parts.append(self.cfg.predictor)
        return all(getattr(p, "deterministic", True) for p in parts if p is not None)

    def posterior_cond(self, code: int) -> np.ndarray:
        hit = self._post2.get(code)
        if hit is None:
            hit = self.cfg.second_denoiser.posterior_array(self.decode(code))
            self.diag.denoiser_evals += 1
            self._post2[code] = hit
        return hit

    def likelihood(self, code: int) -> float:
        hit = self._lik.get(code)
        if hit is None:
            hit = self.cfg.predictor.likelihood_array(self.decode(code))
            hit = min(max(hit, LIKELIHOOD_FLOOR), 1.0)
            self.diag.predictor_evals += 1
            self._lik[code] = hit
        return hit

    def child_likelihoods(self, code: int, d: int) -> np.ndarray:
        """Clamped likelihoods of the S children of context ``code`` at
        masked position d, memoized per child code. A predictor with
        ``child_likelihoods`` scores a row with any unmemoized child in one
        call; any other gets one ``likelihood_array`` call per such child.
        Each newly memoized child counts as one predictor evaluation."""
        keys = self.children(code, d)
        batched = getattr(self.cfg.predictor, "child_likelihoods", None)
        if batched is None:
            return np.array([self.likelihood(k) for k in keys])
        memo = self._lik
        fresh = sum(k not in memo for k in keys)
        if not fresh:
            return np.array([memo[k] for k in keys])
        row = batched(self.decode(code), d)
        memo.update(zip(keys, row.tolist()))
        self.diag.predictor_evals += fresh
        return row

    def gradient(self, code: int) -> np.ndarray:
        hit = self._grad.get(code)
        if hit is None:
            hit = self.cfg.predictor.gradient_surface_array(self.decode(code))
            self.diag.predictor_evals += 1
            self._grad[code] = hit
        return hit

    def guided_weights(self, codes: np.ndarray, positions: np.ndarray, active: bool) -> np.ndarray:
        """Unnormalized guided weights of P (context, position) pairs, shape
        (P, S): row j weighs the real symbols for unmasking ``positions[j]``
        of the context ``codes[j]``. Without guidance, or before the switch
        point (``active`` false), the rows are the denoiser posterior. The
        models are called pair by pair, in the order given."""
        cfg, S, P = self.cfg, self.S, codes.size
        self.diag.step_weight_requests += P
        mode = cfg.mode if cfg.guided and active else "none"
        post = np.empty((P, S))
        tilt = np.empty((P, S + 1 if mode == "tag" else S))
        src = np.empty((P, 1)) if mode == "exact" else 1.0
        for j, (code, d) in enumerate(zip(codes.tolist(), positions.tolist())):
            post[j] = self.posterior(code)[d]
            if mode == "tag":
                tilt[j] = self.gradient(code)[d]
            elif mode == "predictor_free":
                tilt[j] = self.posterior_cond(code)[d]
            elif mode != "none":
                if mode == "exact":
                    src[j] = self.likelihood(code)
                tilt[j] = self.child_likelihoods(code, d)
        if mode == "none":
            return post
        if mode == "tag":
            return post * np.exp(cfg.gamma * (tilt[:, :S] - tilt[:, S:]))
        if mode == "predictor_free":
            return tilt**cfg.gamma * post ** (1.0 - cfg.gamma)
        # exact and deg: tilt by the child likelihoods; deg omits the source
        # divisor, which the per-row normalization of a decode draw absorbs
        return post * (tilt / src) ** cfg.gamma

    def step_tables(self, codes: np.ndarray, positions: np.ndarray, active: bool, step: int):
        """(totals, CDF rows) of the guided weights of a step's pairs. The
        first pair, in the order given, whose total is zero or not finite
        raises DegenerateStepError naming the step and the pair's position;
        the message tells the two cases apart."""
        weights = self.guided_weights(codes, positions, active)
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


def _draw(cdfs: np.ndarray, inv: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: the symbol of uniform u[k] under row cdfs[inv[k]]."""
    return (cdfs[inv] < u[:, None]).sum(axis=1).clip(max=cdfs.shape[1] - 1)


def _run(route: str, core, denoiser: Denoiser, cfg: GuidanceConfig, n: int, rng, paths: bool):
    """Run ``core(cache, n, generator)`` for a route's driver and time it.

    Deterministic components share one cache across the n chains. Otherwise
    chain k runs the core alone on substream k with a fresh cache, so no
    model output is shared across chains; a single chain runs on ``rng``
    itself. Returns (rows, diagnostics), or (rows, paths, diagnostics).
    """
    check_route(route, cfg.mode)
    diag = SamplerDiagnostics(sampler=route, n_chains=n)
    cache = _ContextCache(denoiser, cfg, diag)
    t_start = time.perf_counter()
    if cache.cacheable or n <= 1:
        rows, order, times = core(cache, n, as_generator(rng))
    else:
        if not hasattr(rng, "substream"):
            raise ValueError("nondeterministic components require a RandomSource")
        runs = [core(_ContextCache(denoiser, cfg, diag), 1, rng.substream(k).generator())
                for k in range(n)]
        rows, order, times = (np.concatenate(parts) for parts in zip(*runs))
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

    The order and times are :func:`sample_jump_times` under the identity
    schedule: sorting i.i.d. uniforms gives each chain a uniform unmask
    order. Step i draws one symbol per chain from the guided row of its
    (context, position) pair, formed once per distinct pair.
    """
    D, S, cfg = cache.D, cache.S, cache.cfg
    times, order = sample_jump_times(D, identity_schedule(), gen, n)
    rows = np.full((n, D), S, dtype=np.int64)
    chains = np.arange(n)
    for i in range(D):
        active = (i / D) >= cfg.t0
        d_vec = order[:, i]
        # a step-i context has exactly i unmasked positions, so pairs never
        # recur across steps and the CDF rows are not worth keeping
        ctx, pos, inv = cache.pairs(rows, d_vec)
        _, cdfs = cache.step_tables(ctx, pos, active, i)
        rows[chains, d_vec] = _draw(cdfs, inv, gen.random(n))
        cache.diag.n_steps += n
    return rows, order, times


def aoarm_sample(denoiser: Denoiser, cfg: GuidanceConfig, rng):
    """Draw one sequence: the n=1 case of :func:`aoarm_sample_many`.

    Returns (TokenSequence, DecodePath, SamplerDiagnostics). The path's jump
    times are the sorted uniforms that fixed the unmask order. With mode
    'deg', gamma=1 and an exact denoiser and predictor, the output is an
    exact draw from the tilted posterior.
    """
    rows, paths, diag = aoarm_sample_many(denoiser, cfg, 1, rng, paths=True)
    return TokenSequence(rows[0], Alphabet(denoiser.S)), paths[0], diag


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


def _euler_core(cache: _ContextCache, n: int, gen, schedule: InterpolationSchedule,
                dt: float, n_int: int):
    """n Euler chains on one cache; returns (rows, order, jump times).

    The still-masked (chain, position) pairs are flat arrays. Integration
    step k draws one Bernoulli per pair and one symbol per jumper, which
    jumps at time (k+1)*dt. Pairs still masked at the horizon are
    force-completed from their guided rows (step ``n_int``) at time 1.0. A
    chain's order sorts its positions by jump time, ties by position.
    """
    D, S, cfg, diag = cache.D, cache.S, cache.cfg, cache.diag
    rows = np.full((n, D), S, dtype=np.int64)
    times = np.ones((n, D))
    chain_idx = np.repeat(np.arange(n), D)
    pos_idx = np.tile(np.arange(D), n)
    unguided = not cfg.guided
    # a chain that does not jump keeps its context, so (pair, active) recurs
    memo: dict = {}

    def pair_tables(chains, positions, active, step):
        """(jump weight sums, cdf matrix, indices into it) for the given pairs."""
        ctx, pos, inv = cache.pairs(rows[chains], positions)
        keys = [(code, d, active) for code, d in zip(ctx.tolist(), pos.tolist())]
        fresh = [j for j, key in enumerate(keys) if key not in memo]
        if fresh:
            sums, cdfs = cache.step_tables(ctx[fresh], pos[fresh], active, step)
            memo.update(zip([keys[j] for j in fresh], zip(sums.tolist(), cdfs)))
        got = [memo[key] for key in keys]
        sums = np.array([total for total, _ in got])
        return sums[inv], np.array([cdf for _, cdf in got]), inv

    for k in range(n_int):
        if chain_idx.size == 0:
            break
        t = k * dt
        coef_dt = rate_coefficient(t, schedule) * dt
        active = t >= cfg.t0
        diag.n_steps += 1
        if unguided:
            outflow = np.full(chain_idx.size, coef_dt)
        else:
            sums, cdfs, inv = pair_tables(chain_idx, pos_idx, active, k)
            outflow = coef_dt * sums
        diag.overflow_renormalizations += int((outflow > 1.0).sum())
        np.clip(outflow, None, 1.0, out=outflow)
        jump = gen.random(chain_idx.size) < outflow
        if jump.any():
            jc, jp = chain_idx[jump], pos_idx[jump]
            if unguided:
                _, cdfs, inv_j = pair_tables(jc, jp, active, k)
            else:
                inv_j = inv[jump]
            rows[jc, jp] = _draw(cdfs, inv_j, gen.random(jc.size))
            times[jc, jp] = t + dt
            chain_idx, pos_idx = chain_idx[~jump], pos_idx[~jump]
    if chain_idx.size:
        _, cdfs, inv = pair_tables(chain_idx, pos_idx, (1.0 - dt) >= cfg.t0, n_int)
        rows[chain_idx, pos_idx] = _draw(cdfs, inv, gen.random(chain_idx.size))
    order = np.argsort(times, axis=1, kind="stable")
    return rows, order, np.take_along_axis(times, order, axis=1)


def euler_sample(denoiser: Denoiser, cfg: GuidanceConfig, schedule: InterpolationSchedule,
                 dt: float, rng):
    """Integrate one chain of the (guided) masking CTMC from the fully masked
    state: the n=1 case of :func:`euler_sample_many`.

    Returns (TokenSequence, DecodePath, SamplerDiagnostics); forced terminal
    unmasks carry time 1.0 in the path.
    """
    rows, paths, diag = euler_sample_many(denoiser, cfg, schedule, dt, 1, rng, paths=True)
    return TokenSequence(rows[0], Alphabet(denoiser.S)), paths[0], diag


def euler_sample_many(denoiser: Denoiser, cfg: GuidanceConfig, schedule: InterpolationSchedule,
                      dt: float, n: int, rng, paths: bool = False):
    """n Euler chains stepped from t=0 to the 1-dt horizon; an outflow above
    1 is clipped and counted, and residual masks are force-completed.
    Returns (token matrix, diagnostics), or (token matrix, decode paths,
    diagnostics) with ``paths``."""
    core = functools.partial(_euler_core, schedule=schedule, dt=dt, n_int=check_dt(dt))
    return _run("euler", core, denoiser, cfg, n, rng, paths)
