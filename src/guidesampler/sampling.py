"""Unconditional and guided generation over the masking noise process.

Two sampling routes produce draws from the same law:

* :func:`euler_sample`: numerical CTMC integration with step ``dt``; carries
  an O(dt) bias and a diagnostics counter for outflow renormalizations;
* :func:`aoarm_sample`: exact any-order autoregressive sampling: a uniform
  permutation fixes the unmask order, one categorical draw per position; the
  per-step state conditional never reads the clock (it takes no time
  argument), and jump times, when requested, are attached afterwards by
  sorting independent draws from the schedule.

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

One kernel, :meth:`_ContextCache.guided_weights`, forms the guided weights
of every mode for both routes: one unnormalized row over the real symbols per
requested masked position. The any-order route draws from a row; the Euler
route and :func:`guide_rates` scale rows by kappa_dot/(1-kappa). It reads one
pure-function context cache keyed by the base-(S+1) context code, which the
many-chain drivers share across chains when every component is deterministic
(otherwise they run single chains on substreams). ``exact`` and ``deg`` make
one predictor call per (context, position) when the predictor scores the S
children of a position at once (``child_likelihoods``), and one call per
child otherwise. Diagnostics report both weight requests and actual model
evaluations; a predictor evaluation is one newly memoized child.

Composition order with logit modifiers: temperature and wild-type bias are
applied inside the denoiser (ModifiedDenoiser) before guidance reads any
posterior, so gamma always exponentiates likelihoods of the already-tempered
model and never a separate normalizer.
"""

from __future__ import annotations

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
)
from .denoising import CODE_LIMIT, CodeCache, Denoiser
from .errors import DegenerateStepError, SizeCapError, TimeHorizonError
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
    clock (Euler route) reaches it."""

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
    """Run accounting, emitted as a JSON summary."""

    sampler: str = ""
    n_chains: int = 0
    n_steps: int = 0
    overflow_renormalizations: int = 0
    denoiser_evals: int = 0
    predictor_evals: int = 0
    step_weight_requests: int = 0
    wall_time_s: float = 0.0

    def add(self, other: "SamplerDiagnostics") -> None:
        """Accumulate another run's counts and wall time."""
        for name in ("n_steps", "overflow_renormalizations", "denoiser_evals",
                     "predictor_evals", "step_weight_requests", "wall_time_s"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class DecodePath:
    """Realized generation trace: one unmask event per step.

    ``permutation[i]`` is the position unmasked at step i, ``jump_times[i]``
    the time it happened (Euler paths may carry tied times at dt resolution;
    forced terminal unmasks carry time 1.0), ``states`` the D+1 progressively
    unmasked token arrays.
    """

    permutation: np.ndarray
    jump_times: Optional[np.ndarray]
    states: list
    S: int

    def final(self) -> TokenSequence:
        return TokenSequence(self.states[-1], Alphabet(self.S))

    def to_json(self) -> dict:
        alpha = Alphabet(self.S)
        return {
            "permutation": [int(d) for d in self.permutation],
            "jump_times": None if self.jump_times is None else [float(t) for t in self.jump_times],
            "states": ["".join(alpha.letter(int(t)) for t in s) for s in self.states],
        }


def write_paths_jsonl(paths: Sequence[DecodePath], fh) -> None:
    import json

    for p in paths:
        fh.write(json.dumps(p.to_json(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# rate sets
# ---------------------------------------------------------------------------


@dataclass
class RateSet:
    """Sparse single-position transition rates at one time.

    The rate of position d jumping to real symbol s is ``coef * weights[d, s]``
    at masked positions of ``source``; there are no transitions out of
    unmasked positions (their rows are zero) and none into the mask. ``coef``
    is the shared prefactor kappa_dot(t) / (1 - kappa(t)).
    """

    weights: np.ndarray
    t: float
    coef: float
    source: MaskedSequence

    @property
    def entries(self) -> dict:
        """{(d, s): rate} over masked positions d and real symbols s."""
        return {
            (int(d), s): self.coef * float(self.weights[d, s])
            for d in self.source.masked_positions()
            for s in range(self.weights.shape[1])
        }

    def validate(self) -> "RateSet":
        for (d, s), r in self.entries.items():
            if not (np.isfinite(r) and r >= 0):
                raise ValueError(f"rate ({d},{s}) = {r} is not finite and nonnegative")
        return self


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
) -> RateSet:
    """Masking-process generative rates at time t, guided by ``cfg`` (an
    Euler-route mode; 'none' gives coef * posterior), from the same kernel
    the Euler samplers use."""
    check_route("euler", cfg.mode)
    coef = rate_coefficient(t, schedule)
    cache = _ContextCache(denoiser, cfg, SamplerDiagnostics())
    masked = xt.masked_positions()
    weights = np.zeros((denoiser.D, denoiser.S))
    weights[masked] = cache.guided_weights(int(xt.tokens @ cache.pows), masked, True)
    return RateSet(weights=weights, t=t, coef=coef, source=xt).validate()


# ---------------------------------------------------------------------------
# jump times (order-statistics machinery)
# ---------------------------------------------------------------------------


def sample_jump_times(D: int, schedule: InterpolationSchedule, rng):
    """Per-position jump times (i.i.d. with CDF kappa), sorted.

    Returns (tau, sigma): tau strictly increasing, sigma[i] the position whose
    time ranked i-th; ties break by ascending position index.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    gen = as_generator(rng)
    u = gen.random(D)
    times = np.array([schedule.inverse(float(v)) for v in u])
    sigma = np.argsort(times, kind="stable")
    return times[sigma], sigma


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
        step = int(self.pows[d])
        keys = range(code - self.S * step, code, step)
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

    def guided_weights(self, code: int, positions, active: bool) -> np.ndarray:
        """Unnormalized guided weights, shape (len(positions), S): row j
        weighs the real symbols for unmasking ``positions[j]`` of the context
        ``code``. Without guidance, or before the switch point (``active``
        false), the rows are the denoiser posterior."""
        self.diag.step_weight_requests += 1
        post = self.posterior(code).take(positions, axis=0)
        cfg, S = self.cfg, self.S
        if not (cfg.guided and active):
            return post
        if cfg.mode == "tag":
            g = self.gradient(code).take(positions, axis=0)
            return post * np.exp(cfg.gamma * (g[:, :S] - g[:, S:]))
        if cfg.mode == "predictor_free":
            cond = self.posterior_cond(code).take(positions, axis=0)
            return cond**cfg.gamma * post ** (1.0 - cfg.gamma)
        # exact and deg: tilt by the child likelihoods; deg omits the source
        # divisor, which the per-row normalization of a decode draw absorbs
        src = self.likelihood(code) if cfg.mode == "exact" else 1.0
        lik = np.array([self.child_likelihoods(code, d) for d in positions])
        return post * (lik / src) ** cfg.gamma


def _check_pair_keys(D: int, S: int) -> None:
    """The many-chain drivers key a (context, position) pair as the int64
    ``code * D + d``; refuse sizes where that key wraps."""
    if (S + 1) ** D * D >= CODE_LIMIT:
        raise SizeCapError(
            f"(context, position) keys (S+1)**D * D = {S + 1}**{D} * {D} do not fit in int64"
        )


def _normalized_cdf(weights: np.ndarray, step: int, position: int):
    """(total, cumulative distribution) of a nonnegative weight row."""
    total = float(weights.sum())
    if not (math.isfinite(total) and total > 0.0):
        raise DegenerateStepError(step, position)
    return total, np.cumsum(weights) / total


def _draw_from_weights(weights: np.ndarray, u: float, step: int, position: int) -> int:
    _, cdf = _normalized_cdf(weights, step, position)
    return min(int(np.searchsorted(cdf, u, side="right")), weights.size - 1)


def _per_chain(n: int, D: int, rng, diag: SamplerDiagnostics, sample_one) -> np.ndarray:
    """Many-chain fallback for nondeterministic components: chain k is one
    single-chain run on substream k, so no model output is shared across
    chains. Returns the (n, D) token matrix; counts accumulate in ``diag``."""
    if not hasattr(rng, "substream"):
        raise ValueError("nondeterministic components require a RandomSource")
    rows = np.empty((n, D), dtype=np.int64)
    for k in range(n):
        x, _, one = sample_one(rng.substream(k))
        rows[k] = x.tokens
        diag.add(one)
    return rows


# ---------------------------------------------------------------------------
# any-order autoregressive sampling (exact route)
# ---------------------------------------------------------------------------


def aoarm_sample(
    denoiser: Denoiser,
    cfg: GuidanceConfig,
    rng,
    schedule: Optional[InterpolationSchedule] = None,
    attach_times: bool = False,
):
    """Draw one sequence by unmasking positions in a uniformly random order.

    Returns (TokenSequence, DecodePath). With mode 'deg', gamma=1, and exact
    denoiser/predictor the output is an exact draw from the tilted posterior.
    Jump times are attached afterwards (requires ``schedule``) and do not
    perturb the sequence draw.
    """
    check_route("aoarm", cfg.mode)
    gen = as_generator(rng)
    D, S = denoiser.D, denoiser.S
    diag = SamplerDiagnostics(sampler="aoarm", n_chains=1)
    cache = _ContextCache(denoiser, cfg, diag)
    sigma = gen.permutation(D)
    tokens = np.full(D, S, dtype=np.int64)
    code = cache.full_mask
    states = [tokens.copy()]
    t_start = time.perf_counter()
    for i, d in enumerate(sigma):
        w = cache.guided_weights(code, [d], (i / D) >= cfg.t0)[0]
        s = _draw_from_weights(w, gen.random(), step=i, position=int(d))
        tokens[d] = s
        code += (s - S) * int(cache.pows[d])
        states.append(tokens.copy())
        diag.n_steps += 1
    jump_times = None
    if attach_times:
        if schedule is None:
            raise ValueError("attach_times requires a schedule")
        jump_times, _ = sample_jump_times(D, schedule, gen)
    diag.wall_time_s = time.perf_counter() - t_start
    path = DecodePath(permutation=np.asarray(sigma), jump_times=jump_times, states=states, S=S)
    return TokenSequence(tokens, Alphabet(S)), path, diag


def aoarm_sample_many(denoiser: Denoiser, cfg: GuidanceConfig, n: int, rng):
    """Vectorized n-chain any-order sampling; returns (token matrix, diagnostics).

    The unmask order per chain comes from sorting i.i.d. uniforms, which is
    both a uniform permutation and the jump-time construction. Falls back to
    per-chain sampling on substreams when any component is nondeterministic.
    """
    check_route("aoarm", cfg.mode)
    D, S = denoiser.D, denoiser.S
    diag = SamplerDiagnostics(sampler="aoarm_many", n_chains=n)
    cache = _ContextCache(denoiser, cfg, diag)
    t_start = time.perf_counter()
    if not cache.cacheable:
        rows = _per_chain(n, D, rng, diag, lambda r: aoarm_sample(denoiser, cfg, r))
        diag.wall_time_s = time.perf_counter() - t_start
        return rows, diag

    _check_pair_keys(D, S)
    gen = as_generator(rng)
    order = np.argsort(gen.random((n, D)), axis=1, kind="stable")
    pows = cache.pows
    codes = np.full(n, cache.full_mask, dtype=np.int64)
    for i in range(D):
        active = (i / D) >= cfg.t0
        d_vec = order[:, i]
        # a step-i context has exactly i unmasked positions, so pairs never
        # recur across steps and the CDF rows are not worth keeping
        uniq, inv = np.unique(codes * D + d_vec, return_inverse=True)
        cdf_rows = np.empty((uniq.size, S))
        for j, key in enumerate(uniq):
            code, d = divmod(int(key), D)
            w = cache.guided_weights(code, [d], active)[0]
            _, cdf_rows[j] = _normalized_cdf(w, i, d)
        u = gen.random(n)
        draws = (cdf_rows[inv] < u[:, None]).sum(axis=1).clip(max=S - 1)
        codes += (draws - S) * pows[d_vec]
        diag.n_steps += n
    rows = np.empty((n, D), dtype=np.int64)
    rest = codes.copy()
    for i in range(D):
        rows[:, i] = rest % (S + 1)
        rest //= S + 1
    diag.wall_time_s = time.perf_counter() - t_start
    return rows, diag


# ---------------------------------------------------------------------------
# Euler CTMC integration
# ---------------------------------------------------------------------------


def check_dt(dt: float) -> int:
    """Number of integration steps: t = k*dt while the step stays at or
    below the 1-dt horizon; residual masks are force-completed there."""
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"dt must lie in (0, 0.1], got {dt}")
    return max(1, int(math.floor((1.0 - 2.0 * dt) / dt + 1e-9)) + 1)


def euler_sample(
    denoiser: Denoiser,
    cfg: GuidanceConfig,
    schedule: InterpolationSchedule,
    dt: float,
    rng,
):
    """Integrate the (guided) masking CTMC from the fully masked state.

    Steps from t=0 to t=1-dt; outflow above 1 is renormalized and counted;
    residual masked positions at the horizon are force-completed with one
    draw each from the final guided per-position distribution (recorded at
    time 1.0). Returns (TokenSequence, DecodePath, SamplerDiagnostics).
    """
    check_route("euler", cfg.mode)
    n_int = check_dt(dt)
    gen = as_generator(rng)
    D, S = denoiser.D, denoiser.S
    diag = SamplerDiagnostics(sampler="euler", n_chains=1)
    cache = _ContextCache(denoiser, cfg, diag)
    pows = cache.pows
    tokens = np.full(D, S, dtype=np.int64)
    code = cache.full_mask
    perm: list = []
    times: list = []
    t_start = time.perf_counter()
    for k in range(n_int):
        t = k * dt
        coef_dt = rate_coefficient(t, schedule) * dt
        masked = np.flatnonzero(tokens == S)
        if masked.size == 0:
            break
        w = cache.guided_weights(code, masked, t >= cfg.t0)
        wsum = w.sum(axis=1)
        diag.n_steps += 1
        for j, d in enumerate(masked):
            outflow = coef_dt * float(wsum[j])
            if outflow > 1.0:
                diag.overflow_renormalizations += 1
                outflow = 1.0
            if gen.random() < outflow:
                s = _draw_from_weights(w[j], gen.random(), step=k, position=int(d))
                tokens[d] = s
                code += (s - S) * int(pows[d])
                perm.append(int(d))
                times.append(t + dt)
    # force-complete residual masks from the final per-position distribution
    masked = np.flatnonzero(tokens == S)
    if masked.size:
        w = cache.guided_weights(code, masked, (1.0 - dt) >= cfg.t0)
        for j, d in enumerate(masked):
            tokens[d] = _draw_from_weights(w[j], gen.random(), step=n_int, position=int(d))
            perm.append(int(d))
            times.append(1.0)
    # rebuild the one-unmask-per-step state trace
    trace: list = [np.full(D, S, dtype=np.int64)]
    for d in perm:
        nxt = trace[-1].copy()
        nxt[d] = tokens[d]
        trace.append(nxt)
    diag.wall_time_s = time.perf_counter() - t_start
    path = DecodePath(
        permutation=np.array(perm, dtype=np.int64),
        jump_times=np.array(times),
        states=trace,
        S=S,
    )
    return TokenSequence(tokens, Alphabet(S)), path, diag


def euler_sample_many(
    denoiser: Denoiser,
    cfg: GuidanceConfig,
    schedule: InterpolationSchedule,
    dt: float,
    n: int,
    rng,
):
    """Vectorized n-chain Euler integration; returns (token matrix, diagnostics).

    Maintains the still-masked (chain, position) pairs as flat arrays; each
    step draws one Bernoulli per pair and one categorical per jumper.
    """
    check_route("euler", cfg.mode)
    n_int = check_dt(dt)
    D, S = denoiser.D, denoiser.S
    diag = SamplerDiagnostics(sampler="euler_many", n_chains=n)
    cache = _ContextCache(denoiser, cfg, diag)
    t_start = time.perf_counter()
    if not cache.cacheable:
        rows = _per_chain(n, D, rng, diag, lambda r: euler_sample(denoiser, cfg, schedule, dt, r))
        diag.wall_time_s = time.perf_counter() - t_start
        return rows, diag

    _check_pair_keys(D, S)
    gen = as_generator(rng)
    pows = cache.pows
    tokens = np.full((n, D), S, dtype=np.int64)
    codes = np.full(n, cache.full_mask, dtype=np.int64)
    chain_idx = np.repeat(np.arange(n), D)
    pos_idx = np.tile(np.arange(D), n)
    unguided = not cfg.guided
    # a chain that does not jump keeps its context, so (pair, active) recurs
    cdf_cache: dict = {}

    def pair_tables(codes_now, pos_now, active):
        """(jump weight sums, cdf matrix, indices into it) for the given pairs."""
        uniq, inv = np.unique(codes_now * D + pos_now, return_inverse=True)
        sums = np.empty(uniq.size)
        cdfs = np.empty((uniq.size, S))
        for j, key in enumerate(uniq):
            k = int(key)
            got = cdf_cache.get((k, active))
            if got is None:
                code, d = divmod(k, D)
                got = _normalized_cdf(cache.guided_weights(code, [d], active)[0], -1, d)
                cdf_cache[(k, active)] = got
            sums[j], cdfs[j] = got
        return sums[inv], cdfs, inv

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
            sums, cdfs, inv = pair_tables(codes[chain_idx], pos_idx, active)
            outflow = coef_dt * sums
        over = outflow > 1.0
        diag.overflow_renormalizations += int(over.sum())
        np.clip(outflow, None, 1.0, out=outflow)
        jump = gen.random(chain_idx.size) < outflow
        if jump.any():
            jc, jp = chain_idx[jump], pos_idx[jump]
            if unguided:
                _, cdfs, inv_j = pair_tables(codes[jc], jp, active)
            else:
                inv_j = inv[jump]
            u = gen.random(jc.size)
            draws = (cdfs[inv_j] < u[:, None]).sum(axis=1).clip(max=S - 1)
            tokens[jc, jp] = draws
            # one chain can jump at several positions in a single step
            np.add.at(codes, jc, (draws - S) * pows[jp])
            chain_idx, pos_idx = chain_idx[~jump], pos_idx[~jump]
    if chain_idx.size:
        active = (1.0 - dt) >= cfg.t0
        _, cdfs, inv_j = pair_tables(codes[chain_idx], pos_idx, active)
        u = gen.random(chain_idx.size)
        draws = (cdfs[inv_j] < u[:, None]).sum(axis=1).clip(max=S - 1)
        tokens[chain_idx, pos_idx] = draws
    diag.wall_time_s = time.perf_counter() - t_start
    return tokens, diag
