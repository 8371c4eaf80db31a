"""Synthetic design-campaign harness: guidance vs post-hoc filtering vs
refit-on-curated-subset, at matched sample budgets with recorded wall times.

Landscapes are planted Gibbs distributions over an enumerable state space
with a distinct planted fitness function, so every arm can be scored against
the exact ground truth. Success is always computed with the true fitness
(the oracle role); the predictor trained on labeled data is only used for
guidance and for filter ranking.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Alphabet,
    RandomSource,
    TabularDistribution,
    TokenSequence,
    _check_state_count,
    encode_rows,
    sequence_table,
)
from .denoising import ExactDenoiser, train_denoiser
from .errors import SizeCapError
from .predictors import (
    CleanPredictor,
    ExactMarginalPredictor,
    ProductPredictor,
    train_noisy_classifier,
)
from .sampling import GuidanceConfig, aoarm_sample_many

LANDSCAPE_CAP_D = 8
LANDSCAPE_CAP_S = 4

_LANDSCAPE_KEYS = {
    "D", "S", "seed", "axes", "energy_scale", "coupling_scale",
    "fitness_scale", "fitness_coupling_scale", "anticorrelation", "target",
}
_TARGET_KEYS = {"kind", "q", "value", "bounds"}


def _planted_table(D: int, S: int, h: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Single-site + pairwise planted function over all S**D sequences, in
    ``sequence_table`` order. The table is built as a (S,)*D grid: that
    order is little-endian, so position d is grid axis D-1-d. Each h[d] and
    each J[d, e] is added over the grid by broadcasting, in the order
    h[0..D-1], then J[d, e] for d < e row by row, so every entry is the same
    sum, bit for bit, as adding the terms of its row one by one."""
    _check_state_count(D, S)
    out = np.zeros((S,) * D)

    def grid_shape(*positions):
        shape = [1] * D
        for d in positions:
            shape[D - 1 - d] = S
        return shape

    for d in range(D):
        out += h[d].reshape(grid_shape(d))
    for d in range(D):
        for e in range(d + 1, D):
            # axis D-1-e comes before axis D-1-d, so the table is J[d, e].T
            out += J[d, e].T.reshape(grid_shape(d, e))
    return out.reshape(-1)


@dataclass
class Landscape:
    """Planted benchmark instance with exact tables."""

    p_data: TabularDistribution
    fitness_tables: list
    target: Callable[[np.ndarray], np.ndarray]  # fitness rows -> bool vector
    target_mass: float
    spec: dict
    params: dict

    @property
    def D(self) -> int:
        return self.p_data.D

    @property
    def S(self) -> int:
        return self.p_data.S

    @property
    def n_axes(self) -> int:
        return len(self.fitness_tables)

    def fitness_rows(self, rows: np.ndarray) -> np.ndarray:
        """(n, n_axes) true fitness values for a token matrix."""
        codes = encode_rows(rows, self.S)
        return np.stack([t[codes] for t in self.fitness_tables], axis=1)

    def success_mask(self, rows: np.ndarray) -> np.ndarray:
        return self.target(self.fitness_rows(rows))


def _resolve_target(spec_target: dict, fitness_tables, weights: np.ndarray):
    kind = spec_target.get("kind", "quantile")
    if kind == "quantile":
        # smallest high-fitness prefix whose p_data mass reaches q; the
        # achieved mass (q plus at most one atom) is recorded on the landscape
        q = float(spec_target.get("q", 0.001))
        f = fitness_tables[0]
        order = np.argsort(-f)
        cmass = np.cumsum(weights[order])
        k = int(np.searchsorted(cmass, q))
        threshold = float(f[order[min(k, f.size - 1)]])
        resolved = {"kind": "threshold", "value": threshold}
    elif kind == "threshold":
        resolved = {"kind": "threshold", "value": float(spec_target["value"])}
    elif kind == "rectangle":
        bounds = [[float(lo), float(hi)] for lo, hi in spec_target["bounds"]]
        if len(bounds) != len(fitness_tables):
            raise ValueError("one (lo, hi) bound per fitness axis required")
        resolved = {"kind": "rectangle", "bounds": bounds}
    else:
        raise ValueError(f"unknown target kind {kind!r}")

    if resolved["kind"] == "threshold":
        thr = resolved["value"]

        def predicate(fvals: np.ndarray) -> np.ndarray:
            return fvals[:, 0] >= thr

    else:
        bounds = resolved["bounds"]

        def predicate(fvals: np.ndarray) -> np.ndarray:
            ok = np.ones(fvals.shape[0], dtype=bool)
            for axis, (lo, hi) in enumerate(bounds):
                ok &= (fvals[:, axis] >= lo) & (fvals[:, axis] <= hi)
            return ok

    return predicate, resolved


def _build_landscape(spec: dict, params: dict) -> Landscape:
    D, S = int(spec["D"]), int(spec["S"])
    energy = _planted_table(D, S, params["h"], params["J"])
    w = np.exp(-(energy - energy.min()))
    p_data = TabularDistribution.from_unnormalized(D, S, w)
    axes = int(spec.get("axes", 1))
    tables = [
        _planted_table(D, S, params[f"phi{a}"], params[f"psi{a}"]) for a in range(axes)
    ]
    predicate, resolved = _resolve_target(spec.get("target", {}), tables, p_data.weights)
    mass = float(p_data.weights[predicate(np.stack(tables, axis=1))].sum())
    spec_resolved = dict(spec)
    spec_resolved["target"] = resolved
    return Landscape(
        p_data=p_data,
        fitness_tables=tables,
        target=predicate,
        target_mass=mass,
        spec=spec_resolved,
        params=params,
    )


def make_landscape(spec: dict, rng) -> Landscape:
    """Draw a planted landscape from a spec dict.

    Keys: D, S (caps 8 / 4), axes (1 or 2), energy_scale, coupling_scale,
    fitness_scale, fitness_coupling_scale, anticorrelation (axis-1 single-site
    effects = -anticorrelation * axis-0 effects + noise), target
    ({kind: quantile, q} | {kind: threshold, value} | {kind: rectangle, bounds}).
    """
    unknown = set(spec) - _LANDSCAPE_KEYS
    if unknown:
        raise ValueError(f"unknown landscape keys: {sorted(unknown)}")
    target = spec.get("target", {})
    unknown_t = set(target) - _TARGET_KEYS
    if unknown_t:
        raise ValueError(f"unknown target keys: {sorted(unknown_t)}")
    D, S = int(spec["D"]), int(spec["S"])
    if D > LANDSCAPE_CAP_D or S > LANDSCAPE_CAP_S:
        raise SizeCapError(f"landscape caps are D<={LANDSCAPE_CAP_D}, S<={LANDSCAPE_CAP_S}")
    gen = rng.generator() if isinstance(rng, RandomSource) else rng
    es = float(spec.get("energy_scale", 0.5))
    cs = float(spec.get("coupling_scale", 0.15))
    fs = float(spec.get("fitness_scale", 1.0))
    fcs = float(spec.get("fitness_coupling_scale", 0.25))
    anti = float(spec.get("anticorrelation", 0.8))
    def upper_pairs(scale):
        # couplings live on d < e blocks only
        J = gen.normal(0, scale, (D, D, S, S))
        for d in range(D):
            J[d, : d + 1] = 0.0
        return J

    params = {
        "h": gen.normal(0, es, (D, S)),
        "J": upper_pairs(cs),
        "phi0": gen.normal(0, fs, (D, S)),
        "psi0": upper_pairs(fcs),
    }
    for a in range(1, int(spec.get("axes", 1))):
        params[f"phi{a}"] = -anti * params["phi0"] + gen.normal(0, fs * 0.4, (D, S))
        params[f"psi{a}"] = upper_pairs(fcs)
    return _build_landscape(spec, params)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def metrics(sample_rows: np.ndarray, landscape: Landscape, reference_rows: Optional[np.ndarray]):
    """(success_rate, diversity, novelty): success via the TRUE fitness,
    diversity the mean pairwise Hamming distance, novelty the mean over
    samples of the minimum Hamming distance to the reference set."""
    if sample_rows.shape[0] == 0:
        raise ValueError("metrics need at least one sample")
    n, D = sample_rows.shape
    success = float(landscape.success_mask(sample_rows).mean())
    if n < 2:
        diversity = 0.0
    else:
        mismatch_pairs = 0
        for d in range(D):
            counts = np.bincount(sample_rows[:, d], minlength=landscape.S)
            mismatch_pairs += (n * n - (counts**2).sum()) / 2
        diversity = float(mismatch_pairs / (n * (n - 1) / 2))
    if reference_rows is None or reference_rows.shape[0] == 0:
        novelty = float("nan")
    else:
        novelty = float(
            np.mean([(reference_rows != row).sum(axis=1).min() for row in sample_rows])
        )
    return success, diversity, novelty


# ---------------------------------------------------------------------------
# campaign arms
# ---------------------------------------------------------------------------


@dataclass
class CampaignResult:
    arm: str
    seed: int
    success_rate: float
    diversity: float
    novelty: float
    wall_time: float
    n_oracle_calls: int
    n_predictor_calls: int
    gamma: Optional[float] = None
    extra: dict = field(default_factory=dict)

    # wall_time stays out of the primary CSV so reruns with one seed set are
    # byte-identical; timings are written to a separate file
    CSV_FIELDS = (
        "arm", "seed", "gamma", "success_rate", "diversity", "novelty",
        "n_oracle_calls", "n_predictor_calls",
    )

    def csv_row(self) -> list:
        return [
            self.arm, self.seed, "" if self.gamma is None else self.gamma,
            f"{self.success_rate:.6f}", f"{self.diversity:.6f}", f"{self.novelty:.6f}",
            self.n_oracle_calls, self.n_predictor_calls,
        ]


def _finish(arm, seed, rows, landscape, reference_rows, t0, n_pred, gamma=None, extra=None):
    success, diversity, novelty = metrics(rows, landscape, reference_rows)
    return CampaignResult(
        arm=arm, seed=seed, success_rate=success, diversity=diversity, novelty=novelty,
        wall_time=time.perf_counter() - t0, n_oracle_calls=rows.shape[0],
        n_predictor_calls=n_pred, gamma=gamma, extra=extra or {},
    )


def run_unguided(denoiser, landscape, k, rng, reference_rows=None, seed=0):
    t0 = time.perf_counter()
    rows, _ = aoarm_sample_many(denoiser, GuidanceConfig(), k, rng)
    return rows, _finish("unguided", seed, rows, landscape, reference_rows, t0, 0)


def run_posthoc_filter(
    denoiser, predictor, landscape, n_total, k, rng, reference_rows=None, seed=0
):
    """Oversample unguided, keep the top-k by predictor score, evaluate the
    kept set with the true fitness."""
    if k > n_total:
        raise ValueError("k must not exceed n_total")
    t0 = time.perf_counter()
    rows, _ = aoarm_sample_many(denoiser, GuidanceConfig(), n_total, rng)
    # every predictor answers rows; the pairwise classifier's likelihood_batch
    # is its likelihood_array under the name the benchmark's tracer times
    scores = getattr(predictor, "likelihood_batch", predictor.likelihood_array)(rows)
    keep = np.argsort(-scores, kind="stable")[:k]
    kept = rows[keep]
    return kept, _finish("filter", seed, kept, landscape, reference_rows, t0, n_total)


def run_guidance(
    denoiser, predictor, landscape, k, gamma, rng, reference_rows=None, seed=0,
    arm_name=None,
):
    t0 = time.perf_counter()
    cfg = GuidanceConfig(mode="deg", gamma=gamma, predictor=predictor)
    rows, diag = aoarm_sample_many(denoiser, cfg, k, rng)
    return rows, _finish(
        arm_name or f"guidance_g{gamma:g}", seed, rows, landscape, reference_rows, t0,
        diag.predictor_evals, gamma=gamma,
        extra={"step_weight_requests": diag.step_weight_requests},
    )


def run_refit_baseline(
    labeled_rows: np.ndarray,
    labels: np.ndarray,
    top_q: float,
    rng,
    landscape: Landscape,
    k: int,
    train_steps: int = 1500,
    reference_rows=None,
    seed=0,
):
    """Fine-tuning analog: re-train the parametric denoiser on the top-q
    fraction of the labeled set (by label value), then sample k unguided."""
    if not 0.0 < top_q <= 1.0:
        raise ValueError("top_q must lie in (0, 1]")
    t0 = time.perf_counter()
    n_keep = max(1, int(math.ceil(top_q * len(labels))))
    order = np.argsort(-labels, kind="stable")[:n_keep]
    subset = labeled_rows[order]
    if subset.shape[0] == 0:
        raise ValueError("curated subset is empty")
    alpha = Alphabet(landscape.S)
    seqs = [TokenSequence(r, alpha) for r in subset]
    model, _ = train_denoiser("FM", seqs, train_steps, rng, batch_size=32)
    rows, _ = aoarm_sample_many(model, GuidanceConfig(), k, rng)
    return rows, _finish(
        f"refit_q{top_q:g}", seed, rows, landscape, reference_rows, t0, 0,
        extra={"n_curated": int(n_keep)},
    )


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

CAMPAIGN_DEFAULTS = {
    "landscape": {
        "D": 8,
        "S": 4,
        "energy_scale": 0.5,
        "coupling_scale": 0.15,
        "fitness_scale": 1.0,
        "fitness_coupling_scale": 0.25,
        "target": {"kind": "quantile", "q": 0.001},
    },
    "n_labeled": 1000,
    "k": 100,
    "n_filter_total": 1000,
    "gammas": [1.0, 10.0],
    "acceptance_gamma": 10.0,
    "refit_qs": [0.02, 0.1],
    "label_top_fraction": 0.2,
    "classifier_epochs": 300,
    "refit_train_steps": 1500,
    "seeds": list(range(10)),
    "require_extrapolative": True,
    # optional oracle-informed upper-bound arm: guidance with the exact
    # marginal predictor of the target indicator instead of the classifier
    "include_exact_arm": False,
    # multi-property mode: two anticorrelated fitness axes, one classifier
    # per axis blended as a product, rectangle target anchored outside the
    # labeled Pareto frontier
    "multi_property": False,
}


def resolve_campaign_config(config: Optional[dict]) -> dict:
    cfg = json.loads(json.dumps(CAMPAIGN_DEFAULTS))
    if config:
        unknown = set(config) - set(CAMPAIGN_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown campaign keys: {sorted(unknown)}")
        for key, value in config.items():
            if key == "landscape":
                cfg["landscape"].update(value)
            else:
                cfg[key] = value
    return cfg


#: The campaign's count keys and the least value each may take.
_CAMPAIGN_COUNTS = {
    "n_labeled": 1,
    "k": 1,
    "n_filter_total": 1,
    "classifier_epochs": 0,
    "refit_train_steps": 0,
}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_campaign_config(cfg: dict) -> None:
    """Raise a ValueError naming the first mistake in a resolved campaign
    config: a count key that is not an integer at or above its least value,
    ``k`` above ``n_filter_total``, ``seeds`` that is not a non-empty list of
    integers, ``gammas`` that is not a list of finite numbers >= 0,
    ``refit_qs`` that is not a list of numbers in (0, 1], or a
    ``label_top_fraction`` outside (0, 1]. run_campaign and the command line call it before any
    work; resolve_campaign_config does not, so a campaign seed's set-up
    stays the merge alone."""
    for key, least in _CAMPAIGN_COUNTS.items():
        value = cfg[key]
        if not _is_int(value) or value < least:
            raise ValueError(f"campaign {key} must be an integer >= {least}, got {value!r}")
    if cfg["k"] > cfg["n_filter_total"]:
        raise ValueError(
            f"campaign k ({cfg['k']}) must not exceed n_filter_total ({cfg['n_filter_total']})"
        )
    seeds = cfg["seeds"]
    if not isinstance(seeds, list) or not seeds or not all(_is_int(s) for s in seeds):
        raise ValueError(f"campaign seeds must be a non-empty list of integers, got {seeds!r}")
    gammas = cfg["gammas"]
    if not isinstance(gammas, list) or not all(_is_real(g) and 0 <= g < math.inf for g in gammas):
        raise ValueError(f"campaign gammas must be a list of finite numbers >= 0, got {gammas!r}")
    qs = cfg["refit_qs"]
    if not isinstance(qs, list) or not all(_is_real(q) and 0 < q <= 1 for q in qs):
        raise ValueError(f"campaign refit_qs must be a list of numbers in (0, 1], got {qs!r}")
    top = cfg["label_top_fraction"]
    if not (_is_real(top) and 0 < top <= 1):
        raise ValueError(f"campaign label_top_fraction must be a number in (0, 1], got {top!r}")


def _anchor_pareto_rectangle(landscape: Landscape, labeled_fvals: np.ndarray,
                             mass_cap: Optional[float]) -> Landscape:
    """Rebuild the landscape with a target rectangle (axis 0 high, axis 1 low)
    whose corner sits strictly outside the labeled Pareto frontier and whose
    p_data mass is positive and at most mass_cap.

    Grid-searches candidate corners over fitness quantiles and picks the
    feasible one with mass closest to half the cap (a rare but reachable
    target region), preferring larger mass when nothing reaches the window.
    """
    cap = mass_cap if mass_cap is not None else 0.02
    f = np.stack(landscape.fitness_tables, axis=1)
    w = landscape.p_data.weights
    a_grid = np.unique(np.quantile(f[:, 0], np.linspace(0.90, 0.99995, 48)))
    b_grid = np.unique(np.quantile(f[:, 1], np.linspace(0.10, 0.00005, 48)))
    m0 = (f[:, 0][:, None] >= a_grid[None, :]).astype(float)  # state x corner
    m1 = (f[:, 1][:, None] <= b_grid[None, :]).astype(float)
    mass = (m0 * w[:, None]).T @ m1  # (na, nb)
    l0 = labeled_fvals[:, 0][:, None] >= a_grid[None, :]
    l1 = labeled_fvals[:, 1][:, None] <= b_grid[None, :]
    inside = l0.astype(int).T @ l1.astype(int)
    feasible = (inside == 0) & (mass > 0.0)
    if not feasible.any():
        raise ValueError(
            "could not anchor a non-empty target rectangle beyond the labeled frontier"
        )
    capped = feasible & (mass <= cap)
    if capped.any():
        score = np.where(capped, np.abs(mass - cap / 2.0), np.inf)
    else:
        # nothing under the cap: take the least-mass feasible corner
        score = np.where(feasible, mass, np.inf)
    i, j = np.unravel_index(int(np.argmin(score)), mass.shape)
    spec = dict(landscape.spec)
    spec["target"] = {
        "kind": "rectangle",
        "bounds": [[float(a_grid[i]), float("inf")], [float("-inf"), float(b_grid[j])]],
    }
    return _build_landscape(spec, landscape.params)


def prepare_campaign_seed(cfg: dict, master: RandomSource, seed: int):
    """Landscape, pretrained denoiser, labeled data, and trained predictor(s)
    for one campaign seed. Labeled points inside the target region are held
    out of every training signal.

    Multi-property mode plants two anticorrelated fitness axes, anchors the
    target rectangle outside the labeled Pareto frontier, trains one
    classifier per axis (axis 0 high, axis 1 low), and blends them as a
    product for guidance; the refit analog curates by combined rank.
    """
    rng = master.substream(seed)
    multi = bool(cfg.get("multi_property", False))
    spec = dict(cfg["landscape"])
    if multi:
        spec["axes"] = max(2, int(spec.get("axes", 2)))
        spec["target"] = {
            "kind": "rectangle",
            "bounds": [[float("-inf"), float("inf")]] * spec["axes"],
        }
    landscape = make_landscape(spec, rng.substream(0))
    extrapolative = cfg.get("require_extrapolative", True)
    table = sequence_table(landscape.D, landscape.S)
    idx = landscape.p_data.sample_indices(cfg["n_labeled"], rng.substream(1))
    rows = table[idx]
    fvals = landscape.fitness_rows(rows)
    if multi:
        landscape = _anchor_pareto_rectangle(
            landscape, fvals, mass_cap=1e-3 if extrapolative else None
        )
    elif extrapolative and landscape.target_mass > 1e-3 * 2.001:
        raise ValueError(
            f"extrapolative campaign needs target mass <= ~1e-3, got {landscape.target_mass}"
        )
    in_target = landscape.target(fvals)
    rows, fvals = rows[~in_target], fvals[~in_target]
    ltf = cfg["label_top_fraction"]
    alpha = Alphabet(landscape.S)
    if multi:
        thr0 = np.quantile(fvals[:, 0], 1.0 - ltf)
        thr1 = np.quantile(fvals[:, 1], ltf)
        pairs0 = [(TokenSequence(r, alpha), bool(v >= thr0)) for r, v in zip(rows, fvals[:, 0])]
        pairs1 = [(TokenSequence(r, alpha), bool(v <= thr1)) for r, v in zip(rows, fvals[:, 1])]
        clf0, _ = train_noisy_classifier(pairs0, rng.substream(2), epochs=cfg["classifier_epochs"])
        clf1, _ = train_noisy_classifier(pairs1, rng.substream(3), epochs=cfg["classifier_epochs"])
        classifier = ProductPredictor([clf0, clf1], landscape.S)
        refit_scores = np.argsort(np.argsort(fvals[:, 0])) - np.argsort(np.argsort(fvals[:, 1]))
    else:
        labels = fvals[:, 0]
        thr = np.quantile(labels, 1.0 - ltf)
        labeled_pairs = [(TokenSequence(r, alpha), bool(v >= thr)) for r, v in zip(rows, labels)]
        classifier, _ = train_noisy_classifier(
            labeled_pairs, rng.substream(2), epochs=cfg["classifier_epochs"]
        )
        refit_scores = labels
    denoiser = ExactDenoiser(landscape.p_data)
    return {
        "landscape": landscape,
        "denoiser": denoiser,
        "classifier": classifier,
        "labeled_rows": rows,
        "labeled_values": fvals[:, 0],
        "refit_scores": np.asarray(refit_scores, dtype=float),
        "rng": rng,
    }


def _target_indicator_predictor(landscape: Landscape, eps: float = 0.01):
    """Oracle-informed upper-bound predictor: exact marginalization of a
    smoothed target-region indicator."""
    fvals = np.stack(landscape.fitness_tables, axis=1)
    ctable = eps + (1.0 - 2.0 * eps) * landscape.target(fvals)
    clean = CleanPredictor.from_table(ctable, landscape.S, name="target_indicator")
    return ExactMarginalPredictor(clean, landscape.p_data)


def run_campaign_seed(cfg: dict, master: RandomSource, seed: int) -> list:
    ctx = prepare_campaign_seed(cfg, master, seed)
    land, den, clf = ctx["landscape"], ctx["denoiser"], ctx["classifier"]
    refs = ctx["labeled_rows"]
    rng = ctx["rng"]
    k = cfg["k"]
    results = []
    _, res = run_unguided(den, land, k, rng.substream(10), refs, seed)
    results.append(res)
    _, res = run_posthoc_filter(
        den, clf, land, cfg["n_filter_total"], k, rng.substream(11), refs, seed
    )
    results.append(res)
    for j, gamma in enumerate(cfg["gammas"]):
        _, res = run_guidance(den, clf, land, k, float(gamma), rng.substream(12 + j), refs, seed)
        results.append(res)
    if cfg.get("include_exact_arm", False):
        gamma = float(cfg["acceptance_gamma"])
        _, res = run_guidance(
            den, _target_indicator_predictor(land), land, k, gamma, rng.substream(18),
            refs, seed, arm_name=f"guidance_exact_g{gamma:g}",
        )
        results.append(res)
    for j, q in enumerate(cfg["refit_qs"]):
        _, res = run_refit_baseline(
            ctx["labeled_rows"], ctx["refit_scores"], float(q), rng.substream(20 + j),
            land, k, cfg["refit_train_steps"], refs, seed,
        )
        results.append(res)
    return results


def run_campaign(config: Optional[dict], master: RandomSource):
    """All arms over all seeds; returns (results, summary), the results
    ordered by (arm, seed)."""
    cfg = resolve_campaign_config(config)
    check_campaign_config(cfg)
    results = [r for s in cfg["seeds"] for r in run_campaign_seed(cfg, master, s)]
    results.sort(key=lambda r: (r.arm, r.seed))
    return results, summarize_campaign(cfg, results)


def summarize_campaign(cfg: dict, results: Sequence[CampaignResult]) -> dict:
    arms: dict = {}
    for r in results:
        arms.setdefault(r.arm, []).append(r)
    summary: dict = {"config": cfg, "arms": {}, "matched": {}}
    for arm, rs in sorted(arms.items()):
        for metric in ("success_rate", "diversity", "novelty", "wall_time"):
            vals = np.array([getattr(r, metric) for r in rs], dtype=float)
            mean = float(np.nanmean(vals))
            if len(vals) > 1:
                half = 1.96 * float(np.nanstd(vals, ddof=1)) / math.sqrt(len(vals))
            else:
                half = float("nan")
            summary["arms"].setdefault(arm, {})[metric] = {
                "mean": mean, "ci_lo": mean - half, "ci_hi": mean + half, "n": len(vals),
            }
    # wall-time matching tags against the guidance arm named by acceptance_gamma
    anchor = f"guidance_g{cfg['acceptance_gamma']:g}"
    if anchor in summary["arms"]:
        t_anchor = summary["arms"][anchor]["wall_time"]["mean"]
        for arm in summary["arms"]:
            if arm == anchor:
                continue
            t_arm = summary["arms"][arm]["wall_time"]["mean"]
            ratio = t_arm / t_anchor if t_anchor > 0 else float("inf")
            summary["matched"][arm] = {"wall_time_ratio": ratio, "matched": 0.5 <= ratio <= 2.0}
    return summary


def write_campaign_csv(results: Sequence[CampaignResult], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CampaignResult.CSV_FIELDS)
        for r in results:
            writer.writerow(r.csv_row())


def write_campaign_timing_csv(results: Sequence[CampaignResult], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arm", "seed", "wall_time"])
        for r in results:
            writer.writerow([r.arm, r.seed, f"{r.wall_time:.6f}"])
