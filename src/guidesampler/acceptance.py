"""The acceptance suite: one runnable check per criterion.

Each check builds its instances from a fixed seed, runs at the stated sample
sizes and tolerances, and returns a CheckResult. ``cmd_verify`` and the
pytest acceptance module both drive this registry.

Note on ``loss_identity``: the check asserts the identity that holds for the
losses as defined in :mod:`guidesampler.denoising`: the permutation-averaged
NLL equals the masking cross-entropy weighted by the unmasking rate
1/(1-t), ``aoarm_loss_exact == rate_weighted_fm_loss_exact``, at 1e-9
(Ou et al. 2024, arXiv 2406.03736). Written per token, the same quantity is
D x E_{m~U{1..D}}[mean cross-entropy over the m masked positions], the ARDM
loss of Hoogeboom et al. 2022 (arXiv 2110.02037). The earlier statement
aoarm_loss == D * fm_loss, with ``fm_loss_exact`` the unweighted
uniform-time cross-entropy, is false: at D=1 on a fair coin aoarm_loss is
ln 2 but D * fm_loss is (1/2) ln 2, and per pattern the two weights differ
by the factor (D+1)/m, so no constant links them. The check still measures
that retired relation's gap and reports it as ``max_claimed_gap``, so the
discrepancy stays visible.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy import integrate, stats

from .bench import run_campaign
from .core import (
    Alphabet,
    MaskedSequence,
    RandomSource,
    TabularDistribution,
    encode_rows,
    identity_schedule,
    sequence_table,
)
from .denoising import (
    ExactDenoiser,
    ParametricDenoiser,
    aoarm_loss_exact,
    fm_loss_exact,
    rate_weighted_fm_loss_exact,
)
from .oracle import (
    EmpiricalDistribution,
    brute_force_posterior,
    chi_square_gof,
    tv_distance,
)
from .predictors import (
    CleanPredictor,
    ExactMarginalPredictor,
    PairwiseInteractionPredictor,
    ProductPredictor,
)
from .sampling import (
    GuidanceConfig,
    aoarm_sample_many,
    euler_sample_many,
    guide_rates,
    lemma1_density,
    sample_jump_times,
)

DEFAULT_SEED = 20250801


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: str
    metrics: dict = field(default_factory=dict)
    duration_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name:22s} {self.details}"


def _gibbs(D, S, rng, scale=0.8):
    gen = rng.generator()
    return TabularDistribution.from_unnormalized(D, S, np.exp(gen.normal(0, scale, S**D)))


def _bounded_clean(D, S, rng, lo=0.05, hi=0.95):
    gen = rng.generator()
    return CleanPredictor.from_table(lo + (hi - lo) * gen.random(S**D), S)


# ---------------------------------------------------------------------------
# criterion 1: posterior exactness
# ---------------------------------------------------------------------------


def check_posterior_exactness(seed: int = DEFAULT_SEED) -> CheckResult:
    t0 = time.perf_counter()
    root = RandomSource(seed, 1)
    D, S, n = 4, 4, 200_000
    p = _gibbs(D, S, root.substream(0))
    clean = _bounded_clean(D, S, root.substream(1))
    pred = ExactMarginalPredictor(clean, p)
    cfg = GuidanceConfig(mode="deg", gamma=1.0, predictor=pred)
    rows, _ = aoarm_sample_many(ExactDenoiser(p), cfg, n, root.substream(2))
    emp = EmpiricalDistribution.from_token_rows(rows, D, S)
    target = brute_force_posterior(p, clean, 1.0)
    tv = tv_distance(emp, target)
    chi = chi_square_gof(emp, target, alpha=0.001)
    elapsed = time.perf_counter() - t0
    passed = tv <= 0.02 and chi.passed and elapsed <= 120.0
    # the elapsed seconds go to verify_diagnostics.json, not into details,
    # so that verify_results.json is byte-reproducible
    return CheckResult(
        "posterior_exactness",
        passed,
        f"TV={tv:.4f} (<=0.02), chi2 p={chi.p_value:.4f} (alpha=0.001), "
        f"runtime {'<=' if elapsed <= 120.0 else '>'}120s",
        {"tv": tv, "chi2_p": chi.p_value, "runtime_s": elapsed},
        elapsed,
    )


# ---------------------------------------------------------------------------
# criterion 2: sampler equivalence
# ---------------------------------------------------------------------------


def check_sampler_equivalence(seed: int = DEFAULT_SEED) -> CheckResult:
    t0 = time.perf_counter()
    root = RandomSource(seed, 2)
    D, S, n = 4, 3, 200_000
    sched = identity_schedule()
    p = _gibbs(D, S, root.substream(0))
    den = ExactDenoiser(p)
    rows_a, _ = aoarm_sample_many(den, GuidanceConfig(), n, root.substream(1))
    rows_e, _ = euler_sample_many(den, GuidanceConfig(), sched, 0.001, n, root.substream(2))
    emp_a = EmpiricalDistribution.from_token_rows(rows_a, D, S)
    emp_e = EmpiricalDistribution.from_token_rows(rows_e, D, S)
    tv_ap = tv_distance(emp_a, p)
    tv_ep = tv_distance(emp_e, p)
    tv_ae = tv_distance(emp_a, emp_e)
    coarse, fine = [], []
    n_dt = 20_000
    for k in range(10):
        r1, _ = euler_sample_many(den, GuidanceConfig(), sched, 0.1, n_dt, root.substream(10 + k))
        r2, _ = euler_sample_many(den, GuidanceConfig(), sched, 0.001, n_dt, root.substream(30 + k))
        coarse.append(tv_distance(EmpiricalDistribution.from_token_rows(r1, D, S), p))
        fine.append(tv_distance(EmpiricalDistribution.from_token_rows(r2, D, S), p))
    mean_coarse, mean_fine = float(np.mean(coarse)), float(np.mean(fine))
    elapsed = time.perf_counter() - t0
    passed = max(tv_ap, tv_ep, tv_ae) <= 0.03 and mean_coarse > mean_fine
    return CheckResult(
        "sampler_equivalence",
        passed,
        f"TV(aoarm,p)={tv_ap:.4f} TV(euler,p)={tv_ep:.4f} TV(aoarm,euler)={tv_ae:.4f} (<=0.03); "
        f"mean TV dt=0.1: {mean_coarse:.4f} > dt=0.001: {mean_fine:.4f} over 10 seeds",
        {
            "tv_aoarm_p": tv_ap, "tv_euler_p": tv_ep, "tv_aoarm_euler": tv_ae,
            "tv_dt_coarse": mean_coarse, "tv_dt_fine": mean_fine,
        },
        elapsed,
    )


# ---------------------------------------------------------------------------
# criterion 3: loss identity (AO-ARM NLL == rate-weighted masking CE;
# the retired aoarm == D*fm gap is reported, not asserted; see module docstring)
# ---------------------------------------------------------------------------


def check_loss_identity(seed: int = DEFAULT_SEED) -> CheckResult:
    t0 = time.perf_counter()
    gen = RandomSource(seed, 3).generator()
    worst_claimed = 0.0
    worst_true = 0.0
    for k in range(20):
        D = int(gen.integers(1, 7 - (k % 3)))  # mix of sizes, all <= 6
        S = int(gen.integers(2, 4))
        p = TabularDistribution.from_unnormalized(D, S, gen.random(S**D) + 0.02)
        if k % 2 == 0:
            den = ExactDenoiser(p)
        else:
            den = ParametricDenoiser.random(D, S, RandomSource(seed, 300 + k), scale=0.5)
        ao = aoarm_loss_exact(den, p)
        fm = fm_loss_exact(den, p)
        rw = rate_weighted_fm_loss_exact(den, p)
        worst_claimed = max(worst_claimed, abs(ao - D * fm))
        worst_true = max(worst_true, abs(ao - rw))
    elapsed = time.perf_counter() - t0
    passed = worst_true <= 1e-9
    return CheckResult(
        "loss_identity",
        passed,
        f"max |aoarm - rate_weighted| = {worst_true:.3e} (required <= 1e-9); the retired "
        f"relation aoarm == D*fm does not hold: max |aoarm - D*fm| = {worst_claimed:.3e}",
        {"max_claimed_gap": worst_claimed, "max_true_identity_gap": worst_true},
        elapsed,
    )


# ---------------------------------------------------------------------------
# criterion 4: jump-time law
# ---------------------------------------------------------------------------


def check_jump_time_law(seed: int = DEFAULT_SEED) -> CheckResult:
    t0 = time.perf_counter()
    root = RandomSource(seed, 4)
    sched = identity_schedule()
    gen = root.substream(0).generator()
    first = sample_jump_times(3, sched, gen, 100_000)[0][:, 0]
    ks = stats.kstest(first, lambda x: 1.0 - (1.0 - x) ** 3)  # Beta(1,3) CDF
    quad_ok = True
    worst_quad = 0.0
    qgen = root.substream(1).generator()
    for i in (1, 2, 3):
        tau_prev = float(qgen.random() * 0.5) if i > 1 else 0.0
        val, _ = integrate.quad(lambda t: lemma1_density(i, t, tau_prev, 3, sched), tau_prev, 1.0, limit=200)
        worst_quad = max(worst_quad, abs(val - 1.0))
        quad_ok &= abs(val - 1.0) <= 1e-6
    pgen = root.substream(2).generator()
    n_perm = 60_000
    _, sigma = sample_jump_times(3, sched, pgen, n_perm)
    # counted in first-seen order, which fixes the summation order of chi2
    counts: dict = {}
    for key in map(tuple, sigma.tolist()):
        counts[key] = counts.get(key, 0) + 1
    expected = n_perm / 6.0
    chi2_stat = sum((c - expected) ** 2 / expected for c in counts.values())
    chi2_p = float(stats.chi2.sf(chi2_stat, 5))
    elapsed = time.perf_counter() - t0
    passed = ks.pvalue > 0.01 and quad_ok and len(counts) == 6 and chi2_p > 0.001
    return CheckResult(
        "jump_time_law",
        passed,
        f"KS vs Beta(1,3) p={ks.pvalue:.4f} (>0.01); density quadrature err={worst_quad:.2e} "
        f"(<=1e-6); permutation chi2 p={chi2_p:.4f} (>0.001)",
        {"ks_p": float(ks.pvalue), "quad_err": worst_quad, "perm_chi2_p": chi2_p},
        elapsed,
    )


# ---------------------------------------------------------------------------
# criterion 5: TAG exactness boundary
# ---------------------------------------------------------------------------


def _single_site_exp_predictor(D, S, rng, scale=0.5):
    gen = rng.generator()
    pred = PairwiseInteractionPredictor(D, S, link="exp")
    pred.single[:] = gen.normal(0, scale, pred.single.shape)
    pred.bias = -float(np.abs(pred.single).max(axis=1).sum()) - 1.0  # scores stay < 0
    return pred


def _pairwise_exp_predictor(D, S, rng, scale=0.35):
    pred = _single_site_exp_predictor(D, S, rng, scale)
    gen = rng.substream(99).generator()
    for d in range(D):
        for e in range(d + 1, D):
            pred.pair[d, e] = gen.normal(0, scale * 0.6, (S + 1, S + 1))
    pred.bias -= float(np.abs(pred.pair).sum())
    return pred


def check_tag_boundary(seed: int = DEFAULT_SEED) -> CheckResult:
    t0 = time.perf_counter()
    root = RandomSource(seed, 5)
    D, S = 4, 3
    sched = identity_schedule()
    p = _gibbs(D, S, root.substream(0))
    den = ExactDenoiser(p)
    alpha = Alphabet(S)

    # (a) single-site affine log-likelihood: TAG == exact to 1e-9 relative
    pred_ss = _single_site_exp_predictor(D, S, root.substream(1))
    gen = root.substream(2).generator()
    worst_rel = 0.0
    for _ in range(25):
        toks = gen.integers(0, S + 1, size=D)
        if not (toks == S).any():
            toks[int(gen.integers(0, D))] = S
        xt = MaskedSequence(toks, alpha)
        t = float(gen.random() * 0.8)
        ex = guide_rates(den, xt, t, sched, GuidanceConfig(mode="exact", gamma=1.7, predictor=pred_ss))
        tg = guide_rates(den, xt, t, sched, GuidanceConfig(mode="tag", gamma=1.7, predictor=pred_ss))
        # relative gap where the exact rate is positive, absolute where zero
        rel = np.abs(tg - ex) / np.where(ex == 0.0, 1.0, ex)
        worst_rel = max(worst_rel, float(rel.max()))

    # (b) pairwise predictor: TAG-DEG degradation factor vs exact-DEG
    pred_pw = _pairwise_exp_predictor(D, S, root.substream(3))
    clean_table = pred_pw.likelihood_array(sequence_table(D, S))
    clean = CleanPredictor.from_table(clean_table, S)
    target = brute_force_posterior(p, clean, 1.0)
    n = 100_000
    rows_ex, _ = aoarm_sample_many(
        den, GuidanceConfig(mode="deg", gamma=1.0, predictor=pred_pw), n, root.substream(4)
    )
    rows_tg, _ = aoarm_sample_many(
        den, GuidanceConfig(mode="tag", gamma=1.0, predictor=pred_pw), n, root.substream(5)
    )
    tv_ex = tv_distance(EmpiricalDistribution.from_token_rows(rows_ex, D, S), target)
    tv_tg = tv_distance(EmpiricalDistribution.from_token_rows(rows_tg, D, S), target)
    elapsed = time.perf_counter() - t0
    passed = worst_rel <= 1e-9 and tv_tg <= 3.0 * tv_ex
    return CheckResult(
        "tag_boundary",
        passed,
        f"single-site TAG vs exact rel err={worst_rel:.2e} (<=1e-9); pairwise TAG-DEG "
        f"TV={tv_tg:.4f} vs exact-DEG TV={tv_ex:.4f} (factor {tv_tg / max(tv_ex, 1e-12):.2f} <= 3)",
        {"tag_rel_err": worst_rel, "tv_tag": tv_tg, "tv_exact": tv_ex},
        elapsed,
    )


# ---------------------------------------------------------------------------
# criterion 6: multi-property Bayes product
# ---------------------------------------------------------------------------


def check_multi_property(seed: int = DEFAULT_SEED) -> CheckResult:
    t0 = time.perf_counter()
    root = RandomSource(seed, 6)
    D, S, n = 4, 3, 200_000
    # two independent position blocks with internal couplings, so the
    # conditional-independence product is exact and the bound tests sampling
    gen = root.substream(0).generator()
    wa = np.exp(gen.normal(0, 0.8, S * S))
    wb = np.exp(gen.normal(0, 0.8, S * S))
    table = sequence_table(D, S)
    code_a = table[:, 0] + S * table[:, 1]
    code_b = table[:, 2] + S * table[:, 3]
    p = TabularDistribution.from_unnormalized(D, S, wa[code_a] * wb[code_b])

    ta = 0.05 + 0.9 * gen.random(S * S)
    tb = 0.05 + 0.9 * gen.random(S * S)
    c1 = CleanPredictor(
        lambda x: float(ta[x.tokens[0] + S * x.tokens[1]]),
        batch_fn=lambda rows: ta[rows[:, 0] + S * rows[:, 1]],
    )
    c2 = CleanPredictor(
        lambda x: float(tb[x.tokens[2] + S * x.tokens[3]]),
        batch_fn=lambda rows: tb[rows[:, 2] + S * rows[:, 3]],
    )
    joint_clean = CleanPredictor(
        lambda x: c1.likelihood(x) * c2.likelihood(x),
        batch_fn=lambda rows: ta[rows[:, 0] + S * rows[:, 1]] * tb[rows[:, 2] + S * rows[:, 3]],
    )
    pred = ProductPredictor([ExactMarginalPredictor(c1, p), ExactMarginalPredictor(c2, p)], S)
    cfg = GuidanceConfig(mode="deg", gamma=1.0, predictor=pred)
    rows, _ = aoarm_sample_many(ExactDenoiser(p), cfg, n, root.substream(1))
    emp = EmpiricalDistribution.from_token_rows(rows, D, S)
    target = brute_force_posterior(p, joint_clean, 1.0)
    tv = tv_distance(emp, target)
    elapsed = time.perf_counter() - t0
    return CheckResult(
        "multi_property",
        tv <= 0.02,
        f"TV to brute-force joint posterior = {tv:.4f} (<=0.02, N={n})",
        {"tv": tv},
        elapsed,
    )


# ---------------------------------------------------------------------------
# criterion 7: gamma limits
# ---------------------------------------------------------------------------


def check_gamma_limits(seed: int = DEFAULT_SEED) -> CheckResult:
    t0 = time.perf_counter()
    root = RandomSource(seed, 7)
    D, S = 4, 3
    p = _gibbs(D, S, root.substream(0))
    den = ExactDenoiser(p)
    clean = _bounded_clean(D, S, root.substream(1))
    clean_table = clean.table(D, S)
    pred = ExactMarginalPredictor(clean, p)

    rows0, _ = aoarm_sample_many(
        den, GuidanceConfig(mode="deg", gamma=0.0, predictor=pred), 100_000, root.substream(2)
    )
    chi = chi_square_gof(EmpiricalDistribution.from_token_rows(rows0, D, S), p, alpha=0.001)

    n = 5000
    means, stds = [], []
    for j, gamma in enumerate((1.0, 10.0)):
        rows, _ = aoarm_sample_many(
            den, GuidanceConfig(mode="deg", gamma=gamma, predictor=pred), n, root.substream(3 + j)
        )
        vals = clean_table[encode_rows(rows, S)]
        means.append(float(vals.mean()))
        stds.append(float(vals.std(ddof=1)))
    z = (means[1] - means[0]) / math.sqrt(stds[0] ** 2 / n + stds[1] ** 2 / n)
    p_one_sided = float(stats.norm.sf(z))
    elapsed = time.perf_counter() - t0
    passed = chi.passed and p_one_sided < 0.01
    return CheckResult(
        "gamma_limits",
        passed,
        f"gamma=0 chi2 p={chi.p_value:.4f} (>0.001); mean predictor value "
        f"gamma=10: {means[1]:.4f} > gamma=1: {means[0]:.4f} (one-sided p={p_one_sided:.2e} < 0.01)",
        {"chi2_p_gamma0": chi.p_value, "mean_g1": means[0], "mean_g10": means[1],
         "one_sided_p": p_one_sided},
        elapsed,
    )


# ---------------------------------------------------------------------------
# criterion 8: campaign property
# ---------------------------------------------------------------------------


def check_campaign(seed: int = DEFAULT_SEED) -> CheckResult:
    t0 = time.perf_counter()
    results, summary = run_campaign(None, RandomSource(seed, 8))
    arms = summary["arms"]
    anchor = f"guidance_g{summary['config']['acceptance_gamma']:g}"
    s_guid = arms[anchor]["success_rate"]["mean"]
    s_filt = arms["filter"]["success_rate"]["mean"]
    d_guid = arms[anchor]["diversity"]["mean"]
    d_ung = arms["unguided"]["diversity"]["mean"]
    elapsed = time.perf_counter() - t0
    passed = s_guid >= s_filt and d_guid >= 0.5 * d_ung and elapsed <= 600.0
    return CheckResult(
        "campaign",
        passed,
        f"guidance success {s_guid:.3f} >= filter {s_filt:.3f}; guided diversity "
        f"{d_guid:.2f} >= 0.5*unguided {0.5 * d_ung:.2f}; "
        f"runtime {'<=' if elapsed <= 600.0 else '>'}600s",
        {
            "success_guidance": s_guid, "success_filter": s_filt,
            "diversity_guided": d_guid, "diversity_unguided": d_ung,
            "runtime_s": elapsed,
            "wall_time_matched": summary["matched"],
        },
        elapsed,
    )


# ---------------------------------------------------------------------------
# criterion 9: determinism
# ---------------------------------------------------------------------------


def check_determinism(seed: int = DEFAULT_SEED) -> CheckResult:
    t0 = time.perf_counter()
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        model = tmp / "model.json"
        p = _gibbs(3, 3, RandomSource(seed, 90))
        model.write_text(json.dumps({"kind": "tabular", **p.to_json()}))
        outs = []
        for run in ("s1", "s2"):
            out = tmp / run
            cmd = [
                sys.executable, "-m", "guidesampler", "sample",
                "--model", str(model), "--n", "10", "--seed", str(seed),
                "--out", str(out),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                return CheckResult(
                    "determinism", False,
                    f"cmd_sample failed rc={proc.returncode}: {proc.stderr[-300:]}",
                    {}, time.perf_counter() - t0,
                )
            outs.append(out)
        # primary outputs only: the resolved-config copy embeds the (distinct)
        # output directory by design and is metadata, not a sample artifact
        for name in ("samples.txt", "paths.jsonl"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            if a != b:
                mismatches.append(f"sample:{name}")
        vouts = []
        for run in ("v1", "v2"):
            out = tmp / run
            cmd = [
                sys.executable, "-m", "guidesampler", "verify",
                "--only", "jump_time_law", "--seed", str(seed), "--out", str(out),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                return CheckResult(
                    "determinism", False,
                    f"cmd_verify failed rc={proc.returncode}: {proc.stderr[-300:]}",
                    {}, time.perf_counter() - t0,
                )
            vouts.append(out)
        if (vouts[0] / "verify_results.json").read_bytes() != (vouts[1] / "verify_results.json").read_bytes():
            mismatches.append("verify:verify_results.json")
    elapsed = time.perf_counter() - t0
    return CheckResult(
        "determinism",
        not mismatches,
        "byte-identical across two runs of cmd_sample and cmd_verify"
        if not mismatches
        else f"mismatched artifacts: {mismatches}",
        {"mismatches": mismatches},
        elapsed,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

ACCEPTANCE_CHECKS = {
    "posterior_exactness": check_posterior_exactness,
    "sampler_equivalence": check_sampler_equivalence,
    "loss_identity": check_loss_identity,
    "jump_time_law": check_jump_time_law,
    "tag_boundary": check_tag_boundary,
    "multi_property": check_multi_property,
    "gamma_limits": check_gamma_limits,
    "campaign": check_campaign,
    "determinism": check_determinism,
}


def run_checks(names: Optional[Sequence[str]] = None, seed: int = DEFAULT_SEED) -> list:
    selected = list(ACCEPTANCE_CHECKS) if not names else list(names)
    unknown = [n for n in selected if n not in ACCEPTANCE_CHECKS]
    if unknown:
        raise KeyError(f"unknown acceptance checks: {unknown}; known: {list(ACCEPTANCE_CHECKS)}")
    return [ACCEPTANCE_CHECKS[n](seed) for n in selected]
