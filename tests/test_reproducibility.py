"""Byte reproducibility of the primary outputs at fixed seeds.

Each case runs one sampler (route x guidance mode x {single, many}, on a
small tabular and a small parametric model) or one ``guidesampler sample``
call, and hashes what it returns: the token rows, the decode path and the
diagnostics counts, or ``samples.txt`` and ``paths.jsonl``. Training cases
hash the trained weights and the returned loss of ``train_denoiser`` and
``train_noisy_classifier``, and one reduced campaign seed hashes its
``campaign.csv`` rows. Switch cases run the batched Euler sampler at several
guidance switch points and step sizes, and hash its rows, paths and step
counts. The digests are pinned, so a change that moves a
sampled token, a path, a model-call count, a trained weight or RNG
consumption fails here. A change that means to move them updates
``PINNED`` and says why. To print the digests of the current tree, or
only the cases whose digest differs from ``PINNED``:

    PYTHONPATH=src python tests/test_reproducibility.py
    PYTHONPATH=src python tests/test_reproducibility.py --diff
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from guidesampler.bench import resolve_campaign_config, run_campaign_seed
from guidesampler.cli import main
from guidesampler.core import RandomSource, TabularDistribution
from guidesampler.denoising import ExactDenoiser, ParametricDenoiser, train_denoiser
from guidesampler.oracle import brute_force_posterior
from guidesampler.predictors import (
    CleanPredictor,
    ExactMarginalPredictor,
    PairwiseInteractionPredictor,
    ProductPredictor,
    train_noisy_classifier,
)
from guidesampler.sampling import (
    GuidanceConfig,
    aoarm_sample,
    aoarm_sample_many,
    euler_sample,
    euler_sample_many,
)

ROUTE_MODES = {
    "aoarm": ("none", "deg", "tag", "predictor_free"),
    "euler": ("none", "exact", "tag", "predictor_free"),
}
COUNTS = ("n_steps", "overflow_renormalizations", "denoiser_evals", "predictor_evals",
          "step_weight_requests")
DT = 0.05
N_MANY = 40


def pairwise_predictor(D, S, seed):
    gen = RandomSource(seed).generator()
    return PairwiseInteractionPredictor(
        D, S, link="logistic", bias=float(gen.normal(0, 0.5)),
        single=gen.normal(0, 0.8, (D, S + 1)),
        pairwise=np.triu(np.ones((D, D)), 1)[:, :, None, None]
        * gen.normal(0, 0.4, (D, D, S + 1, S + 1)),
    )


def tabular_models():
    """D=4, S=3: exact denoiser, exact marginal predictor, pairwise predictor
    for tag and the exact tilted posterior as the second denoiser."""
    gen = RandomSource(101).generator()
    p = TabularDistribution.from_unnormalized(4, 3, np.exp(gen.normal(0, 0.8, 81)))
    table = 0.05 + 0.9 * gen.random(81)
    clean = CleanPredictor(lambda x: float(table[int(x @ 3 ** np.arange(4))]))
    return {
        "denoiser": ExactDenoiser(p),
        "likelihood": ExactMarginalPredictor(clean, p),
        "gradient": pairwise_predictor(4, 3, 102),
        "second": ExactDenoiser(brute_force_posterior(p, clean, 1.0)),
    }


def parametric_models():
    """D=6, S=5: parametric denoisers and one pairwise predictor."""
    pred = pairwise_predictor(6, 5, 202)
    return {
        "denoiser": ParametricDenoiser.random(6, 5, RandomSource(201), scale=0.5),
        "likelihood": pred,
        "gradient": pred,
        "second": ParametricDenoiser.random(6, 5, RandomSource(203), scale=0.5),
    }


def product_models():
    """D=6, S=4: a parametric denoiser and a product of three pairwise
    predictors."""
    parts = [pairwise_predictor(6, 4, seed) for seed in (501, 502, 503)]
    pred = ProductPredictor(parts)
    return {
        "denoiser": ParametricDenoiser.random(6, 4, RandomSource(504), scale=0.5),
        "likelihood": pred,
        "gradient": pred,
    }


MODELS = {"tabular": tabular_models, "parametric": parametric_models, "product": product_models}
PRODUCT_MODES = {"aoarm": ("deg", "tag"), "euler": ("exact", "tag")}


def guidance(models, mode):
    if mode == "none":
        return GuidanceConfig()
    if mode == "predictor_free":
        return GuidanceConfig(mode=mode, gamma=1.5, second_denoiser=models["second"])
    key = "gradient" if mode == "tag" else "likelihood"
    return GuidanceConfig(mode=mode, gamma=1.5, predictor=models[key])


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def counts(diag) -> bytes:
    return json.dumps([getattr(diag, f) for f in COUNTS]).encode()


def sampler_digest(model, route, mode, kind) -> str:
    models = MODELS[model]()
    den, cfg = models["denoiser"], guidance(models, mode)
    rng = RandomSource(7)
    if kind == "many":
        if route == "aoarm":
            rows, diag = aoarm_sample_many(den, cfg, N_MANY, rng)
        else:
            rows, diag = euler_sample_many(den, cfg, DT, N_MANY, rng)
        return sha(np.ascontiguousarray(rows, dtype=np.int64).tobytes(), counts(diag))
    if route == "aoarm":
        x, path, diag = aoarm_sample(den, cfg, rng)
    else:
        x, path, diag = euler_sample(den, cfg, DT, rng)
    path_json = json.dumps(path.to_json(), sort_keys=True).encode()
    return sha(x.tobytes(), path_json, counts(diag))


def switch_digest(model, mode, t0) -> str:
    """Rows, decode paths, ``n_steps`` and overflow counts of
    ``euler_sample_many`` with guidance switched on at ``t0``, at each dt of
    ``EULER_DTS``. The model-call counts are left out: they describe the
    kernel calls, and these digests pin what a run samples."""
    models = MODELS[model]()
    cfg = guidance(models, mode)
    cfg = GuidanceConfig(mode=cfg.mode, gamma=cfg.gamma, predictor=cfg.predictor,
                         second_denoiser=cfg.second_denoiser, t0=float(t0))
    parts = []
    for dt in EULER_DTS:
        rows, paths, diag = euler_sample_many(models["denoiser"], cfg, dt,
                                              N_MANY, RandomSource(7), paths=True)
        parts.append(np.ascontiguousarray(rows, dtype=np.int64).tobytes())
        parts.append(json.dumps([p.to_json() for p in paths], sort_keys=True).encode())
        parts.append(json.dumps([diag.n_steps, diag.overflow_renormalizations]).encode())
    return sha(*parts)


def cli_digest(route, workdir: Path) -> str:
    """``guidesampler sample`` on the parametric model with paths recorded."""
    models = parametric_models()
    (workdir / "model.json").write_text(
        json.dumps({"kind": "parametric", **models["denoiser"].to_json()})
    )
    (workdir / "pred.json").write_text(json.dumps(models["likelihood"].to_json()))
    mode = "deg" if route == "aoarm" else "exact"
    out = workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([
            "sample", "--model", str(workdir / "model.json"),
            "--predictor", str(workdir / "pred.json"), "--route", route, "--mode", mode,
            "--gamma", "1.5", "--dt", str(DT), "--n", "6", "--seed", "11", "--out", str(out),
        ])
    assert rc == 0
    return sha((out / "samples.txt").read_bytes(), (out / "paths.jsonl").read_bytes())


def training_data(D, S, n, seed):
    return RandomSource(seed).generator().integers(0, S, (n, D))


def denoiser_digest(variant, D) -> str:
    """``train_denoiser`` at S=3 with a batch size that divides nothing,
    drawing its batches uniformly."""
    data = training_data(int(D[1:]), 3, 23, 301)
    model, loss = train_denoiser(variant, data, 3, 40, RandomSource(303), lr=0.3, batch_size=17)
    return sha(model.single.tobytes(), model.pair.tobytes(), np.float64(loss).tobytes())


def classifier_digest(D) -> str:
    """``train_noisy_classifier`` at S=3, trained once on noised data; the
    label depends on two positions."""
    data = training_data(int(D[1:]), 3, 30, 401)
    labels = data[:, 0] + data[:, -1] >= 2
    model, loss = train_noisy_classifier(data, labels, 3, RandomSource(402), epochs=25)
    return sha(
        np.float64(model.bias).tobytes(), model.single.tobytes(), model.pair.tobytes(),
        np.float64(loss).tobytes(),
    )


def campaign_digest(seed) -> str:
    """One campaign seed at reduced sizes: its ``campaign.csv`` rows."""
    cfg = resolve_campaign_config({
        "n_labeled": 400, "k": 30, "n_filter_total": 200,
        "classifier_epochs": 20, "refit_train_steps": 60,
    })
    results = run_campaign_seed(cfg, RandomSource(2025), int(seed))
    return sha(json.dumps([r.csv_row() for r in results]).encode())


SAMPLER_CASES = [
    f"{model}/{route}/{mode}/{kind}"
    for model, route_modes in (("tabular", ROUTE_MODES), ("parametric", ROUTE_MODES),
                               ("product", PRODUCT_MODES))
    for route, modes in route_modes.items()
    for mode in modes
    for kind in ("single", "many")
]
CLI_CASES = ["cli/aoarm/deg", "cli/euler/exact"]
TRAIN_CASES = [
    f"denoiser/{variant}/uniform/D{D}"
    for variant in ("FM", "AOARM")
    for D in (1, 4)
] + [f"classifier/D{D}/one_stage" for D in (1, 5)]
CAMPAIGN_CASES = ["campaign/3"]
#: Euler switch points: from the start, mid-run, and two late points that
#: the 1 - dt horizon of some step in EULER_DTS reaches, so guidance turns
#: on at the horizon or not at all
SWITCH_T0S = ("0.0", "0.5", "0.93", "0.97")
EULER_DTS = (0.1, 0.05, 0.03)
SWITCH_CASES = [
    f"switch/{model}/{mode}/{t0}"
    for model, modes in (("tabular", ROUTE_MODES["euler"][1:]),
                         ("parametric", ROUTE_MODES["euler"][1:]),
                         ("product", PRODUCT_MODES["euler"]))
    for mode in modes
    for t0 in SWITCH_T0S
]
CASES = SAMPLER_CASES + CLI_CASES + TRAIN_CASES + CAMPAIGN_CASES + SWITCH_CASES

#: the batched-sampler digests were computed on the tree before the batched
#: child scoring, whose outputs it keeps. The batched Euler digests were
#: re-pinned when the Euler core stopped memoizing pair tables across steps:
#: their rows, denoiser_evals and predictor_evals held, and only
#: step_weight_requests (rows formed, now per kernel call) grew. The Euler
#: digests whose counts moved were re-pinned again when the model-call counts
#: became sums over kernel calls and the horizon reused the CDF rows the
#: guided core holds: rows and paths held, denoiser_evals and predictor_evals
#: grew and step_weight_requests fell or held. Every Euler digest (the
#: */euler/* cases, cli/euler/exact and the switch cases) was re-pinned when
#: the Euler core became event-driven: it draws one survival threshold per
#: pair and round instead of one Bernoulli per pair and step, so RNG use
#: moved, and the model-call counts became sums over rounds
PINNED = {
    "tabular/aoarm/none/many": "a40eca8bef70e70f1d212517adf1a7afabb9b385f078f99af11d9c265618e4e3",
    "tabular/aoarm/deg/many": "0cb3ccf315debac13746dd9166427120a0e9a05c1af3d6c9bd07a33bef6dc3ac",
    "tabular/aoarm/tag/many": "372af3ccb074a6b17aefbf4a38c9ddb2ebcc1cde9dbd51a0f1a17c31308d8907",
    "tabular/aoarm/predictor_free/many": "49ad3046d0c3bc9d0c12d942ed3dc1b8e3c126df27ae1e740c07c8fd661e4920",
    "tabular/euler/none/many": "9902a9230e954cfe7399a73c6cb584713b0750b65154e6cac39a33e8f9ea6e12",
    "tabular/euler/exact/many": "feac8e50ebf21bd6ee39ae4c208057fa56db5ba8e2cec700b260b4037fc8fdfa",
    "tabular/euler/tag/many": "a4ea2f4d99e65e6666737fc94e502662b8b3d075dea9db24a194f691f2772c83",
    "tabular/euler/predictor_free/many": "791156bb6376ce141d032efb907b94dff4c66b2e969bd9744dc9402618065545",
    "parametric/aoarm/none/many": "524879ef9ad197f5c0b278b8b95d04439b02932b34b35ce5d147184597502f4b",
    "parametric/aoarm/deg/many": "5face5cb1297a95de48f6c68f9b7931ba1ca5b8aaf3e061952989f7d2773ba4b",
    "parametric/aoarm/tag/many": "4c87993650377b4f2e06cb03327cecb863502cb3201b23ef08c045c5a2c8af57",
    "parametric/aoarm/predictor_free/many": "5901676241ad013e3d46837f769210b6d5de44dae01c1b5a03eec78e2fe11987",
    "parametric/euler/none/many": "23eeb71d29af26ac5a25ebb12776b029fb07534d33921932df06a166bfbd7c7f",
    "parametric/euler/exact/many": "5c267a1d4bc1bdb940008ee5087e70eb6e154ced7dcaf81090a3984bf43970b6",
    "parametric/euler/tag/many": "f6e609ffcee9306c6c8067e19b96944d5d8c15cb97386437daabc88573b45f8a",
    "parametric/euler/predictor_free/many": "5caf224a6473374a48ad22387fb74c7b4612abaee92a8a9d574aa4fc95c16b07",
    # re-pinned when single chains and `guidesampler sample` became calls of the
    # batched drivers, which moved RNG order: permutation(D) became
    # argsort(random((1, D))), per-position Euler draws became vector draws, and
    # the CLI's per-chain substreams became one stream for all chains
    "tabular/aoarm/none/single": "31c2660747a6b270c443343d4ef869640e8eb52c36f892ca55e0984ef200052c",
    "tabular/aoarm/deg/single": "68bd513726715a4acbc8a4623ba24c4d39936b04c74abfe08c72080d074dae29",
    "tabular/aoarm/tag/single": "062beabdfd924439e59384d3348b9092b800f50dc67834a1dfa4059414fefedc",
    "tabular/aoarm/predictor_free/single": "6717bf0e9082200d5889f01747e2fb298a1c0d170550500e11345928f136678b",
    "tabular/euler/none/single": "f759e764baebefa5d3bdac3fa09aaa7eba07d37ab61ccd83b9e38c65b4724d33",
    "tabular/euler/exact/single": "f3f37a0440e21c477d9976975cb757287481a2675f4691c5281d3d1fa4ef3f57",
    "tabular/euler/tag/single": "e14b85401ac59a68cb5c7f9220dc8c46d8768e67895d38ee5a9f926de6007fc1",
    "tabular/euler/predictor_free/single": "68265c97465e71600fa186346fe0ee7152bb4fd299171f3472a98a92e3fca29b",
    "parametric/aoarm/none/single": "716179e0ef746304542fa6e21386f8032d8083ae0124121d7a2f97e5bd4d6078",
    "parametric/aoarm/deg/single": "a01201171121bc7007fd50d74d4c52b3cb742d3fa199a8cf97b7d1d1c2de0b9e",
    "parametric/aoarm/tag/single": "c48d106703e003911f33021b8beeb581ef3cb0d47f5d380d512d619b1bd3e8d6",
    "parametric/aoarm/predictor_free/single": "f792ab89eb3fd304afafc76f7d98bf24de6d65028d5d74cb746b9bc09ae20e0b",
    "parametric/euler/none/single": "45a8e4e683a3f92e4c700048d849b628d8b071ff9f0f1c9ea6d2f57a7f04fa9e",
    "parametric/euler/exact/single": "19722d647ea11fd4095d2e84983718b811d9a4280217ed13e7832257e5586877",
    "parametric/euler/tag/single": "95e1ef2d6f6921fca6e40ef73d26cc7a7803343097538efb30f23317807dc27a",
    "parametric/euler/predictor_free/single": "82ac1268b36f3107d5d2494fa4e562bb903df31d5eaf76351a35c8a5edf947b7",
    # re-pinned when the product stopped staging its parts: every part answers
    # every row. The staged product's code gives these with no switch fractions
    "product/aoarm/deg/single": "4710d10abcd4bb27267672686c50f27274120122c69025cb61af51e93fceab0c",
    "product/aoarm/deg/many": "ee4cbd8611203924ed0e1df739df1d941da0ee5ff59eaec1409fd4851ca7649d",
    "product/aoarm/tag/single": "e29b7bc34b82da3a20722c41cf490a7411da75339f000334c893647f3af885d0",
    "product/aoarm/tag/many": "55cee07b90e0cc6df908ddcefe493b856e2b0ea54e44e9cd9add9886a5c055f4",
    "product/euler/exact/single": "d72399f2abfe5984bfeba8e80ae5c61bfab4368fb6ce793d2a3d7a173a11f1ac",
    "product/euler/exact/many": "d29f25ed9997b6f170dbdf33f258f257acbc924519e370ab4e2e3400a5a0aa5a",
    "product/euler/tag/single": "82a94ee747e8a87439b5b87967a075036a3b69982366eb3372f5d99e35d44063",
    "product/euler/tag/many": "a57ea248879dd919b1630b5ea8198dba3b7ce1a732d90223141d6dd36b0d7091",
    "cli/aoarm/deg": "4b58e922e7196c4c1ceaeee6978b330418aab2e3e7988a60bbaa7da2cc28a792",
    "cli/euler/exact": "d80bceb7a02cc4b77e625d4959d2b328c7c49d4800db7836d8c84a92db65ab32",
    # computed on the tree before the bincount trainer updates, whose weights it keeps
    "denoiser/FM/uniform/D1": "dbd85ef3938b441f922f3619608aef3160b3d0e8e8d7200123dd48f2a730586d",
    "denoiser/FM/uniform/D4": "a416a020da56c20705ff840bbe4f5f52534cc30ecac04ba92f8b1d856c72d521",
    "denoiser/AOARM/uniform/D1": "3a752d782ccf384c7260a0ae5369eb55fc1e4dc1a8e54472b56b8c296fae50d4",
    "denoiser/AOARM/uniform/D4": "4802b3d925225f44a88d28ddffeb4427e1165f1e3989c63427b6118b43bdb967",
    "classifier/D1/one_stage": "a751f1182c767956e47dda18ee3c424dc512b80a31c018fe126ebc0a9ea62312",
    "classifier/D5/one_stage": "600799c4e7ca885ed7d3252180105b094697cfecacdd01d634755c1324926b58",
    "campaign/3": "37fa99dc82d60e1f79d31fe271c1148a7ac1f5ca110ebf59152ce76aa4446936",
    "switch/tabular/exact/0.0": "fd338bebda49f1eb862b447f1e9d87b44ab0f083281bce35e26d0f4f11ff8456",
    "switch/tabular/exact/0.5": "fadf588e753f5e26d602115960e4177a0e3a201356b55c9d0a4cd609ff61b299",
    "switch/tabular/exact/0.93": "e8aa086b4cabb56731c0e63dc9752e48828b5e54e8c29847d2da9ecb78915aee",
    "switch/tabular/exact/0.97": "ce769e636e837dd71cb819805d99f0cf94047cb935c9749d715a6439a64610f9",
    "switch/tabular/tag/0.0": "b1a4f9c02a3044ad9dc76b61c90b9e75db36c4a3e3041960fbba043982b0f25e",
    "switch/tabular/tag/0.5": "4d50db4acdc167f34e10b657921548a9071f649ac5d3839a2f91d9d2113d319f",
    "switch/tabular/tag/0.93": "9b5ae95f6f18b19fd958ee95d306b8ef74af215e433d65b353e6953975157f1c",
    "switch/tabular/tag/0.97": "84ea89ace2e6661c4e00aacd6834b85cf9b6c46e2ac83a1814df767f92135d2f",
    "switch/tabular/predictor_free/0.0": "fd338bebda49f1eb862b447f1e9d87b44ab0f083281bce35e26d0f4f11ff8456",
    "switch/tabular/predictor_free/0.5": "fadf588e753f5e26d602115960e4177a0e3a201356b55c9d0a4cd609ff61b299",
    "switch/tabular/predictor_free/0.93": "e8aa086b4cabb56731c0e63dc9752e48828b5e54e8c29847d2da9ecb78915aee",
    "switch/tabular/predictor_free/0.97": "ce769e636e837dd71cb819805d99f0cf94047cb935c9749d715a6439a64610f9",
    "switch/parametric/exact/0.0": "f6dfd791807650404dd823a73d1b3b9684b73aec14c026c78011ff5c5bb0625a",
    "switch/parametric/exact/0.5": "a161da7e91ee46e9f9db52fd2a6984f69fd72bfa512f6cce26aa1ca770673ed6",
    "switch/parametric/exact/0.93": "cdf7389aff389ed2adec1873d91c28ba3166fac78da1376a682778b25a22739c",
    "switch/parametric/exact/0.97": "19ff93fc155481c05df422e440d0e47eafe5f7a0df3a8760a143512c43d3f687",
    "switch/parametric/tag/0.0": "a399378f7d4f4c3920b680e3d90dd57e83ee556dc88d2fc553bf37da049d55ee",
    "switch/parametric/tag/0.5": "c7263080e73b2430bf0d25170a292f7a27347043033fbe8fecb4b042ab3b347d",
    "switch/parametric/tag/0.93": "b1afb9f239d482b34b1aebbd36cbd26e514135aeaf03117bf2fad388b88780da",
    "switch/parametric/tag/0.97": "c43a5c8bd53cf308386e40c50ce62e5b68a3bf888fd52de874b71eeb2ce989ac",
    "switch/parametric/predictor_free/0.0": "7e7f46bd7e27e86af3c92f1524b81b4e459fa1a717b956f0eb59a2a86f4f106d",
    "switch/parametric/predictor_free/0.5": "e705254687bc771c59f0c2181a3813e578179a9d4bdb2de664aba3fd1e92d3c2",
    "switch/parametric/predictor_free/0.93": "8c1790d511e29cf9f386de867cbb1ce4d68f6e0faaa5f2ad312d1a6fd859092b",
    "switch/parametric/predictor_free/0.97": "57295cca9cfe93e01232c023045b10a9f111fe712b287609186dc936a5d41a64",
    "switch/product/exact/0.0": "d7564da1f9eac13f4751868db37a12564beb9075c9e842949dd1371775deb78c",
    "switch/product/exact/0.5": "54fad6500d817856e6e96394eb9bbdffc36aa3f864dde2584cedb05ae5a99aa1",
    "switch/product/exact/0.93": "2b8a689e42eaf235881cc0ba7ae7de275fee1946bd98d536b20d9d86c3ad2b5b",
    "switch/product/exact/0.97": "592339441f1ae1e98343e752c6b0b442f32024f6bbbfbc627089d76d2ec8a36a",
    "switch/product/tag/0.0": "07ea3ec0a75a073dd69c24662e91049607550b26210f0865fe7456a52ebe43ff",
    "switch/product/tag/0.5": "e9625f85d90879945235821a583096fa13a787ceb0efd3edc3bdbc7c3ef3c130",
    "switch/product/tag/0.93": "68cfd39f3a0592d0265e25c0d90ab19c39fd6ac52d76013cd23ef560bcbfe78c",
    "switch/product/tag/0.97": "592339441f1ae1e98343e752c6b0b442f32024f6bbbfbc627089d76d2ec8a36a",
}


def digest_of(case: str, workdir: Path) -> str:
    parts = case.split("/")
    if parts[0] == "cli":
        return cli_digest(parts[1], workdir)
    if parts[0] == "denoiser":
        return denoiser_digest(parts[1], parts[3])
    if parts[0] == "classifier":
        return classifier_digest(parts[1])
    if parts[0] == "campaign":
        return campaign_digest(parts[1])
    if parts[0] == "switch":
        return switch_digest(*parts[1:])
    return sampler_digest(*parts)


@pytest.mark.parametrize("case", CASES)
def test_digest_pinned(case, tmp_path):
    assert digest_of(case, tmp_path) == PINNED[case]


def test_every_case_pinned():
    assert sorted(PINNED) == sorted(CASES)


if __name__ == "__main__":
    only_diff = sys.argv[1:] == ["--diff"]
    if sys.argv[1:] and not only_diff:
        sys.exit("usage: test_reproducibility.py [--diff]")
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            work = Path(tmp) / case.replace("/", "_")
            work.mkdir()
            digest = digest_of(case, work)
            if not only_diff:
                sys.stdout.write(f'    "{case}": "{digest}",\n')
            elif digest != PINNED.get(case):
                sys.stdout.write(f"{case}\n  pinned  {PINNED.get(case)}\n  current {digest}\n")
