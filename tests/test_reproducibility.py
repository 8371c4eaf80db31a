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
#: grew and step_weight_requests fell or held. The switch digests were
#: computed on the tree whose Euler core ran the 1 - dt horizon as a loop of
#: its own after the integration steps
PINNED = {
    "tabular/aoarm/none/many": "a40eca8bef70e70f1d212517adf1a7afabb9b385f078f99af11d9c265618e4e3",
    "tabular/aoarm/deg/many": "0cb3ccf315debac13746dd9166427120a0e9a05c1af3d6c9bd07a33bef6dc3ac",
    "tabular/aoarm/tag/many": "372af3ccb074a6b17aefbf4a38c9ddb2ebcc1cde9dbd51a0f1a17c31308d8907",
    "tabular/aoarm/predictor_free/many": "49ad3046d0c3bc9d0c12d942ed3dc1b8e3c126df27ae1e740c07c8fd661e4920",
    "tabular/euler/none/many": "0121d4ca2ac779f4baf859a3a2f61b1214b6958aa9c1aa57d59241f9303c2503",
    "tabular/euler/exact/many": "2f85b3a69ddb7fa84db8b3867d88837fa6b32473b78337d29288f9f8d1a54835",
    "tabular/euler/tag/many": "3a5521dfc33b9677cf1167927a112d19656afc98ae4fb05f50a1911a21d13e5a",
    "tabular/euler/predictor_free/many": "fd81276d370d868a2cb76365400e556cc63fb7e98f5239e0a78c15a617022512",
    "parametric/aoarm/none/many": "524879ef9ad197f5c0b278b8b95d04439b02932b34b35ce5d147184597502f4b",
    "parametric/aoarm/deg/many": "5face5cb1297a95de48f6c68f9b7931ba1ca5b8aaf3e061952989f7d2773ba4b",
    "parametric/aoarm/tag/many": "4c87993650377b4f2e06cb03327cecb863502cb3201b23ef08c045c5a2c8af57",
    "parametric/aoarm/predictor_free/many": "5901676241ad013e3d46837f769210b6d5de44dae01c1b5a03eec78e2fe11987",
    "parametric/euler/none/many": "f0de2a9d9fb9cf56a49aa6605568ec6127300f3802392ff926e9b10fc8e123ff",
    "parametric/euler/exact/many": "1c5e4a878d5665b279ab820a391ed5cc9d16bfe8f219cb63e161307ba1ab87d5",
    "parametric/euler/tag/many": "c85bae5253f3763280fe522dfa8d0fc9266bcf9e4c811a9781f51d94e73583f5",
    "parametric/euler/predictor_free/many": "fae2ecf96fdc3b8c2373acc8db359d0a3b273b9a599acede25a21af710fcf290",
    # re-pinned when single chains and `guidesampler sample` became calls of the
    # batched drivers, which moved RNG order: permutation(D) became
    # argsort(random((1, D))), per-position Euler draws became vector draws, and
    # the CLI's per-chain substreams became one stream for all chains
    "tabular/aoarm/none/single": "31c2660747a6b270c443343d4ef869640e8eb52c36f892ca55e0984ef200052c",
    "tabular/aoarm/deg/single": "68bd513726715a4acbc8a4623ba24c4d39936b04c74abfe08c72080d074dae29",
    "tabular/aoarm/tag/single": "062beabdfd924439e59384d3348b9092b800f50dc67834a1dfa4059414fefedc",
    "tabular/aoarm/predictor_free/single": "6717bf0e9082200d5889f01747e2fb298a1c0d170550500e11345928f136678b",
    "tabular/euler/none/single": "0d6b5d1b9fad613e517a977b2d20b6a0e720cab537ff7e43e2d43f1363481ec6",
    "tabular/euler/exact/single": "5dbb0638c27dbeaf7ad70d2a1f8b36d33749c519e3b9e052faea0595d29904a2",
    "tabular/euler/tag/single": "be02ace45cd836ea73bedddb4cf900d528fa4fdf85083cd1260fbe3b358a8609",
    "tabular/euler/predictor_free/single": "2e761fb437ef261733f0c4038ecbe48ccb3662f64efbf33e691a5a0b0165bf2c",
    "parametric/aoarm/none/single": "716179e0ef746304542fa6e21386f8032d8083ae0124121d7a2f97e5bd4d6078",
    "parametric/aoarm/deg/single": "a01201171121bc7007fd50d74d4c52b3cb742d3fa199a8cf97b7d1d1c2de0b9e",
    "parametric/aoarm/tag/single": "c48d106703e003911f33021b8beeb581ef3cb0d47f5d380d512d619b1bd3e8d6",
    "parametric/aoarm/predictor_free/single": "f792ab89eb3fd304afafc76f7d98bf24de6d65028d5d74cb746b9bc09ae20e0b",
    "parametric/euler/none/single": "d0912e060010caf0062136b1d2c0e3a01b5a1d4f714e5a7c06bc801f2863b764",
    "parametric/euler/exact/single": "190e686ae108bd0ae7417d537ca76bbad50800a7e9a2d87c31f4463e0fc5de53",
    "parametric/euler/tag/single": "07571ad27f0dd7cb4c8ab537a6bf76e56bdfb8198bb4b53dbd176ea230e92eb8",
    "parametric/euler/predictor_free/single": "69a6efda4543df588cb6b65c04e9a62f7a6176689ddae0b042ea33c891fa7611",
    # re-pinned when the product stopped staging its parts: every part answers
    # every row. The staged product's code gives these with no switch fractions
    "product/aoarm/deg/single": "4710d10abcd4bb27267672686c50f27274120122c69025cb61af51e93fceab0c",
    "product/aoarm/deg/many": "ee4cbd8611203924ed0e1df739df1d941da0ee5ff59eaec1409fd4851ca7649d",
    "product/aoarm/tag/single": "e29b7bc34b82da3a20722c41cf490a7411da75339f000334c893647f3af885d0",
    "product/aoarm/tag/many": "55cee07b90e0cc6df908ddcefe493b856e2b0ea54e44e9cd9add9886a5c055f4",
    "product/euler/exact/single": "335e6f34ec9ab754f54014210b667d36ec54cb79e0c15e764c8dafc31ff036ea",
    "product/euler/exact/many": "d6b50a7f3451bc553b743b006de0cfe6ff663e220df7119910364d9e600fb01b",
    "product/euler/tag/single": "ff8fa7117fc2a5d4c83fe011ed31193d55c521b6e1fa7563e70e32caf4ddd588",
    "product/euler/tag/many": "26ede3094b273c660817dada10db38a546c532e6270708896cd20be00c1e9e5c",
    "cli/aoarm/deg": "4b58e922e7196c4c1ceaeee6978b330418aab2e3e7988a60bbaa7da2cc28a792",
    "cli/euler/exact": "3850489d32e486ca4505017baa4a5d38ad8437885bce538d6a3197154cc7252c",
    # computed on the tree before the bincount trainer updates, whose weights it keeps
    "denoiser/FM/uniform/D1": "dbd85ef3938b441f922f3619608aef3160b3d0e8e8d7200123dd48f2a730586d",
    "denoiser/FM/uniform/D4": "a416a020da56c20705ff840bbe4f5f52534cc30ecac04ba92f8b1d856c72d521",
    "denoiser/AOARM/uniform/D1": "3a752d782ccf384c7260a0ae5369eb55fc1e4dc1a8e54472b56b8c296fae50d4",
    "denoiser/AOARM/uniform/D4": "4802b3d925225f44a88d28ddffeb4427e1165f1e3989c63427b6118b43bdb967",
    "classifier/D1/one_stage": "a751f1182c767956e47dda18ee3c424dc512b80a31c018fe126ebc0a9ea62312",
    "classifier/D5/one_stage": "600799c4e7ca885ed7d3252180105b094697cfecacdd01d634755c1324926b58",
    "campaign/3": "37fa99dc82d60e1f79d31fe271c1148a7ac1f5ca110ebf59152ce76aa4446936",
    "switch/tabular/exact/0.0": "33a7f9cb2fad2d22363aa748e78fe28d62d12eea274a14ff1157565f209bf49e",
    "switch/tabular/exact/0.5": "cb829a54478504b25fb384bb1c3743f394597a22e0c669efc609aa1f40d93f1f",
    "switch/tabular/exact/0.93": "262ddafbac2e9606c572b2b0327c12229e230d721293ecbf8bf734e73d99755a",
    "switch/tabular/exact/0.97": "025d75b0cf403058a22b13483749f15582cc4777bd54539f3412e75a4ea6fc4b",
    "switch/tabular/tag/0.0": "6cf1faa73bf344b527965bb639c341832c93ae5880f225f4f6fb3307dc81875e",
    "switch/tabular/tag/0.5": "09cc35f5073b6f3b91b56da81e6b0320e970d9f2ebd15bd916cde58be184c16a",
    "switch/tabular/tag/0.93": "3da80c0092aae2a3a54128480386b70c9366b2e51f951fde8b3cd21a32c4a7fd",
    "switch/tabular/tag/0.97": "e1cb37662e5c46362bf61c6c28ce3cdd28c87977b780dbbc27f6e1d59c2842be",
    "switch/tabular/predictor_free/0.0": "33a7f9cb2fad2d22363aa748e78fe28d62d12eea274a14ff1157565f209bf49e",
    "switch/tabular/predictor_free/0.5": "cb829a54478504b25fb384bb1c3743f394597a22e0c669efc609aa1f40d93f1f",
    "switch/tabular/predictor_free/0.93": "262ddafbac2e9606c572b2b0327c12229e230d721293ecbf8bf734e73d99755a",
    "switch/tabular/predictor_free/0.97": "025d75b0cf403058a22b13483749f15582cc4777bd54539f3412e75a4ea6fc4b",
    "switch/parametric/exact/0.0": "5a7cad6c2c6e734ba9d2ac085ab3c0811e20ba75e49dc28e7d8184d1fcc7856f",
    "switch/parametric/exact/0.5": "d6b78b35b960eef872c91e2c5dc7effe7db682d80ad3eadc54d3c591eafb8ed1",
    "switch/parametric/exact/0.93": "b521683492d413027fd94eac3b72e2564b67e7a97c957db345ce7740e2f877da",
    "switch/parametric/exact/0.97": "8b7c3c1df2984204fa19c9c75ab09a2221b924e39bbffa06a63511971f54bef3",
    "switch/parametric/tag/0.0": "a5c3e08004c470206e0d17edbae0225d361e2333c4d9df1c2dbf2b8b3e136648",
    "switch/parametric/tag/0.5": "1de321e7438443cd55a5c1829ba45a4821c27954717e1258e511d2bcc8826b2c",
    "switch/parametric/tag/0.93": "837342f386b4045058f4427aafdf6ca14642b9cb67ba4be6d5bb9b9bd233f734",
    "switch/parametric/tag/0.97": "b06830e54ee1f4ed346930962cf8c03fbf362963e0feafe5fdc44c5fd7cdf19d",
    "switch/parametric/predictor_free/0.0": "f3180702881150f79358437e5280420a4cf366ad791279b6988aa30ef1ccc707",
    "switch/parametric/predictor_free/0.5": "cebdcda89c4489b803c67c0e2f4c58fedc5b944001a90efa08218eba243ccdfc",
    "switch/parametric/predictor_free/0.93": "947708eec4ff9116e48c8db32bda2aeff44610b40893c6a0fec69eec7c5acee2",
    "switch/parametric/predictor_free/0.97": "9508cae7b59ab23595e80e450af9f25f76508d93b556eeff686f90f3a17a04e1",
    "switch/product/exact/0.0": "7d6ac85ae9d11b06bbb62bb95b61224fd2e5ac73a51433795244fa1ea39ca652",
    "switch/product/exact/0.5": "5e386bc56a37d93bc12c234348563864f76f24b63b3231601a34927b024a04cf",
    "switch/product/exact/0.93": "6f8dd7526ca7da6c6ff682c1110e5221e6c560b1a7cba6f3b3440a610c8f5bef",
    "switch/product/exact/0.97": "50054828099b7615f94425fa749e0eea7c65b6d7552330b984d8f3390ade80bc",
    "switch/product/tag/0.0": "a1936950053fa41f5b4f536e551ea8f42962610fc69a8fc8b833b8b3d8fd83d4",
    "switch/product/tag/0.5": "f670671796e450dada5d2bd57d32551731e97adb171a23817bf2600f1d7bbb6c",
    "switch/product/tag/0.93": "0b505d4aa05bef5dfc6d1203311057a339b0a0d77868aa0e0e6bfb5656286ac9",
    "switch/product/tag/0.97": "4293810df86758ac355cdf2affac2baeb1a242d4511bbb80af366c3587ccc05b",
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
