"""Byte reproducibility of the primary outputs at fixed seeds.

Each case runs one sampler (route x guidance mode x {single, many}, on a
small tabular and a small parametric model) or one ``guidesampler sample``
call, and hashes what it returns: the token rows, the decode path and the
diagnostics counts, or ``samples.txt`` and ``paths.jsonl``. Training cases
hash the trained weights and the returned loss of ``train_denoiser`` and
``train_noisy_classifier``, and one reduced campaign seed hashes its
``campaign.csv`` rows. The digests are pinned, so a change that moves a
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
from guidesampler.core import (
    Alphabet,
    RandomSource,
    TabularDistribution,
    TokenSequence,
    identity_schedule,
)
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
    clean = CleanPredictor(lambda x: float(table[int(x.tokens @ 3 ** np.arange(4))]))
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
    predictors staged in at unmasked fractions 0, 0.3 and 0.6."""
    parts = [pairwise_predictor(6, 4, seed) for seed in (501, 502, 503)]
    pred = ProductPredictor(parts, 4, switch_fractions=[0.0, 0.3, 0.6])
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
            rows, diag = euler_sample_many(den, cfg, identity_schedule(), DT, N_MANY, rng)
        return sha(np.ascontiguousarray(rows, dtype=np.int64).tobytes(), counts(diag))
    if route == "aoarm":
        x, path, diag = aoarm_sample(den, cfg, rng)
    else:
        x, path, diag = euler_sample(den, cfg, identity_schedule(), DT, rng)
    path_json = json.dumps(path.to_json(), sort_keys=True).encode()
    return sha(x.tokens.astype(np.int64).tobytes(), path_json, counts(diag))


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
    alpha = Alphabet(S)
    rows = RandomSource(seed).generator().integers(0, S, (n, D))
    return [TokenSequence(r, alpha) for r in rows]


def denoiser_digest(variant, weighting, D) -> str:
    """``train_denoiser`` at S=3 with a batch size that divides nothing."""
    data = training_data(int(D[1:]), 3, 23, 301)
    weights = None
    if weighting == "weighted":
        weights = RandomSource(302).generator().random(len(data)) + 0.1
    model, loss = train_denoiser(
        variant, data, 40, RandomSource(303), weights=weights, lr=0.3, batch_size=17
    )
    return sha(model.single.tobytes(), model.pair.tobytes(), np.float64(loss).tobytes())


def classifier_digest(D, stages) -> str:
    """``train_noisy_classifier`` at S=3; the label depends on two positions."""
    data = training_data(int(D[1:]), 3, 30, 401)
    labeled = [(x, bool(x.tokens[0] + x.tokens[-1] >= 2)) for x in data]
    model, loss = train_noisy_classifier(
        labeled, RandomSource(402), epochs=25, two_stage=stages == "two_stage"
    )
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
    f"denoiser/{variant}/{weighting}/D{D}"
    for variant in ("FM", "AOARM")
    for weighting in ("uniform", "weighted")
    for D in (1, 4)
] + [f"classifier/D{D}/{stages}" for D in (1, 5) for stages in ("one_stage", "two_stage")]
CAMPAIGN_CASES = ["campaign/3"]
CASES = SAMPLER_CASES + CLI_CASES + TRAIN_CASES + CAMPAIGN_CASES

#: the batched-sampler digests were computed on the tree before the batched
#: child scoring, whose outputs it keeps. The batched Euler digests were
#: re-pinned when the Euler core stopped memoizing pair tables across steps:
#: their rows, denoiser_evals and predictor_evals held, and only
#: step_weight_requests (rows formed, now per kernel call) grew
PINNED = {
    "tabular/aoarm/none/many": "a40eca8bef70e70f1d212517adf1a7afabb9b385f078f99af11d9c265618e4e3",
    "tabular/aoarm/deg/many": "0cb3ccf315debac13746dd9166427120a0e9a05c1af3d6c9bd07a33bef6dc3ac",
    "tabular/aoarm/tag/many": "372af3ccb074a6b17aefbf4a38c9ddb2ebcc1cde9dbd51a0f1a17c31308d8907",
    "tabular/aoarm/predictor_free/many": "49ad3046d0c3bc9d0c12d942ed3dc1b8e3c126df27ae1e740c07c8fd661e4920",
    "tabular/euler/none/many": "88dbb7ca4a09e9c118915809eb6323aa8de82778f987a216e872de2cf595dc6a",
    "tabular/euler/exact/many": "aa5e7d5414bd6aa74330b26534c4be667f1bc460f21bfd1a01852b773e7656ae",
    "tabular/euler/tag/many": "a93893f135b0d5a054203ac9daa0313cee46d573b02da54418653b46ac284e61",
    "tabular/euler/predictor_free/many": "bcd264a36f8c621c8dfa144cbe3b29b44fbb2f902d2f10e45fbf08a469ccc5f6",
    "parametric/aoarm/none/many": "524879ef9ad197f5c0b278b8b95d04439b02932b34b35ce5d147184597502f4b",
    "parametric/aoarm/deg/many": "5face5cb1297a95de48f6c68f9b7931ba1ca5b8aaf3e061952989f7d2773ba4b",
    "parametric/aoarm/tag/many": "4c87993650377b4f2e06cb03327cecb863502cb3201b23ef08c045c5a2c8af57",
    "parametric/aoarm/predictor_free/many": "5901676241ad013e3d46837f769210b6d5de44dae01c1b5a03eec78e2fe11987",
    "parametric/euler/none/many": "caf30d18fb58b663aeb2b8e3119669729e7cd756957acaa62d1cc5894fb40c13",
    "parametric/euler/exact/many": "5ac1bcf4025e47708e37d36467b719ac2bbf1ab5750396019b5b03b40f1e486c",
    "parametric/euler/tag/many": "5f8134f30b1c81f92e513408fab729b7e1902f18610b2bc5864cc10a45172604",
    "parametric/euler/predictor_free/many": "2716983a590299f6bdf97d0a8bfd4d1658a2a5af2071e3635a16f0a8143e1aed",
    # re-pinned when single chains and `guidesampler sample` became calls of the
    # batched drivers, which moved RNG order: permutation(D) became
    # argsort(random((1, D))), per-position Euler draws became vector draws, and
    # the CLI's per-chain substreams became one stream for all chains
    "tabular/aoarm/none/single": "31c2660747a6b270c443343d4ef869640e8eb52c36f892ca55e0984ef200052c",
    "tabular/aoarm/deg/single": "68bd513726715a4acbc8a4623ba24c4d39936b04c74abfe08c72080d074dae29",
    "tabular/aoarm/tag/single": "062beabdfd924439e59384d3348b9092b800f50dc67834a1dfa4059414fefedc",
    "tabular/aoarm/predictor_free/single": "6717bf0e9082200d5889f01747e2fb298a1c0d170550500e11345928f136678b",
    "tabular/euler/none/single": "0d6b5d1b9fad613e517a977b2d20b6a0e720cab537ff7e43e2d43f1363481ec6",
    "tabular/euler/exact/single": "ee104ab28690ce63c4a66d1954ec45744aa1ac6fb177b498813c5f669272f5d1",
    "tabular/euler/tag/single": "be02ace45cd836ea73bedddb4cf900d528fa4fdf85083cd1260fbe3b358a8609",
    "tabular/euler/predictor_free/single": "2e761fb437ef261733f0c4038ecbe48ccb3662f64efbf33e691a5a0b0165bf2c",
    "parametric/aoarm/none/single": "716179e0ef746304542fa6e21386f8032d8083ae0124121d7a2f97e5bd4d6078",
    "parametric/aoarm/deg/single": "a01201171121bc7007fd50d74d4c52b3cb742d3fa199a8cf97b7d1d1c2de0b9e",
    "parametric/aoarm/tag/single": "c48d106703e003911f33021b8beeb581ef3cb0d47f5d380d512d619b1bd3e8d6",
    "parametric/aoarm/predictor_free/single": "f792ab89eb3fd304afafc76f7d98bf24de6d65028d5d74cb746b9bc09ae20e0b",
    "parametric/euler/none/single": "d0912e060010caf0062136b1d2c0e3a01b5a1d4f714e5a7c06bc801f2863b764",
    "parametric/euler/exact/single": "b5a08b45ee4e9dcf25c29847a1a3fe26e1847e30845dabb73291a4deae25fe7d",
    "parametric/euler/tag/single": "07571ad27f0dd7cb4c8ab537a6bf76e56bdfb8198bb4b53dbd176ea230e92eb8",
    "parametric/euler/predictor_free/single": "69a6efda4543df588cb6b65c04e9a62f7a6176689ddae0b042ea33c891fa7611",
    # computed on the tree before the product predictor answered rows; every
    # part is active in some step, and the parametric posterior has no zero row
    "product/aoarm/deg/single": "0cecd4987c6005a3aa2e248616bfa40cd1d6640e3a4ada0eb88e080290e8862a",
    "product/aoarm/deg/many": "c45232125a6b1a5a917bae897539a5b294f7e789111fa57034ea4163196983c0",
    "product/aoarm/tag/single": "00eb00ecc832d7d2824676a010ebf1547ae4797382cff3c14dad6d0d8d9389b0",
    "product/aoarm/tag/many": "f52f448efdb954ac9f778f0c45f3953f75a715c79b4206d86cefa03e1adf5a4a",
    "product/euler/exact/single": "f36e42dbc2da0b2b37882deacec254a1871d09d1cd26a1df691ffd4c05b96f80",
    "product/euler/exact/many": "5aaf05852a10c7a60c44b9d10b26e954f72096beb453b135f8a274f596a6088b",
    "product/euler/tag/single": "38bc6760d2e00cfd620da05c8be9477990072339c4169c8ba83079063e39b223",
    "product/euler/tag/many": "42432f16ea245be015a9b6627f577a6a7c31b2b8527779ee138cdbfea17ab483",
    "cli/aoarm/deg": "4b58e922e7196c4c1ceaeee6978b330418aab2e3e7988a60bbaa7da2cc28a792",
    "cli/euler/exact": "3850489d32e486ca4505017baa4a5d38ad8437885bce538d6a3197154cc7252c",
    # computed on the tree before the bincount trainer updates, whose weights it keeps
    "denoiser/FM/uniform/D1": "dbd85ef3938b441f922f3619608aef3160b3d0e8e8d7200123dd48f2a730586d",
    "denoiser/FM/uniform/D4": "a416a020da56c20705ff840bbe4f5f52534cc30ecac04ba92f8b1d856c72d521",
    "denoiser/FM/weighted/D1": "c5ce44289395eed5e1d74c969ce7bec85ccee453d937b7f7d59276e03f29541e",
    "denoiser/FM/weighted/D4": "b41c3604122952263afffd3806f6fe403c12459f1ae5fcf4c5c9ee09f7075900",
    "denoiser/AOARM/uniform/D1": "3a752d782ccf384c7260a0ae5369eb55fc1e4dc1a8e54472b56b8c296fae50d4",
    "denoiser/AOARM/uniform/D4": "4802b3d925225f44a88d28ddffeb4427e1165f1e3989c63427b6118b43bdb967",
    "denoiser/AOARM/weighted/D1": "a7274e755861dfae6b0a3df967b3078a42f750d541fa34ace41d2d877f2b62f6",
    "denoiser/AOARM/weighted/D4": "cabcda8ab72fca13a11567f289403a7085abf266a1765637e83182a8e2e68c7b",
    "classifier/D1/one_stage": "a751f1182c767956e47dda18ee3c424dc512b80a31c018fe126ebc0a9ea62312",
    "classifier/D1/two_stage": "07399cd1da5c8e57dce08d76850ad64786ea735546e55ec3335a7857c5424822",
    "classifier/D5/one_stage": "600799c4e7ca885ed7d3252180105b094697cfecacdd01d634755c1324926b58",
    "classifier/D5/two_stage": "c42dcaa17e812523d0d60e242ea48da2bf48eaf16bdc1c374146a962d045a68c",
    "campaign/3": "37fa99dc82d60e1f79d31fe271c1148a7ac1f5ca110ebf59152ce76aa4446936",
}


def digest_of(case: str, workdir: Path) -> str:
    parts = case.split("/")
    if parts[0] == "cli":
        return cli_digest(parts[1], workdir)
    if parts[0] == "denoiser":
        return denoiser_digest(*parts[1:])
    if parts[0] == "classifier":
        return classifier_digest(*parts[1:])
    if parts[0] == "campaign":
        return campaign_digest(parts[1])
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
