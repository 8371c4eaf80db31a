"""Workload generator and the four benchmark workloads.

Every input is drawn from the seed given on the command line; the package
receives only those inputs. A workload has three parts:

* ``setup()`` builds the package's model and predictor objects (and, for the
  CLI, writes their input files). The runner times it as ``setup_s``.
* ``op()`` is one timed operation: a batch call, a CLI invocation or one
  campaign seed.
* ``check(out)`` returns (problems, digest) for the operation's output.
  The digest must repeat on every operation of a run, because the seed is
  fixed and primary outputs are byte-reproducible.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from guidesampler import bench, cli, core, denoising, predictors, sampling
from perfbench import checks

#: The batched drivers key a (context, position) pair as ``codes * D + d`` in
#: int64, with base-(S+1) context codes; that key wraps at this bound.
CONTEXT_KEY_LIMIT = 2**63


class SizeGuardError(ValueError):
    """A workload size the package cannot represent correctly today."""


def check_context_key_fits(D: int, S: int) -> None:
    """Refuse sizes where the batched drivers' context key wraps around.

    At (S+1)**D * D >= 2**63 the int64 key ``codes * D + d`` overflows and the
    drivers evaluate the denoiser on wrong contexts (measured at D=14, S=20:
    the first denoiser call saw a context with no masked position). Timing
    such a size would time a wrong program.
    """
    if (S + 1) ** D * D >= CONTEXT_KEY_LIMIT:
        raise SizeGuardError(
            f"D={D}, S={S}: (S+1)**D * D = {(S + 1) ** D * D} >= 2**63, so the batched "
            "drivers' int64 context key (codes * D + d) wraps and they sample from wrong "
            "contexts; refusing to benchmark this size"
        )


def _generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


class Workload:
    name = ""
    #: sequences one operation returns
    chains_per_op = 0

    def setup(self) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, out) -> tuple:
        raise NotImplementedError

    def close(self) -> None:
        """Remove files the workload wrote."""


class TabularDeg(Workload):
    """Enumerable regime: D=8, S=4 Gibbs prior, exact denoiser and exact
    marginal predictor, ``deg`` guidance at gamma=1 over 2000 chains.

    Each operation builds fresh model objects, because every CLI run and
    campaign seed pays the memo fill. The output is checked against the
    brute-force tilted posterior.
    """

    name = "tabular_deg"

    def __init__(self, seed: int, D: int = 8, S: int = 4, n: int = 2000):
        check_context_key_fits(D, S)
        self.D, self.S, self.n = D, S, n
        self.chains_per_op = n
        gen = _generator(seed, 0)
        weights = np.exp(gen.normal(0.0, 0.8, S**D))
        self.weights = weights / weights.sum()
        self.clean_table = gen.uniform(0.05, 0.95, S**D)
        self.rng = core.RandomSource(seed, 1)
        self.chi_square = checks.DecileChiSquare(
            core.TabularDistribution(D, S, self.weights), self._clean(), gamma=1.0
        )

    def _clean(self) -> predictors.CleanPredictor:
        table, S = self.clean_table, self.S
        return predictors.CleanPredictor(
            lambda x: float(table[core.encode_rows(x.tokens[None, :], S)[0]]),
            batch_fn=lambda rows: table[core.encode_rows(rows, S)],
        )

    def setup(self) -> None:
        p = core.TabularDistribution(self.D, self.S, self.weights)
        clean = self._clean()
        self.denoiser = denoising.ExactDenoiser(p)
        self.cfg = sampling.GuidanceConfig(
            mode="deg", gamma=1.0, predictor=predictors.ExactMarginalPredictor(clean, p)
        )

    def op(self):
        self.setup()
        rows, _ = sampling.aoarm_sample_many(self.denoiser, self.cfg, self.n, self.rng)
        return rows

    def check(self, rows) -> tuple:
        problems = checks.check_rows(rows, self.n, self.D, self.S)
        if not problems:
            problems = self.chi_square(rows)
        return problems, checks.rows_digest(rows)


def parametric_inputs(seed: int, D: int, S: int) -> dict:
    """Parameters of a random parametric denoiser (scale 0.3) and of a
    logistic pairwise-interaction predictor over the same (D, S)."""
    check_context_key_fits(D, S)
    den = denoising.ParametricDenoiser.random(D, S, core.RandomSource(seed, 2), scale=0.3)
    gen = _generator(seed, 3)
    pair = gen.normal(0.0, 0.1, (D, D, S + 1, S + 1))
    pair[np.tril_indices(D)] = 0.0  # couplings live on d < e blocks
    return {
        "D": D, "S": S,
        "den_single": den.single, "den_pair": den.pair,
        "pred_single": gen.normal(0.0, 0.5, (D, S + 1)), "pred_pair": pair,
        "pred_bias": float(gen.normal(0.0, 0.5)),
    }


def build_parametric(inputs: dict):
    D, S = inputs["D"], inputs["S"]
    den = denoising.ParametricDenoiser(D, S, inputs["den_single"], inputs["den_pair"])
    pred = predictors.PairwiseInteractionPredictor(
        D, S, "logistic", inputs["pred_bias"], inputs["pred_single"], inputs["pred_pair"]
    )
    return den, pred


class ParametricDeg(Workload):
    """Non-enumerable regime: D=12, S=20 (about 4e15 states), ``deg``
    guidance at gamma=1 over 64 chains. Contexts almost never repeat, so
    the predictor's scalar likelihood calls dominate."""

    name = "parametric_deg"

    def __init__(self, seed: int, D: int = 12, S: int = 20, n: int = 64):
        self.inputs = parametric_inputs(seed, D, S)
        self.D, self.S, self.n = D, S, n
        self.chains_per_op = n
        self.rng = core.RandomSource(seed, 1)

    def setup(self) -> None:
        self.denoiser, pred = build_parametric(self.inputs)
        self.cfg = sampling.GuidanceConfig(mode="deg", gamma=1.0, predictor=pred)

    def op(self):
        rows, _ = sampling.aoarm_sample_many(self.denoiser, self.cfg, self.n, self.rng)
        return rows

    def check(self, rows) -> tuple:
        return checks.check_rows(rows, self.n, self.D, self.S), checks.rows_digest(rows)


class CliEulerTag(Workload):
    """``guidesampler sample`` in-process on the parametric model and
    predictor written as JSON files: Euler route, ``tag`` guidance,
    dt=0.01, 32 chains, decode paths recorded."""

    name = "cli_euler_tag"

    def __init__(self, seed: int, workdir: Path, D: int = 12, S: int = 20, n: int = 32):
        self.inputs = parametric_inputs(seed, D, S)
        self.D, self.S, self.n = D, S, n
        self.chains_per_op = n
        self.workdir = Path(workdir)
        self.out = self.workdir / "out"
        self.argv = [
            "sample", "--model", str(self.workdir / "model.json"),
            "--predictor", str(self.workdir / "predictor.json"),
            "--route", "euler", "--mode", "tag", "--dt", "0.01", "--n", str(n),
            "--seed", str(seed), "--out", str(self.out),
        ]

    def setup(self) -> None:
        den, pred = build_parametric(self.inputs)
        self.workdir.mkdir(parents=True, exist_ok=True)
        # ParametricDenoiser.to_json omits the kind that cli.load_model requires
        model = {"kind": "parametric", **den.to_json()}
        (self.workdir / "model.json").write_text(json.dumps(model))
        (self.workdir / "predictor.json").write_text(json.dumps(pred.to_json()))

    def op(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def check(self, exit_code) -> tuple:
        if exit_code != 0:
            return [f"exit code {exit_code}"], ""
        samples = (self.out / "samples.txt").read_bytes()
        paths = (self.out / "paths.jsonl").read_bytes()
        lines = samples.decode().splitlines()
        n_paths = len(paths.decode().splitlines())
        if len(lines) != self.n or n_paths != self.n:
            return [f"{len(lines)} sample lines and {n_paths} path lines, expected {self.n}"], ""
        if any(len(line) != self.D for line in lines):
            return [f"a line of samples.txt does not hold {self.D} letters"], ""
        problems = []
        try:
            json.loads((self.out / "diagnostics.json").read_text())
        except (OSError, ValueError) as e:
            problems.append(f"diagnostics.json does not parse: {e}")
        alpha = core.Alphabet(self.S)
        try:
            rows = np.array([[alpha.token(c) for c in line] for line in lines], dtype=np.int64)
        except ValueError as e:
            return problems + [f"samples.txt holds a bad letter: {e}"], ""
        problems += checks.check_rows(rows, self.n, self.D, self.S)
        return problems, checks.digest(samples, paths)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class CampaignSeed(Workload):
    """One seed of the default campaign: landscape, classifier training, six
    arms including two refit arms that train a denoiser."""

    name = "campaign_seed"

    def __init__(self, seed: int, overrides: dict = None):
        self.seed = seed
        self.overrides = overrides
        cfg = bench.resolve_campaign_config(overrides)
        self.arms = (
            {"unguided", "filter"}
            | {f"guidance_g{float(g):g}" for g in cfg["gammas"]}
            | {f"refit_q{float(q):g}" for q in cfg["refit_qs"]}
        )
        # sequences the arms return and score: k per arm
        self.chains_per_op = cfg["k"] * len(self.arms)

    def setup(self) -> None:
        self.cfg = bench.resolve_campaign_config(self.overrides)
        self.master = core.RandomSource(self.seed, 8)

    def op(self):
        return bench.run_campaign_seed(self.cfg, self.master, 0)

    def check(self, results) -> tuple:
        problems = []
        arms = {r.arm for r in results}
        if arms != self.arms or len(results) != len(self.arms):
            problems.append(f"arms {sorted(r.arm for r in results)}, expected {sorted(self.arms)}")
        bad = [r.arm for r in results if not 0.0 <= r.success_rate <= 1.0]
        if bad:
            problems.append(f"success rate outside [0, 1] on arms {bad}")
        csv_rows = "\n".join(",".join(map(str, r.csv_row())) for r in results)
        return problems, checks.digest(csv_rows.encode())


NAMES = ("tabular_deg", "parametric_deg", "cli_euler_tag", "campaign_seed")


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "tabular_deg":
        return TabularDeg(seed)
    if name == "parametric_deg":
        return ParametricDeg(seed)
    if name == "cli_euler_tag":
        return CliEulerTag(seed, workdir)
    if name == "campaign_seed":
        return CampaignSeed(seed)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
