"""Config-driven command line: verify suites, sampling runs, campaigns.

Exit codes: 0 success, 1 check failure, 2 config error (a sampler size the
int64 context codes cannot represent, or an alphabet whose letters
samples.txt cannot frame, included), 3 runtime error.
Seed precedence: GUIDESAMPLER_SEED env var > --seed flag > config file >
built-in default; the resolved seed must lie in [0, 2**53). Every run writes
a resolved-config copy next to its outputs once its config, model and
predictor have passed their checks, so such a mistake makes no output
directory. Primary outputs (samples, paths, results CSV/JSON) are
byte-reproducible for a fixed seed; wall-clock timings go to separate
diagnostics files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from .acceptance import ACCEPTANCE_CHECKS, DEFAULT_SEED, run_checks, selected_checks
from .bench import (_is_int, _is_real, check_campaign_config, resolve_campaign_config,
                    run_campaign, write_campaign_csv, write_campaign_timing_csv)
from .core import Alphabet, RandomSource, TabularDistribution, unpack_table
from .denoising import (
    ExactDenoiser,
    LogitModifier,
    ModifiedDenoiser,
    ParametricDenoiser,
)
from .errors import ConfigError, GuideSamplerError, SizeCapError
from .predictors import CleanPredictor, ExactMarginalPredictor, PairwiseInteractionPredictor
from .sampling import (
    GuidanceConfig,
    aoarm_sample_many,
    check_context_codes,
    check_dt,
    check_route,
    euler_sample_many,
    write_paths_jsonl,
)

SAMPLER_DEFAULTS = {
    "route": "aoarm",
    "dt": 0.01,
    "mode": "none",
    "gamma": 1.0,
    "temperature": 1.0,
    "wildtype_weight": 0.0,
    "wildtype": None,
    "t0": 0.0,
    "n_samples": 10,
    "record_paths": True,
}

#: Root seeds lie below this. The Philox key of a substream holds its root
#: seed beside a 64-bit stream id, and numpy reads a key list holding an int
#: of 2**63 or more as float64, so two root seeds that round to the same
#: float64 (as 2**53 and 2**53+1 do, or -1 and -2 once masked to 64 bits)
#: would draw the same substreams.
SEED_LIMIT = 2**53

#: Largest S whose letters chr(ord('A') + t) are all printable ASCII, so that
#: samples.txt holds one row per line: token 61 is '~'.
TEXT_S_LIMIT = ord("~") - ord("A") + 1

#: What each top-level config key but ``command`` must hold, and its check.
_TOP_TYPES = {
    "seed": ("an integer", _is_int),
    "output_dir": ("text", lambda v: isinstance(v, str)),
    "model": ("a file name or null", lambda v: v is None or isinstance(v, str)),
    "predictor": ("a file name or null", lambda v: v is None or isinstance(v, str)),
    "only": ("a list of check names",
             lambda v: isinstance(v, list) and all(isinstance(name, str) for name in v)),
    "sampler": ("an object", lambda v: isinstance(v, dict)),
    "campaign": ("an object", lambda v: isinstance(v, dict)),
}


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_json(path, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise ConfigError(f"{what} file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} file {path} is not valid JSON: {e}") from e


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guidesampler",
        description="Guided discrete-sequence generation and its verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, help="root seed (GUIDESAMPLER_SEED overrides)")
        p.add_argument("--out", dest="output_dir", help="output directory (created if missing)")
        p.add_argument("--print-config", action="store_true", help="print resolved config and exit")

    pv = sub.add_parser("verify", help="run acceptance checks")
    common(pv)
    pv.add_argument(
        "--only", action="append", metavar="CHECK",
        help=f"run only the named check(s); known: {', '.join(ACCEPTANCE_CHECKS)}",
    )

    ps = sub.add_parser("sample", help="generate sequences from a model file")
    common(ps)
    ps.add_argument("--model", help="model JSON (kind: tabular | parametric)")
    ps.add_argument("--predictor", help="predictor JSON (for guided modes)")
    ps.add_argument("--n", type=int, dest="n_samples", help="number of sequences")
    ps.add_argument("--route", choices=["aoarm", "euler"])
    ps.add_argument("--mode", choices=["none", "exact", "tag", "deg"])
    ps.add_argument("--gamma", type=float)
    ps.add_argument("--dt", type=float)
    ps.add_argument("--temperature", type=float)
    ps.add_argument("--wildtype-weight", type=float, dest="wildtype_weight")
    ps.add_argument("--wildtype", help="wild-type sequence in the letters of samples.txt "
                    "(case-sensitive), e.g. ABBA")
    ps.add_argument("--t0", type=float, help="guidance switch point in [0,1]")
    ps.add_argument("--no-paths", action="store_true", help="skip decode-path recording")

    pc = sub.add_parser("campaign", help="run the benchmark campaign")
    common(pc)
    return parser


def check_sampler_config(sampler: dict) -> None:
    """Raise a ValueError naming the first key of a merged sampler section
    of the wrong type, or a route, mode or Euler dt out of range; the other
    ranges are checked where the values are used, before any draw."""
    n = sampler["n_samples"]
    if not _is_int(n) or n < 1:
        raise ValueError(f"n_samples (--n) must be an integer >= 1, got {n!r}")
    if not isinstance(sampler["record_paths"], bool):
        raise ValueError(f"record_paths must be true or false, got {sampler['record_paths']!r}")
    if not (sampler["wildtype"] is None or isinstance(sampler["wildtype"], str)):
        raise ValueError(f"wildtype must be text or null, got {sampler['wildtype']!r}")
    for key in ("gamma", "dt", "temperature", "wildtype_weight", "t0"):
        if not _is_real(sampler[key]):
            raise ValueError(f"sampler {key} must be a number, got {sampler[key]!r}")
    check_route(sampler["route"], sampler["mode"])
    if sampler["route"] == "euler":
        check_dt(sampler["dt"])


def resolve_config(args: argparse.Namespace) -> dict:
    file_cfg = _load_json(args.config, "config") if args.config else {}
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(file_cfg) - {"command", *_TOP_TYPES}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, (what, ok) in _TOP_TYPES.items():
        if key in file_cfg and not ok(file_cfg[key]):
            raise ConfigError(f"config {key} must be {what}, got {file_cfg[key]!r}")
    if "command" in file_cfg and file_cfg["command"] != args.command:
        raise ConfigError(
            f"config file is for command {file_cfg['command']!r}, invoked {args.command!r}"
        )
    cfg = {
        "command": args.command,
        "seed": file_cfg.get("seed", DEFAULT_SEED),
        "output_dir": file_cfg.get("output_dir", "guidesampler_out"),
    }
    if args.command == "verify":
        cfg["only"] = list(args.only or file_cfg.get("only", []))
    elif args.command == "sample":
        sampler = dict(SAMPLER_DEFAULTS)
        file_sampler = file_cfg.get("sampler", {})
        unknown = set(file_sampler) - set(SAMPLER_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown sampler keys: {sorted(unknown)}")
        sampler.update(file_sampler)
        for key in ("n_samples", "route", "mode", "gamma", "dt", "temperature",
                    "wildtype_weight", "wildtype", "t0"):
            val = getattr(args, key, None)
            if val is not None:
                sampler[key] = val
        if args.no_paths:
            sampler["record_paths"] = False
        cfg["sampler"] = sampler
        cfg["model"] = args.model or file_cfg.get("model")
        cfg["predictor"] = args.predictor or file_cfg.get("predictor")
        if not cfg["model"]:
            raise ConfigError("sample requires a --model file")
        try:
            check_sampler_config(sampler)
        except (ValueError, TypeError) as e:
            raise ConfigError(str(e)) from e
    else:  # campaign
        try:
            cfg["campaign"] = resolve_campaign_config(file_cfg.get("campaign"))
            check_campaign_config(cfg["campaign"])
        except (TypeError, ValueError, SizeCapError) as e:
            raise ConfigError(str(e)) from e
    if args.seed is not None:
        cfg["seed"] = int(args.seed)
    env_seed = os.environ.get("GUIDESAMPLER_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError as e:
            raise ConfigError(f"GUIDESAMPLER_SEED must be an integer, got {env_seed!r}") from e
    if not 0 <= cfg["seed"] < SEED_LIMIT:
        raise ConfigError(f"seed must lie in [0, 2**53), got {cfg['seed']}")
    if args.output_dir:
        cfg["output_dir"] = args.output_dir
    return cfg


# ---------------------------------------------------------------------------
# model / predictor loading
# ---------------------------------------------------------------------------


def load_model(path):
    obj = _load_json(path, "model")
    kind = obj.get("kind")
    try:
        if kind == "tabular":
            p = TabularDistribution.from_json(obj)
            return ExactDenoiser(p), p
        if kind == "parametric":
            return ParametricDenoiser.from_json(obj), None
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"corrupted model file {path}: {e}") from e
    raise ConfigError(f"model kind must be 'tabular' or 'parametric', got {kind!r}")


def load_predictor(path, denoiser, p_tab):
    obj = _load_json(path, "predictor")
    kind = obj.get("kind")
    try:
        if kind == "pairwise_interaction":
            pred = PairwiseInteractionPredictor.from_json(obj)
        elif kind == "exact_marginal":
            if p_tab is None:
                raise ConfigError("exact_marginal predictors require a tabular model")
            table = unpack_table(obj["clean_table"], "clean_table")
            if table.shape != (p_tab.S**p_tab.D,):
                raise ValueError(f"clean_table has shape {table.shape}, not the model's "
                                 f"(S**D,) = ({p_tab.S**p_tab.D},)")
            pred = ExactMarginalPredictor(CleanPredictor.from_table(table, p_tab.S), p_tab)
        else:
            raise ConfigError(
                f"predictor kind must be 'pairwise_interaction' or 'exact_marginal', got {kind!r}"
            )
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"corrupted predictor file {path}: {e}") from e
    if (pred.D, pred.S) != (denoiser.D, denoiser.S):
        raise ConfigError(
            f"model (D={denoiser.D}, S={denoiser.S}) and predictor "
            f"(D={pred.D}, S={pred.S}) are incompatible"
        )
    return pred


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(cfg: dict) -> int:
    try:
        names = selected_checks(cfg.get("only"))
    except KeyError as e:
        raise ConfigError(str(e)) from e
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(cfg, out / "resolved_config.json")
    results = run_checks(names, seed=cfg["seed"])
    for r in results:
        print(r.line())
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed")
    volatile = {"runtime_s", "wall_time_matched"}
    _dump_json(
        {
            "seed": cfg["seed"],
            "checks": [
                {
                    "name": r.name,
                    "pass": r.passed,
                    "details": r.details,
                    "metrics": {k: v for k, v in r.metrics.items() if k not in volatile},
                }
                for r in results
            ],
        },
        out / "verify_results.json",
    )
    _dump_json(
        {r.name: {"duration_s": r.duration_s} for r in results},
        out / "verify_diagnostics.json",
    )
    return 0 if n_pass == len(results) else 1


def cmd_sample(cfg: dict) -> int:
    """Sample every chain in one call of the route's batched driver, on one
    random stream and one context cache shared by the chains, and write
    ``samples.txt``, ``paths.jsonl`` (empty without ``record_paths``) and
    ``diagnostics.json``. A config mistake found in the model, its size,
    the predictor or the sampler section exits before the output directory
    is made."""
    denoiser, p_tab = load_model(cfg["model"])
    check_context_codes(denoiser.D, denoiser.S)
    if denoiser.S > TEXT_S_LIMIT:
        raise ConfigError(f"samples.txt renders token t as chr(ord('A') + t), which is printable "
                          f"ASCII only up to S = {TEXT_S_LIMIT}; the model has S = {denoiser.S}")
    sampler = cfg["sampler"]
    predictor = None
    if cfg.get("predictor"):
        predictor = load_predictor(cfg["predictor"], denoiser, p_tab)
    if sampler["mode"] in ("exact", "tag", "deg") and predictor is None:
        raise ConfigError(f"mode {sampler['mode']!r} requires --predictor")
    try:
        modifier = LogitModifier(
            temperature=float(sampler["temperature"]),
            wildtype_weight=float(sampler["wildtype_weight"]),
            wildtype_sequence=(
                np.array([Alphabet(denoiser.S).token(c) for c in sampler["wildtype"]],
                         dtype=np.int64)
                if sampler["wildtype"]
                else None
            ),
        )
        # built at every setting: it refuses a wild type of another length
        modified = ModifiedDenoiser(denoiser, modifier)
        if not modifier.is_identity:
            denoiser = modified
        gcfg = GuidanceConfig(
            mode=sampler["mode"], gamma=float(sampler["gamma"]), predictor=predictor,
            t0=float(sampler["t0"]),
        )
    except (ValueError, GuideSamplerError) as e:
        raise ConfigError(str(e)) from e

    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(cfg, out / "resolved_config.json")
    root = RandomSource(cfg["seed"])
    n = sampler["n_samples"]
    record = sampler["record_paths"]
    if sampler["route"] == "euler":
        dt = float(sampler["dt"])
        result = euler_sample_many(denoiser, gcfg, dt, n, root, paths=record)
    else:
        result = aoarm_sample_many(denoiser, gcfg, n, root, paths=record)
    rows, diag = result[0], result[-1]
    lines = Alphabet(denoiser.S).render_rows(rows)
    (out / "samples.txt").write_text("".join(line + "\n" for line in lines))
    with open(out / "paths.jsonl", "w") as fh:
        if record:
            write_paths_jsonl(result[1], fh)
    _dump_json(diag.to_json(), out / "diagnostics.json")
    print(f"wrote {n} samples to {out / 'samples.txt'}")
    return 0


def cmd_campaign(cfg: dict) -> int:
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(cfg, out / "resolved_config.json")
    results, summary = run_campaign(cfg["campaign"], RandomSource(cfg["seed"], 8))
    write_campaign_csv(results, out / "campaign.csv")
    write_campaign_timing_csv(results, out / "campaign_timing.csv")
    wall = {
        arm: summary["arms"][arm].pop("wall_time") for arm in list(summary["arms"])
    }
    matched = summary.pop("matched")
    _dump_json(summary, out / "campaign_summary.json")
    _dump_json({"wall_time": wall, "matched": matched}, out / "campaign_diagnostics.json")
    for arm, m in summary["arms"].items():
        print(
            f"{arm:16s} success={m['success_rate']['mean']:.3f} "
            f"diversity={m['diversity']['mean']:.2f} novelty={m['novelty']['mean']:.2f}"
        )
    print(f"wrote {len(results)} rows to {out / 'campaign.csv'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if args.print_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
        return 0
    try:
        if cfg["command"] == "verify":
            return cmd_verify(cfg)
        if cfg["command"] == "sample":
            return cmd_sample(cfg)
        return cmd_campaign(cfg)
    except (ConfigError, SizeCapError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports and exits 3
        traceback.print_exc()
        print(f"runtime error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
