"""Tests of the benchmark itself: smoke runs at tiny sizes, the output
checks' teeth, the size guard and the tracer's patching.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from guidesampler import bench, sampling
from perfbench import checks, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]

TINY_CAMPAIGN = {
    "landscape": {"D": 4, "S": 3},
    "n_labeled": 120,
    "k": 20,
    "n_filter_total": 60,
    "classifier_epochs": 20,
    "refit_train_steps": 30,
    "require_extrapolative": False,
}


def tiny(name, tmp_path, seed=3):
    if name == "tabular_deg":
        return workloads.TabularDeg(seed, D=4, S=3, n=600)
    if name == "parametric_deg":
        return workloads.ParametricDeg(seed, D=4, S=5, n=8)
    if name == "cli_euler_tag":
        return workloads.CliEulerTag(seed, tmp_path / "cli", D=4, S=5, n=4)
    return workloads.CampaignSeed(seed, TINY_CAMPAIGN)


EXPECTED_LAYERS = {
    "tabular_deg": ("sampling.self_s", "denoising.posterior.self_s", "predictors.likelihood.self_s"),
    "parametric_deg": ("sampling.self_s", "denoising.posterior.self_s",
                       "predictors.likelihood.self_s"),
    "cli_euler_tag": ("sampling.self_s", "predictors.gradient.self_s", "cli.load.self_s",
                      "cli.write_paths.self_s", "cli.self_s"),
    "campaign_seed": ("denoising.train.self_s", "predictors.train.self_s",
                      "predictors.likelihood_batch.self_s", "bench.prepare.self_s",
                      "bench.arm.refit_q0.1.self_s", "bench.metrics.self_s"),
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_untraced_and_traced(name, tmp_path):
    wl = tiny(name, tmp_path)
    try:
        assert run.SetupTimer(wl).median > 0
        log = run.OpLog()
        times, traced = run.run_ops(wl, 0.0, log)
        assert (log.attempted, log.failed, len(times), any(traced)) == (run.MIN_OPS, 0, 3, False)
        tracer = tracing.Tracer()
        times, traced = run.run_ops(wl, 0.0, log, tracer)
        assert log.failed == 0, log.problems
        assert traced == [False, True, False, True]
    finally:
        wl.close()
    layer, absent = tracer.layer_metrics()
    for metric in EXPECTED_LAYERS[name]:
        assert metric not in absent and layer[metric][0] > 0, metric
    assert layer["sampling.calls"][0] >= 1
    assert layer["denoising.posterior.no_mask_calls"][0] == 0
    if name != "campaign_seed":
        assert "bench.prepare.self_s" in absent and layer["bench.prepare.self_s"][0] == 0


def test_unguided_samples_fail_the_tabular_check():
    wl = workloads.TabularDeg(seed=5)
    guided = wl.op()
    assert wl.check(guided)[0] == []
    unguided, _ = sampling.aoarm_sample_many(wl.denoiser, sampling.GuidanceConfig(), wl.n, wl.rng)
    problems, _ = wl.check(unguided)
    assert problems and "chi-square" in problems[0]
    assert wl.chi_square.p_value(unguided) < 1e-20


def test_mask_sentinel_fails_the_row_check():
    rows = np.zeros((3, 4), dtype=np.int64)
    assert checks.check_rows(rows, 3, 4, 5) == []
    rows[1, 2] = 5
    assert "mask sentinel" in checks.check_rows(rows, 3, 4, 5)[0]
    assert checks.check_rows(rows[:2], 3, 4, 5)
    assert checks.check_rows(rows - 1, 3, 4, 5)


def test_guard_rejects_context_key_overflow():
    workloads.check_context_key_fits(12, 20)
    workloads.check_context_key_fits(13, 20)
    with pytest.raises(workloads.SizeGuardError, match="D=14, S=20"):
        workloads.check_context_key_fits(14, 20)
    with pytest.raises(workloads.SizeGuardError):
        workloads.ParametricDeg(seed=1, D=14, S=20)
    with pytest.raises(workloads.SizeGuardError):
        workloads.check_context_key_fits(28, 4)


def test_tracer_patches_every_name_and_restores_it():
    original = sampling.aoarm_sample_many
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bench.aoarm_sample_many is sampling.aoarm_sample_many
        assert bench.aoarm_sample_many is not original
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.remove()
    assert bench.aoarm_sample_many is original and sampling.aoarm_sample_many is original


def test_posterior_on_a_context_without_mask_is_counted():
    wl = workloads.TabularDeg(seed=2, D=3, S=2, n=10)
    wl.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        wl.denoiser.posterior_array(np.array([0, 1, 0]))
        wl.denoiser.posterior_array(np.array([0, 2, 0]))
        tracer.end_op()
    finally:
        tracer.remove()
    assert tracer.no_mask[0] == 1
    layer, _ = tracer.layer_metrics()
    assert layer["denoising.posterior.calls"][0] == 2


def test_inputs_depend_only_on_the_seed():
    a, b, c = (workloads.parametric_inputs(s, 4, 5) for s in (7, 7, 8))
    for key in ("den_pair", "pred_pair", "pred_single"):
        assert np.array_equal(a[key], b[key])
        assert not np.array_equal(a[key], c[key])


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert list(run.WORKLOADS) == list(workloads.NAMES)
    per_layer = [name for name, *_ in tracing.SPAN_METRICS]
    per_layer += [name for name, _ in tracing.SAMPLER_METRICS]
    per_layer += [tracing.NO_MASK_METRIC[0], "oracle.check_s", "trace.overhead_s"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(per_layer)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "samples_per_s", "op_s_mean", "setup_s", "peak_rss_mb"}


def test_tail_needs_ten_ops_beyond_a_percentile_above_the_median():
    assert run.tail([1.0] * 20) is None
    value, pct = run.tail(list(range(1, 41)))
    assert (value, pct) == (30, 75.0)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".out", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tabular_deg", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

