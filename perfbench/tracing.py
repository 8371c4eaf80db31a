"""Span tracing of the package from outside, for the traced run.

``Tracer.install()`` wraps the package's layer boundaries:

* class methods: ``posterior_array`` on ``ExactDenoiser`` and
  ``ParametricDenoiser``; ``likelihood_array`` on ``ExactMarginalPredictor``
  and ``PairwiseInteractionPredictor``; ``gradient_surface_array`` and
  ``likelihood_batch`` on ``PairwiseInteractionPredictor``;
* module functions, at every module attribute that holds them. The package
  imports with ``from .x import f``, so ``bench.aoarm_sample_many`` and
  ``sampling.aoarm_sample_many`` are separate names for one function and
  both must be replaced.

Spans (name, start, end, parent, op id) are kept in memory and written out
by ``save()``. A layer's self time is its span's duration minus the
durations of its direct child spans; nothing in this single-threaded
program waits on anything, so there is no wait time to report.
``remove()`` restores every patched attribute.
"""

from __future__ import annotations

import array
import functools
import statistics
import sys
import time

import numpy as np

from guidesampler import bench, cli, denoising, predictors, sampling

#: Per-layer metrics the tracer reports: (metric, unit, span, kind).
#: kind is "self_s" (self time per op), "calls" (spans per op) or
#: "distinct_frac" (distinct input contexts over calls, per op).
SPAN_METRICS = (
    ("sampling.self_s", "s", "sampling", "self_s"),
    ("denoising.posterior.calls", "count", "denoising.posterior", "calls"),
    ("denoising.posterior.self_s", "s", "denoising.posterior", "self_s"),
    ("denoising.posterior.distinct_frac", "fraction", "denoising.posterior", "distinct_frac"),
    ("denoising.train.calls", "count", "denoising.train", "calls"),
    ("denoising.train.self_s", "s", "denoising.train", "self_s"),
    ("predictors.likelihood.calls", "count", "predictors.likelihood", "calls"),
    ("predictors.likelihood.self_s", "s", "predictors.likelihood", "self_s"),
    ("predictors.likelihood.distinct_frac", "fraction", "predictors.likelihood", "distinct_frac"),
    ("predictors.gradient.calls", "count", "predictors.gradient", "calls"),
    ("predictors.gradient.self_s", "s", "predictors.gradient", "self_s"),
    ("predictors.likelihood_batch.self_s", "s", "predictors.likelihood_batch", "self_s"),
    ("predictors.train.self_s", "s", "predictors.train", "self_s"),
    ("bench.prepare.self_s", "s", "bench.prepare", "self_s"),
    ("bench.arm.unguided.self_s", "s", "bench.arm.unguided", "self_s"),
    ("bench.arm.filter.self_s", "s", "bench.arm.filter", "self_s"),
    ("bench.arm.guidance_g1.self_s", "s", "bench.arm.guidance_g1", "self_s"),
    ("bench.arm.guidance_g10.self_s", "s", "bench.arm.guidance_g10", "self_s"),
    ("bench.arm.refit_q0.02.self_s", "s", "bench.arm.refit_q0.02", "self_s"),
    ("bench.arm.refit_q0.1.self_s", "s", "bench.arm.refit_q0.1", "self_s"),
    ("bench.metrics.self_s", "s", "bench.metrics", "self_s"),
    ("cli.load.self_s", "s", "cli.load", "self_s"),
    ("cli.write_paths.self_s", "s", "cli.write_paths", "self_s"),
    ("cli.self_s", "s", "cli", "self_s"),
)

#: Counts read from the SamplerDiagnostics each sampler call returns,
#: summed per op over outermost sampler calls.
SAMPLER_COUNTS = (
    "step_weight_requests", "denoiser_evals", "predictor_evals", "overflow_renormalizations",
)
SAMPLER_METRICS = (("sampling.calls", "count"),) + tuple(
    (f"sampling.{field}", "count") for field in SAMPLER_COUNTS
)

#: Posterior calls whose context has no masked position. A correct sampler
#: never makes one; context-key overflow does. Any such call fails the op.
NO_MASK_METRIC = ("denoising.posterior.no_mask_calls", "count")

CONTEXT_SPANS = ("denoising.posterior", "predictors.likelihood")


def arm_name(out) -> str:
    """Span name of a campaign arm, from the CampaignResult it returns."""
    return f"bench.arm.{out[1].arm}"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._name = array.array("l")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("l")
        self._op = array.array("l")
        self._stack: list = []
        self._op_id = -1
        self._patches: list = []
        self._sampler_depth = 0
        self._contexts = {name: set() for name in CONTEXT_SPANS}
        #: per op: sampler counts, distinct contexts per span, no-mask calls
        self.sampler: dict = {}
        self.distinct: dict = {}
        self.no_mask: dict = {}

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> int:
        idx = len(self._start)
        self._name.append(self._name_id(name))
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self._op_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self.sampler[op_id] = dict.fromkeys(("calls",) + SAMPLER_COUNTS, 0)
        self.no_mask[op_id] = 0
        self._root = self.enter("op")

    def end_op(self) -> None:
        self.exit(self._root)
        self.distinct[self._op_id] = {name: len(s) for name, s in self._contexts.items()}
        for s in self._contexts.values():
            s.clear()
        self._op_id = -1

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, rename=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if rename is not None:
                tracer._name[idx] = tracer._name_id(rename(out))
            return out

        return wrapper

    def _sampler_span(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = tracer._sampler_depth == 0
            tracer._sampler_depth += 1
            idx = tracer.enter("sampling")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
                tracer._sampler_depth -= 1
            if outer and tracer._op_id >= 0:
                counts = tracer.sampler[tracer._op_id]
                counts["calls"] += 1
                diag = out[-1]
                for field in SAMPLER_COUNTS:
                    counts[field] += getattr(diag, field)
            return out

        return wrapper

    def _context_span(self, name, fn, check_masked=False):
        tracer = self
        seen = self._contexts[name]

        @functools.wraps(fn)
        def wrapper(obj, tokens, *args, **kwargs):
            idx = tracer.enter(name)
            try:
                seen.add(tokens.tobytes())
                if check_masked and not (tokens == obj.S).any() and tracer._op_id >= 0:
                    tracer.no_mask[tracer._op_id] += 1
                return fn(obj, tokens, *args, **kwargs)
            finally:
                tracer.exit(idx)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch_method(self, cls, attr, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def _patch_function(self, fn, wrapper) -> None:
        """Replace ``fn`` at every package module attribute that holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "guidesampler" or name.startswith("guidesampler.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for cls in (denoising.ExactDenoiser, denoising.ParametricDenoiser):
            self._patch_method(cls, "posterior_array", self._context_span(
                "denoising.posterior", cls.__dict__["posterior_array"], check_masked=True))
        for cls in (predictors.ExactMarginalPredictor, predictors.PairwiseInteractionPredictor):
            self._patch_method(cls, "likelihood_array", self._context_span(
                "predictors.likelihood", cls.__dict__["likelihood_array"]))
        pairwise = predictors.PairwiseInteractionPredictor
        self._patch_method(pairwise, "gradient_surface_array", self._span(
            "predictors.gradient", pairwise.__dict__["gradient_surface_array"]))
        self._patch_method(pairwise, "likelihood_batch", self._span(
            "predictors.likelihood_batch", pairwise.__dict__["likelihood_batch"]))

        for fn in (sampling.aoarm_sample_many, sampling.aoarm_sample,
                   sampling.euler_sample, sampling.euler_sample_many):
            self._patch_function(fn, self._sampler_span(fn))
        functions = (
            ("denoising.train", denoising.train_denoiser, None),
            ("predictors.train", predictors.train_noisy_classifier, None),
            ("bench.prepare", bench.prepare_campaign_seed, None),
            ("bench.metrics", bench.metrics, None),
            ("bench.arm", bench.run_unguided, arm_name),
            ("bench.arm", bench.run_posthoc_filter, arm_name),
            ("bench.arm", bench.run_guidance, arm_name),
            ("bench.arm", bench.run_refit_baseline, arm_name),
            ("cli.load", cli.load_model, None),
            ("cli.load", cli.load_predictor, None),
            ("cli.write_paths", sampling.write_paths_jsonl, None),
            ("cli", cli.cmd_sample, None),
        )
        for name, fn, rename in functions:
            self._patch_function(fn, self._span(name, fn, rename))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def per_op(self) -> dict:
        """{op id: {span name: (calls, self seconds)}} over traced ops."""
        start = np.array(self._start)
        dur = np.array(self._end) - start
        parent = np.array(self._parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        op = np.array(self._op, dtype=np.int64)
        name = np.array(self._name, dtype=np.int64)
        key = op * len(self.names) + name
        keys, inverse, calls = np.unique(key, return_inverse=True, return_counts=True)
        totals = np.bincount(inverse, weights=self_time, minlength=keys.size)
        out: dict = {int(o): {} for o in self.sampler}
        for k, c, t in zip(keys, calls, totals):
            o, n = divmod(int(k), len(self.names))
            if o >= 0:
                out[o][self.names[n]] = (int(c), float(t))
        return out

    def layer_metrics(self) -> tuple:
        """(metrics, absent): metrics maps name -> (value, unit), with each
        value the median over traced ops; absent names the metrics whose
        layer was never entered. They read 0 in ``metrics``."""
        table = self.per_op()
        ops = sorted(table)
        if not ops:
            raise ValueError("no traced operations")
        metrics, absent = {}, []
        for metric, unit, span, kind in SPAN_METRICS:
            per = [table[o].get(span, (0, 0.0)) for o in ops]
            if not any(calls for calls, _ in per):
                absent.append(metric)
                metrics[metric] = (0, unit)
            elif kind == "calls":
                metrics[metric] = (statistics.median(c for c, _ in per), unit)
            elif kind == "self_s":
                metrics[metric] = (statistics.median(t for _, t in per), unit)
            else:
                metrics[metric] = (statistics.median(
                    self.distinct[o][span] / c for o, (c, _) in zip(ops, per) if c), unit)
        sampler_used = any(self.sampler[o]["calls"] for o in ops)
        for metric, unit in SAMPLER_METRICS:
            field = metric.split(".", 1)[1]
            metrics[metric] = (statistics.median(self.sampler[o][field] for o in ops), unit)
            if not sampler_used:
                absent.append(metric)
        metric, unit = NO_MASK_METRIC
        metrics[metric] = (sum(self.no_mask[o] for o in ops), unit)
        return metrics, absent

    def save(self, path) -> None:
        """Write every span: names[name] is the span's layer, parent -1 a root."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self._name, dtype=np.int32),
            start=np.array(self._start), end=np.array(self._end),
            parent=np.array(self._parent, dtype=np.int64), op=np.array(self._op, dtype=np.int32),
        )
