"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tabular_deg --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the repository root; it imports the package from ``src/`` of the
checkout it sits in and from nowhere else. One workload runs in one
single-threaded process: the BLAS/OpenMP thread variables are set to 1 and
the campaign runs without a thread pool. Operations run back to back (a
closed loop with one client) until the next one would end after
``--seconds``, and never fewer than three.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` every
second op runs with each layer boundary wrapped (see ``tracing.py``); it
reports the per-layer metrics of the traced ops and the tracing overhead,
traced minus untraced median op time. A run with ``--trace 0`` patches
nothing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every operation's
output is checked; an operation that fails its check counts as failed.
``--workload all`` runs every workload in its own process and prints them
together, with metric names prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / ".out"
WORKLOADS = ("tabular_deg", "parametric_deg", "cli_euler_tag", "campaign_seed")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
MIN_OPS = 3
SETUP_MIN_REPEATS = 5
SETUP_BATCH_S = 0.02
#: share of a run's time that set-up samples between ops may take
SETUP_SHARE = 0.05
#: ops needed beyond the tail percentile
TAIL_OPS = 10
CHILD_TIMEOUT_S = 180


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package() -> bool:
    """Import guidesampler from this checkout's ``src/``; refuse any other copy."""
    if not (SRC / "guidesampler" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'guidesampler'}; run from a full checkout",
              file=sys.stderr)
        return False
    sys.path[:0] = [str(SRC), str(ROOT)]
    import guidesampler

    if not Path(guidesampler.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"guidesampler was imported from {guidesampler.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


class SetupTimer:
    """Times ``wl.setup()`` in batches spread over the run, so the median
    samples the machine's state across the whole run rather than one moment.

    A batch repeats the set-up until it takes about SETUP_BATCH_S, which keeps
    microsecond set-ups above timer noise. The first, untimed set-up pays
    lazy one-off costs.
    """

    def __init__(self, wl):
        self.wl = wl
        t0 = time.perf_counter()
        wl.setup()
        first = time.perf_counter() - t0
        self.batch = max(1, int(SETUP_BATCH_S / max(first, 1e-7)))
        self.samples: list = []
        self.spent = 0.0
        for _ in range(SETUP_MIN_REPEATS):
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(self.batch):
            self.wl.setup()
        dt = time.perf_counter() - t0
        self.spent += dt
        self.samples.append(dt / self.batch)

    def between_ops(self, elapsed: float) -> None:
        """Take one more sample unless set-up has had its share of the run."""
        if self.spent < SETUP_SHARE * elapsed:
            self.sample()

    @property
    def median(self) -> float:
        return statistics.median(self.samples)


class OpLog:
    """Outcome of every op in a run: failures, check cost, reference digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_s: list = []
        self.reference = None
        self.problems: list = []

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {self.attempted - 1}: " + "; ".join(problems))


def run_ops(wl, seconds: float, log: OpLog, tracer=None, setup=None) -> tuple:
    """Run ops back to back until the next would end after ``seconds``.

    Returns (wall times, traced flags). With a tracer every second op runs
    traced, so traced and untraced ops see the same machine conditions.
    The output check, and the set-up sample a SetupTimer may take between
    ops, run outside the timing.
    """
    times: list = []
    traced: list = []
    min_ops = MIN_OPS if tracer is None else MIN_OPS + 1
    begin = time.perf_counter()
    while len(times) < min_ops or (
        time.perf_counter() - begin + statistics.median(times) <= seconds
    ):
        op_id = log.attempted
        trace_op = tracer is not None and len(times) % 2 == 1
        out, error = None, None
        if trace_op:
            tracer.install()
            tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            out = wl.op()
        except Exception as e:  # noqa: BLE001 - a raising op is a failed op
            error = f"{type(e).__name__}: {e}"
            traceback.print_exc()
        finally:
            times.append(time.perf_counter() - t0)
            traced.append(trace_op)
            if trace_op:
                tracer.end_op()
                tracer.remove()
        t1 = time.perf_counter()
        if error is not None:
            problems = [error]
        else:
            problems, digest = wl.check(out)
            if log.reference is None:
                log.reference = digest
            elif digest != log.reference:
                problems.append("output digest differs from the run's first op")
        if trace_op and tracer.no_mask[op_id]:
            problems.append(f"{tracer.no_mask[op_id]} posterior calls on a context with no "
                            "masked position (context-key overflow)")
        log.check_s.append(time.perf_counter() - t1)
        log.record(problems)
        if setup is not None:
            setup.between_ops(time.perf_counter() - begin)
    return times, traced


def tail(times: list):
    """(value, percentile) of the highest percentile with at least TAIL_OPS
    ops beyond it, or None when that percentile is not above the median."""
    n = len(times)
    k = n - TAIL_OPS
    if 2 * k <= n:
        return None
    return sorted(times)[k - 1], 100.0 * k / n


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(args) -> int:
    from perfbench import tracing, workloads

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
    except workloads.SizeGuardError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1
    log = OpLog()
    try:
        setup = SetupTimer(wl)
        if args.trace:
            tracer = tracing.Tracer()
            times, traced = run_ops(wl, args.seconds, log, tracer)
        else:
            times, traced = run_ops(wl, args.seconds, log, setup=setup)
    finally:
        wl.close()

    print(f"{args.workload} seed={args.seed}: ops_total={log.attempted} ops_failed={log.failed}")
    for line in log.problems:
        print(f"  failed {line}")
    if args.trace:
        layer, absent = tracer.layer_metrics()
        metrics = {name: metric(value, unit) for name, (value, unit) in layer.items()}
        metrics["oracle.check_s"] = metric(statistics.median(log.check_s), "s")
        on = [t for t, flag in zip(times, traced) if flag]
        off = [t for t, flag in zip(times, traced) if not flag]
        overhead = statistics.median(on) - statistics.median(off)
        metrics["trace.overhead_s"] = metric(overhead, "s")
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans_{args.workload}_seed{args.seed}.npz"
        tracer.save(spans)
        print(f"  tracing overhead: {overhead:+.4f} s per op "
              f"({len(off)} untraced and {len(on)} traced ops); spans in {spans}")
        print(f"  absent by design (no span of the layer; reported as 0): {', '.join(absent)}")
    else:
        metrics = {
            "samples_per_s": metric(wl.chains_per_op * len(times) / sum(times), "samples/s"),
            "op_s_mean": metric(sum(times) / len(times), "s"),
            "setup_s": metric(setup.median, "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        t = tail(times)
        tail_text = (f"{t[0]:.4f} s (p{t[1]:.0f} of {len(times)} ops)" if t else
                     f"none: {len(times)} ops leave no percentile above the median "
                     f"with {TAIL_OPS} ops beyond it")
        print(f"  not gated: op_s_p50 = {statistics.median(times):.4f} s; op_s_tail = {tail_text}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": log.failed == 0, "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}, no result")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("GUIDESAMPLER_SEED", None)  # it would override the CLI's --seed
    if not import_package():
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
