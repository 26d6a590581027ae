"""Repository benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rot-cold --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` times untraced passes (at least one, repeated until
``--seconds`` of measuring have passed) and reports the end-to-end
metrics.  Their times are scaled to a reference machine speed sampled
while they run (:mod:`calibrate`): the host's speed drifts by a third
between minutes, and unscaled times would measure that drift.
``--trace 1`` runs one traced pass and reports the per-layer metrics
(:mod:`layers`), plus ``trace.overhead``; those times are not scaled.

The last line of standard output is the result object; the line before
it records the environment (git sha when available, a digest of the
sources, Python version, CPU count, seed).  The benchmark needs the
``src/repro`` sources of the checkout and exits with code 2 without a
result when they are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3
"""Set-ups timed before the measured passes, and again after them.

``setup_s`` is the median import time plus the median set-up time over
both groups: the machine's speed drifts over tens of seconds, and
samples from both ends of the run straddle that drift.  Each group is
scaled by the speed sampled across it (:mod:`calibrate`), not per
set-up: one set-up is too short to sample on its own."""

IMPORT_PROBE = (
    "import repro.core, repro.serve, repro.bench, repro.cec, repro.mapping"
)


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the program."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   check=True)
    return time.perf_counter() - start


def timed_setups(workload, seed: int, imports: list, setups: list):
    """Time imports and set-ups into the lists; return the last set-up.

    The times are scaled by the group's speed alone: most of the group
    is a child interpreter importing while this process waits, so its
    ticks delay no timed work.
    """
    ctx = None
    raw_imports, raw_setups = [], []
    with SpeedSampler() as clock:
        for _ in range(SETUP_SAMPLES):
            raw_imports.append(import_seconds())
            if ctx is not None:
                workload.teardown(ctx)
            start = time.perf_counter()
            ctx = workload.setup(seed)
            raw_setups.append(time.perf_counter() - start)
    imports.extend(seconds * clock.speed for seconds in raw_imports)
    setups.extend(seconds * clock.speed for seconds in raw_setups)
    return ctx


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    # A checkout without its own .git must not report an enclosing repo.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args, speeds) -> dict:
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "speed": [round(speed, 3) for speed in speeds],
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_pass(workload, seed: int, probe, ctx=None):
    """One pass over a fresh (or the given) set-up, torn down afterwards."""
    if ctx is None:
        ctx = workload.setup(seed)
    try:
        return workload.run_pass(ctx, probe)
    finally:
        workload.teardown(ctx)


def scaled_pass(workload, seed: int, probe, ctx=None):
    """Like :func:`run_pass`, with its times in reference seconds."""
    if ctx is None:
        ctx = workload.setup(seed)
    with SpeedSampler() as clock:
        measured = run_pass(workload, seed, probe, ctx)
    measured.wall_s *= clock.scale
    for op in measured.ops:
        op.latency_s *= clock.scale
    measured.speed = clock.speed
    return measured


def traced_pass(workload, seed: int, probe, ctx):
    """One traced pass and its per-layer metrics.

    ``trace.overhead`` is the spans' share of the traced wall time: the
    number of spans times the cost of one span, measured on a no-op in
    this process.  A ratio against an untraced pass would double the
    run and, on a machine whose speed drifts by a quarter within a
    minute, measure the drift rather than the wrappers.
    """
    from layers import install, layer_metrics
    from repro import perf
    from tracing import Tracer, span_cost

    before = perf.snapshot()
    replaced_before = probe.totals()
    with Tracer() as tracer:
        try:
            install(tracer, workload.workers_in_process)
        except BaseException:
            workload.teardown(ctx)  # e.g. an entry point was renamed
            raise
        traced = run_pass(workload, seed, probe, ctx)
    delta = perf.delta(before, perf.snapshot())
    replaced = tuple(
        after - prior for after, prior in zip(probe.totals(), replaced_before)
    )
    values = layer_metrics(
        tracer, delta, workload.workers_in_process, replaced, traced.ops
    )
    cost = tracer.spans * span_cost()
    values["trace.overhead"] = cost / (traced.wall_s - cost)
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    return traced, metrics


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median.

    A Beta((n+1)/2, (n+1)/2)-weighted mean of the order statistics.  With
    a dozen served jobs the sample median jumps between neighbouring
    order statistics as the seeded job order changes which jobs queue
    behind which; the weighted estimate moves smoothly, and its spread
    across seeds is about half the sample median's.
    """
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)
    steps = 4096
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        density = math.exp((a - 1) * math.log(x * (1 - x)) - log_norm)
        weights[int(x * n)] += density
    return sum(w * v for w, v in zip(weights, xs)) / sum(weights)


def end_to_end(passes, setup_s: float) -> dict:
    from workloads import qor

    ops = [op for p in passes for op in p.ops]
    total_wall = sum(p.wall_s for p in passes)
    first_out = {}
    for op in passes[0].ops:
        if op.output is not None:
            first_out.setdefault(op.circuit, op.output)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "jobs_per_s": (len(ops) / total_wall, "1/s"),
        "job_p50_s": (hd_median([op.latency_s for op in ops]), "s"),
    }
    summed = qor(first_out)
    metrics["levels"] = (summed["levels"], "levels")
    metrics["ands"] = (summed["ands"], "count")
    metrics["delay_ps"] = (summed["delay_ps"], "ps")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, ReplacementProbe

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    imports, setups = [], []
    with ReplacementProbe() as probe:
        ctx = timed_setups(workload, args.seed, imports, setups)
        if args.trace:
            traced, metrics = traced_pass(workload, args.seed, probe, ctx)
            passes = [traced]
        else:
            start = time.perf_counter()
            passes = [scaled_pass(workload, args.seed, probe, ctx)]
            while time.perf_counter() - start < args.seconds:
                passes.append(scaled_pass(workload, args.seed, probe))
            workload.teardown(
                timed_setups(workload, args.seed, imports, setups)
            )
            metrics = None

    workload.check(passes)
    ops = [op for p in passes for op in p.ops]
    failed = sum(1 for op in ops if op.failures)
    for op in ops:
        for failure in op.failures:
            print(f"FAILED {args.workload} {op.circuit}: {failure}",
                  file=sys.stderr)
    if metrics is None:
        setup_s = statistics.median(imports) + statistics.median(setups)
        metrics = end_to_end(passes, setup_s)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
        metrics["ok_frac"] = (1.0 - failed / len(ops), "ratio")
    speeds = [p.speed for p in passes if p.speed is not None]
    print(json.dumps({"env": environment(args, speeds)}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", "overhead", "_util")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
