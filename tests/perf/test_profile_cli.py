"""End-to-end ``--profile`` telemetry through the CLI.

The tiered SPCF kernels record their chosen tier in ``spcf.*``
counters; these tests drive ``repro optimize --profile``
exactly as a user would (capturing stderr) and assert the counters
surface in the report — including through worker processes, whose
counter deltas are merged back into the parent registry.
"""

import sys

import pytest

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import write_aag
from repro.cli import main
from repro.core import LookaheadOptimizer


@pytest.fixture
def rca4_path(tmp_path):
    path = tmp_path / "rca4.aag"
    with open(path, "w") as fh:
        write_aag(ripple_carry_adder(4), fh)
    return str(path)


def _profile_output(capsys, rca4_path, *extra):
    argv = [
        "optimize", rca4_path, "--flow", "lookahead-only",
        "--profile", "--workers", "1", *extra,
    ]
    assert main(argv) == 0
    return capsys.readouterr().err


def test_profile_reports_spcf_counters(capsys, rca4_path):
    err = _profile_output(capsys, rca4_path)
    assert "perf counters:" in err
    assert "spcf.tier.exact" in err
    assert "reduce.steps" in err


def test_profile_spcf_tier_knob_switches_counter(capsys, rca4_path):
    err = _profile_output(capsys, rca4_path, "--spcf-tier", "signature")
    assert "spcf.tier.signature" in err
    assert "spcf.tier.exact" not in err


def test_worker_counters_merge_into_parent():
    """Parallel rounds must report the same spcf.* tiers as serial."""
    aig = ripple_carry_adder(6)
    # One walk: the cone fan-out (two walks fan out whole walks instead).
    kw = dict(max_rounds=1, spcf_tier="signature", walk_modes=("target",))
    perf.reset()
    with LookaheadOptimizer(workers=1, **kw) as opt:
        opt.optimize(aig)
    serial = perf.counter("spcf.tier.signature")
    perf.reset()
    with LookaheadOptimizer(workers=2, **kw) as opt:
        opt.optimize(aig)
    parallel = perf.counter("spcf.tier.signature")
    assert perf.counter("rounds.parallel") > 0
    assert serial > 0
    assert parallel == serial


def test_walk_worker_counters_merge_into_parent():
    """The walk worker reports its walk's spcf.* tiers to the parent.

    Each walk computes its own round-1 SPCFs, so two walks side by side
    count what the two walks count alone, each from a cold cache; run in
    turn, the second walk reads the first one's SPCFs.
    """
    aig = ripple_carry_adder(6)
    kw = dict(max_rounds=1, spcf_tier="signature")

    def worker_calls():
        timers = perf.snapshot()["timers"]
        return [timers[name]["calls"]
                for name in ("workers.busy", "workers.capacity")]

    alone = 0
    for walk_mode in ("full", "target"):
        perf.reset()
        with LookaheadOptimizer(
            workers=1, walk_modes=(walk_mode,), **kw
        ) as opt:
            opt.optimize(aig)
        alone += perf.counter("spcf.tier.signature")
    target_calls = worker_calls()
    perf.reset()
    with LookaheadOptimizer(
        workers=2, walk_modes=("target", "full"), **kw
    ) as opt:
        opt.optimize(aig)
    assert perf.counter("walks.parallel") == 1
    assert perf.counter("spcf.tier.signature") == alone == 4
    # The walk run here keeps the serial rounds' accounting; the worker's
    # walk adds one busy span and the fan-out one capacity span, in place
    # of its inner rounds' own, so utilisation stays <= 1.
    assert worker_calls() == [n + 1 for n in target_calls]
    timers = perf.snapshot()["timers"]
    busy, capacity = timers["workers.busy"], timers["workers.capacity"]
    assert 0 < busy["seconds"] <= capacity["seconds"]


def test_fuzz_profile_flag(capsys, tmp_path):
    assert main([
        "fuzz", "--seed", "0", "--budget", "2", "--max-cases", "3",
        "--artifact-dir", str(tmp_path), "--profile",
    ]) == 0
    err = capsys.readouterr().err
    assert "perf counters:" in err
