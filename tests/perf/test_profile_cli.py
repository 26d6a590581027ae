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
    perf.reset()
    with LookaheadOptimizer(
        max_rounds=1, spcf_tier="signature", workers=1
    ) as opt:
        opt.optimize(aig)
    serial = perf.counter("spcf.tier.signature")
    perf.reset()
    with LookaheadOptimizer(
        max_rounds=1, spcf_tier="signature", workers=2
    ) as opt:
        opt.optimize(aig)
    parallel = perf.counter("spcf.tier.signature")
    assert serial > 0
    assert parallel == serial


def test_fuzz_profile_flag(capsys, tmp_path):
    assert main([
        "fuzz", "--seed", "0", "--budget", "2", "--max-cases", "3",
        "--artifact-dir", str(tmp_path), "--profile",
    ]) == 0
    err = capsys.readouterr().err
    assert "perf counters:" in err
