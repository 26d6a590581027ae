"""The shared Table 2 row library (repro.bench.table2)."""

from __future__ import annotations

import pytest

from repro.adders import ripple_carry_adder
from repro.bench import BENCHMARKS
from repro.bench.table2 import (
    BASELINES,
    BOUNDED_EFFORT_MAX_ANDS,
    FLOW_ORDER,
    FULL_EFFORT_MAX_ANDS,
    GOLDEN_QUICK,
    GOLDEN_W1,
    QUICK_SET,
    effort_options,
    flow_functions,
    get_circuit,
    golden_area_effort,
    golden_config,
    measure,
    run_flow_row,
)
from repro.core.flow import normalize_job_config


def test_flow_functions_cover_the_table():
    flows = flow_functions()
    assert tuple(sorted(flows)) == tuple(sorted(FLOW_ORDER))
    assert set(BASELINES) < set(FLOW_ORDER)


def test_quick_set_is_a_table2_subset():
    assert set(QUICK_SET) <= set(BENCHMARKS)


def test_effort_options_tiers():
    assert effort_options(FULL_EFFORT_MAX_ANDS) == {}
    bounded = effort_options(FULL_EFFORT_MAX_ANDS + 1)
    minimal = effort_options(BOUNDED_EFFORT_MAX_ANDS + 1)
    assert bounded["max_iterations"] == 2
    assert minimal["max_iterations"] == 1
    assert minimal["max_rounds"] < bounded["max_rounds"]
    # Every tier is a valid serve-job options payload — the contract
    # that lets the orchestrator ship effort to a daemon.
    for options in (bounded, minimal):
        normalize_job_config({"flow": "lookahead", **options})


def test_golden_config_selection():
    assert golden_config("C432", 223) == GOLDEN_W1
    assert golden_config("i10", 5300) == GOLDEN_QUICK
    # rot is pinned to the w1 config (perfbench's rot-cold) despite its size.
    assert golden_config("rot", 2350) == GOLDEN_W1
    assert golden_area_effort(GOLDEN_W1) == "high"
    assert golden_area_effort(GOLDEN_QUICK) == "medium"


def test_get_circuit_memoizes_with_bound():
    get_circuit.cache_clear()
    a = get_circuit("C432")
    assert get_circuit("C432") is a
    info = get_circuit.cache_info()
    assert info.maxsize is not None  # bounded, not the old module global


def test_measure_rejects_non_equivalent():
    aig = ripple_carry_adder(2)
    broken = ripple_carry_adder(2)
    broken.pos[0] ^= 1  # negate one output: same interface, wrong function
    with pytest.raises(AssertionError, match="not equivalent"):
        measure(aig, broken, "broken")


def test_run_flow_row_unknown_flow():
    with pytest.raises(ValueError, match="unknown Table 2 flow"):
        run_flow_row("C432", "Magic", aig=ripple_carry_adder(2))


def test_run_flow_row_metrics_shape():
    row = run_flow_row("tiny", "DC", aig=ripple_carry_adder(2))
    assert set(row) == {"gates", "levels", "delay_ps", "power_uw"}
    assert row["gates"] > 0 and row["levels"] > 0
