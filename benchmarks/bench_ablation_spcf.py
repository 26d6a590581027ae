"""Ablation A: SPCF evaluation (exact / over-approximate / signature).

DESIGN.md calls out the SPCF evaluation as the key accuracy/efficiency
knob: the paper argues the over-approximation suffices because the SPCF is
only a guide metric.  This bench measures final depth and runtime under
each ``spcf_tier`` on circuits small enough for the exact computation.

Run:  pytest benchmarks/bench_ablation_spcf.py --benchmark-only -s
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.adders import ripple_carry_adder
from repro.aig import depth
from repro.bench import control_fabric
from repro.cec import check_equivalence
from repro.core import LookaheadOptimizer

CIRCUITS = {
    "adder4": lambda: ripple_carry_adder(4),
    "adder5": lambda: ripple_carry_adder(5),
    "fabric12": lambda: control_fabric("fab", 12, 6, seed=5, chain_len=8),
}

MODES = {
    # 'auto' is the exact DP on these circuits (truth tables up to 12 PIs).
    "exact": dict(spcf_tier="auto"),
    "overapprox": dict(spcf_tier="overapprox"),
    "signature": dict(spcf_tier="signature", sim_width=512),
}

_results: Dict[str, Dict[str, int]] = {}


@pytest.mark.parametrize("circuit", list(CIRCUITS))
@pytest.mark.parametrize("spcf_mode", list(MODES))
def test_spcf_mode(benchmark, circuit, spcf_mode):
    aig = CIRCUITS[circuit]()

    def run():
        opt = LookaheadOptimizer(max_rounds=8, **MODES[spcf_mode])
        return opt.optimize(aig)

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    assert check_equivalence(aig, out)
    _results.setdefault(circuit, {})[spcf_mode] = depth(out)
    # Any mode must preserve the never-worse guarantee.
    assert depth(out) <= depth(aig)


def test_print_spcf_ablation(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\n\nAblation A: final AIG depth by spcf_tier")
    print(f"{'circuit':10s}" + "".join(f"{m:>12}" for m in MODES))
    for circuit, per_mode in _results.items():
        print(
            f"{circuit:10s}"
            + "".join(f"{per_mode.get(m, '-'):>12}" for m in MODES)
        )
