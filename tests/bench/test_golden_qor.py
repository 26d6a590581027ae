"""Golden QoR regression suite over every Table 2 circuit.

Each circuit's ``(depth, ands, ands_post)`` under its pinned optimizer
configuration is recorded in ``golden_qor.json``.  A depth above the
golden value is a hard QoR regression and fails; area is allowed to
drift up to 5% before the suite flags it.  ``ands_post`` — the AND
count after a deterministic :func:`repro.core.recover_area` pass on the
optimized output — is a hard bound like depth: redundancy the engine
can remove deterministically must stay removed.  Legitimate QoR changes
are blessed with ``pytest tests/bench/test_golden_qor.py
--update-golden`` (see ``tests/regressions/README.md``).

Two configurations are in play (``repro.bench.table2.golden_config``):

* the serial ``GOLDEN_W1`` config for the small circuits and for
  ``rot`` (the config perfbench's rot-cold workload times, so its
  goldens double as that workload's QoR reference), paired with
  full-effort area recovery;
* a quick one-round config for the big Table 2 fabrics, paired with
  medium-effort recovery, so covering all 15 paper circuits stays
  inside the tier-1 wall-clock budget while still failing on any
  depth regression.
"""

import json
import os

import pytest

from repro.adders import ripple_carry_adder
from repro.aig import depth
from repro.bench import BENCHMARKS
from repro.bench.table2 import golden_area_effort, golden_config
from repro.core import LookaheadOptimizer, recover_area

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_qor.json")

AREA_DRIFT = 0.05
"""Relative AND-count growth tolerated before the suite flags it."""

CIRCUITS = {
    "rca2": lambda: ripple_carry_adder(2),
    "rca4": lambda: ripple_carry_adder(4),
    "rca8": lambda: ripple_carry_adder(8),
    "rca16": lambda: ripple_carry_adder(16),
    "adder8": lambda: ripple_carry_adder(8),
    "adder16": lambda: ripple_carry_adder(16),
    "adder32": lambda: ripple_carry_adder(32),
}
# Every Table 2 circuit: a depth regression on any paper circuit is a
# tier-1 failure.
CIRCUITS.update(BENCHMARKS)

# rca8/rca16 are structurally the adder8/adder16 circuits; one optimized
# result per distinct (circuit, config) keeps the suite's wall-clock flat.
_cache = {}


def _golden_qor(name):
    """(depth, ands, ands_post) under the circuit's pinned config, memoized."""
    aig = CIRCUITS[name]()
    config = golden_config(name, aig.num_ands())
    key = (
        aig.num_pis, aig.num_pos, aig.num_ands(), depth(aig),
        tuple(sorted((k, tuple(v) if isinstance(v, (list, tuple)) else v)
                     for k, v in config.items())),
    )
    if key not in _cache:
        with LookaheadOptimizer(workers=1, **config) as opt:
            out = opt.optimize(aig)
        post = recover_area(out, effort=golden_area_effort(config))
        _cache[key] = (depth(out), out.num_ands(), post.num_ands())
    return _cache[key]


def _load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_covers_all_table2_circuits():
    golden = _load_golden()
    missing = sorted(set(BENCHMARKS) - set(golden))
    assert not missing, (
        f"Table 2 circuits without golden records: {missing}; "
        "run with --update-golden"
    )


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_golden_qor(name, update_golden):
    got_depth, got_ands, got_post = _golden_qor(name)
    if update_golden:
        golden = _load_golden() if os.path.exists(GOLDEN_PATH) else {}
        golden[name] = {
            "depth": got_depth, "ands": got_ands, "ands_post": got_post,
        }
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(golden, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    golden = _load_golden()
    assert name in golden, (
        f"{name} has no golden record; run with --update-golden"
    )
    want = golden[name]
    assert got_depth <= want["depth"], (
        f"{name}: depth regressed {want['depth']} -> {got_depth}"
    )
    limit = int(want["ands"] * (1 + AREA_DRIFT))
    assert got_ands <= limit, (
        f"{name}: area drifted >{AREA_DRIFT:.0%} "
        f"({want['ands']} -> {got_ands}, limit {limit}); if intended, "
        "bless with --update-golden"
    )
    assert got_post <= want["ands_post"], (
        f"{name}: post-recovery area regressed "
        f"{want['ands_post']} -> {got_post}; if intended, bless with "
        "--update-golden"
    )
