"""Area recovery against exhaustive truth tables on small random AIGs.

With conflict budgets no query can exhaust, both passes must decide
every candidate exactly as the truth tables (``node_tts``) do: the sweep
merges a class member iff it equals its representative up to
complement, and the redundancy pass drops an edge iff ``keep -> drop``.
"""

import random

import pytest

from repro import perf
from repro.aig import AIG, CONST0, lit_neg, lit_notif, lit_var, node_tts
from repro.core.area_recovery import (
    RedundancyEngine,
    _sweep_classes,
    _sweep_merges,
)
from repro.verify.random_circuits import random_aig

BUDGET = 100_000
"""Conflicts per query: far beyond anything a 10-PI cone needs."""

SEEDS = range(12)


def _small_aig(seed):
    rng = random.Random(seed)
    return random_aig(
        rng, num_pis=rng.randint(3, 10), num_gates=rng.randint(10, 60)
    )


def _lit_tt(tts, lit):
    tt = tts[lit_var(lit)]
    return ~tt if lit_neg(lit) else tt


def _counters(*names):
    return {name: perf.counter(name) for name in names}


@pytest.mark.parametrize("sim_width", [2, 8, 1024])
def test_sweep_merges_exactly_the_equal_members(sim_width):
    # Narrow signatures make coarse classes, so many pairs are
    # disproved by the solver or by an earlier pair's model.
    before = _counters("area.sweep.witness_hits", "area.sweep.unknown")
    for seed in SEEDS:
        aig = _small_aig(seed)
        tts = node_tts(aig)
        classes = _sweep_classes(aig, sim_width, seed)
        replacement = _sweep_merges(aig, classes, BUDGET, BUDGET)
        expected = {}
        for rep, *members in classes:
            for lit in members:
                if _lit_tt(tts, lit) == _lit_tt(tts, rep):
                    expected[lit_var(lit)] = lit_notif(rep, lit_neg(lit))
        assert replacement == expected, f"seed {seed}"
    after = _counters("area.sweep.witness_hits", "area.sweep.unknown")
    assert after["area.sweep.unknown"] == before["area.sweep.unknown"]
    if sim_width == 2:
        assert (
            after["area.sweep.witness_hits"]
            > before["area.sweep.witness_hits"]
        )


@pytest.mark.parametrize("sim_width", [0, 512])
def test_redundancy_drops_exactly_the_implied_edges(sim_width):
    before = perf.counter("area.redundancy.unknown")
    for seed in SEEDS:
        aig = _small_aig(seed)
        tts = node_tts(aig)
        engine = RedundancyEngine(
            aig, max_checks=BUDGET, sim_width=sim_width,
            max_conflicts=BUDGET,
        )
        engine.run()
        # Every AND is tried once, in var order, after its fan-ins.
        for var in aig.and_vars():
            f0, f1 = (engine._resolve(lit) for lit in aig.fanins(var))
            t0, t1 = _lit_tt(tts, f0), _lit_tt(tts, f1)
            target = engine.replacement.get(var)
            if target == CONST0:
                assert (t0 & t1).is_const0, f"seed {seed} var {var}"
                continue
            implied = [
                keep for keep, tk, td in ((f0, t0, t1), (f1, t1, t0))
                if (tk & ~td).is_const0
            ]
            if target is None:
                assert not implied, f"seed {seed} var {var}"
            else:
                assert target == implied[0], f"seed {seed} var {var}"
    assert perf.counter("area.redundancy.unknown") == before


def _witness_class_aig():
    """``rep = a&b``, two copies of ``a&b&c``, and ``(a&b)&(a|b) == rep``."""
    aig = AIG()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    rep = aig.and_(a, b)
    first = aig.and_(rep, c)
    second = aig.and_(a, aig.and_(b, c))
    equal = aig.and_(aig.and_(a, b), aig.or_(a, b))
    return aig, [rep, first, second, equal]


def test_witness_separated_member_does_not_block_a_later_merge():
    aig, members = _witness_class_aig()
    names = (
        "area.sweep.queries", "area.sweep.witness_hits", "area.sweep.merges"
    )
    before = _counters(*names)
    replacement = _sweep_merges(aig, [members], BUDGET, BUDGET)
    counts = {n: perf.counter(n) - before[n] for n in names}
    # `first`'s model tells `second` from `rep` without the solver; the
    # equal member after it is still proved and merged.
    assert counts == {
        "area.sweep.queries": 2,
        "area.sweep.witness_hits": 1,
        "area.sweep.merges": 1,
    }
    assert replacement == {lit_var(members[3]): members[0]}


def test_witness_answered_pairs_count_against_max_pairs():
    aig, members = _witness_class_aig()
    # The budget runs out on the witness-answered pair, before `equal`.
    assert _sweep_merges(aig, [members], 2, BUDGET) == {}
