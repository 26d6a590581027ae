"""The incremental redundancy-removal engine and the effort pipeline."""

import re

import pytest

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import AIG, depth
from repro.cec import check_equivalence
from repro.core import (
    AREA_EFFORTS,
    LookaheadOptimizer,
    recover_area,
    remove_redundant_edges,
)
from repro.verify.random_circuits import random_aig


def _redundant_chain_aig():
    """A chain where one accepted drop exposes the next.

    ``top = ((a & b) & (a | b)) & (a | c)``: the ``(a | b)`` edge is
    redundant (``a & b`` implies it), and once the inner AND collapses to
    ``a & b``, the ``(a | c)`` edge becomes redundant in turn — but only
    through the *resolved* fan-in, which is what the fanout-driven
    worklist re-enqueues.
    """
    aig = AIG()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    inner = aig.and_(aig.and_(a, b), aig.or_(a, b))
    top = aig.and_(inner, aig.or_(a, c))
    aig.add_po(top)
    return aig


class TestRedundancyEngine:
    def test_removes_redundant_conjunct(self):
        aig = AIG()
        a, b = aig.add_pi(), aig.add_pi()
        aig.add_po(aig.and_(aig.and_(a, b), aig.or_(a, b)))
        out = remove_redundant_edges(aig)
        assert check_equivalence(aig, out)
        assert out.num_ands() == 1

    def test_worklist_cascades_through_accepted_drops(self):
        aig = _redundant_chain_aig()
        out = remove_redundant_edges(aig)
        assert check_equivalence(aig, out)
        # Both redundant edges fall; only `a & b` survives.
        assert out.num_ands() == 1

    def test_constant_and_duplicate_folds(self):
        aig = AIG()
        a, b = aig.add_pi(), aig.add_pi()
        ab = aig.and_(a, b)
        aig.add_po(aig.and_(ab, ab))        # duplicate fan-in
        aig.add_po(aig.and_(ab, 1))         # constant-1 fan-in
        contradiction = aig.and_(aig.and_(a, b), aig.and_(a, 2 ^ b))
        aig.add_po(contradiction)           # b & !b below: constant 0
        out = remove_redundant_edges(aig)
        assert check_equivalence(aig, out)

    def test_prefilter_counters_under_profile(self):
        perf.reset()
        aig = ripple_carry_adder(4)
        out = remove_redundant_edges(aig)
        assert check_equivalence(aig, out)
        snap = perf.snapshot()["counters"]
        # The adder has no redundant edges: simulation should discharge
        # (nearly) everything without consulting the solver.
        assert snap.get("area.prefilter.hit", 0) > 0
        report = perf.report()
        assert "area prefilter hit rate" in report

    def test_zero_sim_width_forces_sat_and_harvests_witnesses(self):
        # With no simulation patterns every candidate reaches the solver;
        # SAT answers must come back as witnesses (testable edges) and the
        # result must still be correct.
        perf.reset()
        aig = ripple_carry_adder(4)
        out = remove_redundant_edges(aig, sim_width=0, max_checks=10000)
        assert check_equivalence(aig, out)
        snap = perf.snapshot()["counters"]
        assert snap.get("area.redundancy.queries", 0) > 0
        assert snap.get("area.redundancy.witnesses", 0) > 0

    def test_never_worse_on_random_circuits(self):
        for seed in range(8):
            aig = random_aig(__import__("random").Random(seed))
            out = remove_redundant_edges(aig)
            assert check_equivalence(aig, out), f"seed {seed}"
            assert depth(out) <= depth(aig), f"seed {seed}"
            assert out.num_ands() <= aig.extract().num_ands(), f"seed {seed}"


class TestRecoverArea:
    def test_effort_levels_all_equivalent(self):
        aig = _redundant_chain_aig()
        sizes = {}
        for effort in AREA_EFFORTS:
            out = recover_area(aig, effort=effort)
            assert check_equivalence(aig, out), effort
            assert depth(out) <= depth(aig), effort
            sizes[effort] = out.num_ands()
        # More effort never gives a bigger circuit.
        assert sizes["medium"] <= sizes["low"]
        assert sizes["high"] <= sizes["medium"]

    def test_medium_catches_what_sweeping_alone_cannot(self):
        # `c & (t | c)` is equivalent to the PI `c` — the sweep only ever
        # merges AND nodes onto AND (or constant) representatives, so the
        # sweep-only effort keeps it; the redundancy pass collapses the
        # node onto its PI fan-in via `c -> (t | c)`.
        aig = AIG()
        c, t = aig.add_pi(), aig.add_pi()
        aig.add_po(aig.and_(c, aig.or_(t, c)))
        low = recover_area(aig, effort="low")
        medium = recover_area(aig, effort="medium")
        assert check_equivalence(aig, medium)
        assert low.num_ands() == 2
        assert medium.num_ands() == 0

    def test_profile_report_lists_area_unknowns(self):
        aig = AIG()
        a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
        aig.add_po(aig.or_(aig.and_(a, b), aig.and_(a, c)))
        aig.add_po(aig.and_(a, aig.or_(b, c)))
        perf.reset()
        recover_area(aig)
        assert perf.counter("area.sweep.queries") > 0
        # --profile prints this report; the counts are listed even at zero.
        report = perf.report()
        for name in ("area.sweep.unknown", "area.redundancy.unknown"):
            assert re.search(rf"{re.escape(name)} +0\n", report), name
        assert "sweep witness hit rate" in report

    def test_unknown_effort_rejected(self):
        with pytest.raises(ValueError, match="area effort"):
            recover_area(AIG(), effort="extreme")
        with pytest.raises(ValueError, match="area effort"):
            LookaheadOptimizer(area_effort="extreme")

    def test_optimizer_threads_effort_through(self):
        aig = ripple_carry_adder(3)
        for effort in AREA_EFFORTS:
            with LookaheadOptimizer(
                max_rounds=1, area_effort=effort, workers=1
            ) as opt:
                out = opt.optimize(aig)
            assert check_equivalence(aig, out), effort
            assert depth(out) <= depth(aig), effort

    def test_no_area_recovery_stays_available(self):
        aig = ripple_carry_adder(3)
        with LookaheadOptimizer(
            max_rounds=1, area_recovery=False, workers=1
        ) as opt:
            out = opt.optimize(aig)
        assert check_equivalence(aig, out)
