"""Budget/limit behavior of area recovery."""

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import AIG, depth, po_tts
from repro.cec import check_equivalence
from repro.core import remove_redundant_edges, sat_sweep
from repro.core import area_recovery as area_recovery_mod
from repro.timing import AigTimingEngine, PrescribedArrival


def duplicated_logic_aig():
    aig = AIG()
    a, b, c = (aig.add_pi() for _ in range(3))
    f = aig.or_(aig.and_(a, b), aig.and_(a, c))
    g = aig.and_(a, aig.or_(b, c))
    aig.add_po(f)
    aig.add_po(g)
    return aig


def test_size_limit_skips_sweeping():
    aig = duplicated_logic_aig()
    swept = sat_sweep(aig, size_limit=1)
    # Above the size limit only structural cleanup happens; the two
    # equal-function cones survive separately.
    assert check_equivalence(aig, swept)
    full = sat_sweep(aig)
    assert full.num_ands() < swept.num_ands()


def test_max_pairs_zero_changes_nothing():
    aig = duplicated_logic_aig()
    swept = sat_sweep(aig, max_pairs=0)
    assert swept.num_ands() == aig.extract().num_ands()


def test_unknown_budget_is_safe():
    # With an absurdly tiny conflict budget every proof is "unknown" and
    # no merge happens — but the result stays equivalent.
    aig = ripple_carry_adder(5)
    swept = sat_sweep(aig, max_conflicts=0)
    assert check_equivalence(aig, swept)


def test_merge_does_not_deepen():
    aig = duplicated_logic_aig()
    swept = sat_sweep(aig)
    assert depth(swept) <= depth(aig)
    assert po_tts(swept) == po_tts(aig)


# -- the max_pairs budget is global, not per-class ---------------------------


def _pairwise_duplicates(num_pairs):
    """``num_pairs`` disjoint equivalence classes of two members each."""
    aig = AIG()
    for _ in range(num_pairs):
        a, b = aig.add_pi(), aig.add_pi()
        f = aig.and_(a, b)
        g = aig.and_(aig.and_(a, b), aig.or_(a, b))  # == a & b, distinct node
        aig.add_po(f)
        aig.add_po(g)
    return aig


def _counting_cnf(monkeypatch, calls):
    """Patch area_recovery's AigCnf so every solver call is counted."""

    class CountingCnf(area_recovery_mod.AigCnf):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            real = self.solver.solve

            def counted(*a, **k):
                calls.append(1)
                return real(*a, **k)

            self.solver.solve = counted

    monkeypatch.setattr(area_recovery_mod, "AigCnf", CountingCnf)


def _swept_pairs(monkeypatch, max_pairs):
    """Sweep four disjoint pairs; (pairs sent to the solver, solver calls).

    A pair is proved with up to two solver calls, so pairs are counted
    through ``area.sweep.queries`` and the calls only bounded by them.
    """
    calls = []
    _counting_cnf(monkeypatch, calls)
    before = perf.counter("area.sweep.queries")
    swept = sat_sweep(_pairwise_duplicates(4), max_pairs=max_pairs)
    assert check_equivalence(_pairwise_duplicates(4), swept)
    return perf.counter("area.sweep.queries") - before, len(calls)


def test_sweep_pair_budget_caps_total_queries(monkeypatch):
    # Four two-member classes offer four candidate pairs; a budget of two
    # must stop the scan globally — remaining classes may not keep
    # burning SAT queries after the budget is gone.
    pairs, calls = _swept_pairs(monkeypatch, max_pairs=2)
    assert pairs == 2
    assert calls <= 2 * pairs


def test_sweep_uses_one_query_per_candidate_pair(monkeypatch):
    pairs, calls = _swept_pairs(monkeypatch, max_pairs=100)
    assert pairs == 4
    assert calls <= 2 * pairs


# -- redundancy-removal budgets ----------------------------------------------


def redundant_conjunct_aig():
    aig = AIG()
    a, b = aig.add_pi(), aig.add_pi()
    aig.add_po(aig.and_(aig.and_(a, b), aig.or_(a, b)))
    return aig


def test_redundancy_max_checks_zero_changes_nothing():
    aig = redundant_conjunct_aig()
    out = remove_redundant_edges(aig, max_checks=0)
    assert out.num_ands() == aig.extract().num_ands()
    assert check_equivalence(aig, out)


def test_redundancy_unknown_budget_is_safe():
    # Every bounded query returns unknown: no edge may be dropped, and the
    # result must stay equivalent (budget-unknown = keep edge).
    aig = ripple_carry_adder(5)
    out = remove_redundant_edges(aig, max_conflicts=0)
    assert check_equivalence(aig, out)


# -- the never-worsen-arrival merge guard ------------------------------------


def _skewed_pair_aig():
    """Two depth-equal realizations of ``a & b & c``.

    ``slow`` leads with the late input ``a``; ``fast`` hides it behind the
    early pair.  Both have unit depth 2, but under ``a``'s prescribed
    arrival of 4 their completion times are 6 vs 5.
    """
    aig = AIG()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    c = aig.add_pi("c")
    slow = aig.and_(aig.and_(a, b), c)
    fast = aig.and_(a, aig.and_(b, c))
    aig.add_po(slow, "slow")
    aig.add_po(fast, "fast")
    return aig


def test_arrival_guard_rejects_depth_neutral_worsening_merge():
    aig = _skewed_pair_aig()
    swept = sat_sweep(aig, delay_model=PrescribedArrival({"a": 4}))
    assert check_equivalence(aig, swept)
    engine = AigTimingEngine(swept, PrescribedArrival({"a": 4}))
    # Merging `fast` onto the earlier-id `slow` cone would be depth-neutral
    # but would move its completion from 5 to 6; the guard must reject it.
    assert engine.po_arrivals()[1] == 5


def test_same_merge_is_taken_under_unit_delay():
    aig = _skewed_pair_aig()
    swept = sat_sweep(aig)  # unit delay: the merge is arrival-neutral
    assert check_equivalence(aig, swept)
    assert swept.num_ands() < aig.extract().num_ands()


def test_sweep_on_unextracted_input_never_grows():
    """A live node must not merge onto a *dead* representative.

    Found by the ``area_recovery_equiv`` fuzz invariant (seed 1, case
    1111): a live node merging onto a dead earlier-id representative with
    a *larger* cone resurrects that cone and grows the extracted result.
    Dead representatives stay eligible (a smaller dead cone is a real
    win the seed goldens rely on), but a net-growing sweep must roll back
    to the structural cleanup.
    """
    aig = AIG()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    ab = aig.and_(a, b)
    bc = aig.and_(b, c)
    aig.and_(ab, bc)  # dead, == a&b&c, 3-AND cone, smallest class id
    live = aig.and_(a, bc)  # live, == a&b&c, 2-AND cone
    aig.add_po(live)
    assert aig.extract().num_ands() == 2
    swept = sat_sweep(aig)
    assert check_equivalence(aig, swept)
    assert swept.num_ands() <= 2
    # The redundancy engine only ever collapses nodes onto their own
    # (live) fan-ins, so it cannot resurrect dead cones either.
    out = remove_redundant_edges(aig)
    assert check_equivalence(aig, out)
    assert out.num_ands() <= 2
