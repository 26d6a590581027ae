"""Additional properties of secondary simplification."""

import gc
import re
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.aig import random_patterns
from repro.bench import BENCHMARKS
from repro.core import (
    ExactCareChecker,
    ExactModel,
    LookaheadConfig,
    LookaheadOptimizer,
    SatCareChecker,
    SignatureModel,
    primary_reduce,
    secondary_simplify,
)
from repro.core import secondary as secondary_module
from repro.core.lookahead import RENODE_K, _cone_spcf, _domain_model
from repro.netlist import compute_levels, renode
from repro.netlist.encode import encode_network
from repro.sat import Solver
from repro.sop import Cube
from repro.store import runtime as store_runtime
from repro.timing import AigTimingEngine
from repro.tt import TruthTable

from ..aig.test_aig import random_aig


def _cone(seed):
    aig = random_aig(seed, n_pis=5, n_nodes=25, n_pos=1)
    return renode(aig, k=4).extract_po_cone(0)


class TestCareSetExtremes:
    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=10)
    def test_full_care_set_changes_nothing_wrong(self, seed):
        # care == const1: only genuinely unreachable vectors (structural
        # SDCs) may be dropped, so the PO function must stay identical.
        net = _cone(seed)
        before = net.po_tts()[0]
        model = ExactModel(net)
        care = TruthTable.const(True, len(net.pis))
        secondary_simplify(net, 0, ExactCareChecker(model, care))
        assert net.po_tts()[0] == before

    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=10)
    def test_empty_care_set_allows_anything(self, seed):
        # care == const0: every vector is a don't care; whatever the result
        # is, the invariant "y_neg == y on the care set" holds vacuously —
        # check it runs and the network stays well-formed.
        net = _cone(seed)
        model = ExactModel(net)
        care = TruthTable.const(False, len(net.pis))
        secondary_simplify(net, 0, ExactCareChecker(model, care))
        net.po_tts()  # evaluable, no dangling references

    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=10)
    def test_partial_care_preserves_on_care(self, seed):
        net = _cone(seed)
        before = net.po_tts()[0]
        model = ExactModel(net)
        care = TruthTable.var(0, len(net.pis))
        secondary_simplify(net, 0, ExactCareChecker(model, care))
        after = net.po_tts()[0]
        assert (care & (after ^ before)).is_const0

    def test_max_nodes_cap(self):
        net = _cone(3)
        model = ExactModel(net)
        care = TruthTable.const(False, len(net.pis))
        changed = secondary_simplify(
            net, 0, ExactCareChecker(model, care), max_nodes=1
        )
        assert changed <= 1


def full_encoding_verdicts(primary, sigma_nid, secondary, queries):
    """Reference care check: both whole networks in one CNF, no budget.

    ``(nid, cube)`` is unreachable iff ``!Σ1 AND (fan-ins of nid in
    cube)`` is UNSAT.  The checker's session encodes only Σ1's cone and
    the queried cones, memoizes its proofs and runs on a conflict budget;
    on small networks every one of its verdicts must equal this one.
    """
    solver = Solver()
    prim_vars = encode_network(solver, primary)
    pi_vars = [prim_vars[pi] for pi in primary.pis]
    sec_vars = encode_network(solver, secondary, pi_vars=pi_vars)
    verdicts = []
    for nid, cube in queries:
        fanins = secondary.nodes[nid].fanins
        assumptions = [-prim_vars[sigma_nid]]
        for var, pol in cube.literals():
            sv = sec_vars[fanins[var]]
            assumptions.append(sv if pol else -sv)
        verdicts.append(solver.solve(assumptions) is False)
    return verdicts


def _witness_pool(pool):
    """Leave the witness pool on, or switch it off (limit 0)."""
    limit = secondary_module.WITNESS_POOL_LIMIT if pool else 0
    return mock.patch.object(secondary_module, "WITNESS_POOL_LIMIT", limit)


def _minterm_queries(net):
    """Every minterm cube of every node with fan-ins."""
    return [
        (nid, Cube.from_minterm(m, len(net.nodes[nid].fanins)))
        for nid in net.topo_order()
        if net.nodes[nid].fanins
        for m in range(1 << len(net.nodes[nid].fanins))
    ]


def check_session_verdicts(pool, seed, sigma_pick, mutations):
    """Compare every session verdict with :func:`full_encoding_verdicts`.

    Like the optimizer's cone pair, Σ1 is a node of one copy of a random
    network and the other copy is queried under !Σ1: every minterm cube
    of every node, twice (the second pass answers its proofs from the
    memo, counted as ``secondary.memo.hit``), then again after each
    ``(node pick, truth table)`` mutation of a node that feeds another,
    followed by ``refresh()``.  Without
    the witness pool (``pool=False``) every reachable cube goes to the
    memo and the solver too, instead of mostly to a pooled witness.
    """
    aig = random_aig(seed, n_pis=6, n_nodes=60, n_pos=8)
    primary, secondary = renode(aig, k=3), renode(aig, k=3)
    nodes = secondary.topo_order()
    feeding = [
        n for n in nodes if any(n in secondary.nodes[o].fanins for o in nodes)
    ]
    assume(feeding)
    sigma_nid = primary.topo_order()[sigma_pick % len(primary.topo_order())]
    # An empty care signature sends every query past the simulation
    # pre-filter, to the witness pool, the memo and the solver.
    checker = SatCareChecker(
        SignatureModel(secondary, random_patterns(6, 64, seed), 64),
        0,
        primary,
        sigma_nid,
        secondary,
    )
    with _witness_pool(pool):
        for step in range(len(mutations) + 1):
            if step:
                pick, bits = mutations[step - 1]
                nid = feeding[pick % len(feeding)]
                nvars = len(secondary.nodes[nid].fanins)
                mask = (1 << (1 << nvars)) - 1
                secondary.set_function(nid, TruthTable(bits & mask, nvars))
                checker.refresh()
            queries = _minterm_queries(secondary)
            want = full_encoding_verdicts(
                primary, sigma_nid, secondary, queries
            )
            for repeat in range(2):
                hits = perf.counter("secondary.memo.hit")
                got = [checker.cube_unreachable(n, c) for n, c in queries]
                assert got == want
                if repeat:  # the repeat pass takes every proof from the memo
                    assert perf.counter("secondary.memo.hit") - hits == sum(got)


def _c432_care_problem():
    """Σ1 of C432's first decomposable critical output, and its care set.

    Returns ``(pos_net, sigma_nid, neg_net, neg_model, care_sig)``, the
    arguments the optimizer gives :class:`SatCareChecker` for that cone.
    """
    aig = BENCHMARKS["C432"]()
    config = LookaheadConfig()
    net = renode(aig, RENODE_K)
    for po_index in AigTimingEngine(aig).critical_pos():
        found = _cone_spcf(aig.extract([aig.pos[po_index]]), "sim", config)
        if found is None:
            continue
        spcf = found[1]
        pos_net = net.extract_po_cone(po_index)
        model = _domain_model(pos_net, spcf, config.sim_width, config.seed)
        result = primary_reduce(pos_net, 0, model, model.spcf_fn(spcf))
        if result.sigma_nid is None:
            continue
        model.recompute()
        neg_net = net.extract_po_cone(po_index)
        neg_model = _domain_model(neg_net, spcf, config.sim_width, config.seed)
        care_sig = model.complement(model.fn(result.sigma_nid))
        return pos_net, result.sigma_nid, neg_net, neg_model, care_sig
    raise AssertionError("no decomposable critical output on C432")


POOL = pytest.mark.parametrize(
    "pool", [True, False], ids=["pool", "no-pool"]
)


class TestSatCareSession:
    @POOL
    @given(
        st.integers(0, 10_000),
        st.integers(0, 1 << 16),
        st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                 min_size=1, max_size=3),
    )
    @settings(deadline=None, max_examples=20)
    def test_verdicts_match_full_encoding_reference(
        self, pool, seed, sigma_pick, mutations
    ):
        check_session_verdicts(pool, seed, sigma_pick, mutations)

    def _c432_unknowns(self):
        store_runtime.reset()
        before = perf.counter("secondary.sat.unknown")
        with LookaheadOptimizer(
            workers=1, max_rounds=1, max_outputs_per_round=4
        ) as opt:
            opt.optimize(BENCHMARKS["C432"]())
        return perf.counter("secondary.sat.unknown") - before

    def test_budget_exhausted_verdicts_are_counted(self, monkeypatch):
        assert self._c432_unknowns() == 0
        # --profile prints this report; the count is listed even at zero.
        assert re.search(r"secondary\.sat\.unknown +\d+", perf.report())
        monkeypatch.setattr(SatCareChecker, "max_conflicts", 0)
        assert self._c432_unknowns() > 0

    @POOL
    def test_session_leaves_no_cyclic_garbage(self, pool):
        pos_net, sigma_nid, neg_net, neg_model, care_sig = _c432_care_problem()
        calls = perf.counter("secondary.sat.calls")
        gc.collect()
        gc.disable()
        try:
            with _witness_pool(pool):
                checker = SatCareChecker(
                    neg_model, care_sig, pos_net, sigma_nid, neg_net
                )
                secondary_simplify(neg_net, 0, checker, max_nodes=24)
            # secondary_simplify may end on a refresh(), which drops the
            # session; the next query past the fast paths rebuilds it.
            checker._ensure_solver()
            del checker
            garbage = gc.collect()
        finally:
            gc.enable()
        assert perf.counter("secondary.sat.calls") > calls
        assert garbage == 0
