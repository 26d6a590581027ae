"""Additional properties of secondary simplification."""

import gc
import re
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import random_patterns
from repro.bench import BENCHMARKS
from repro.bench.table2 import golden_config
from repro.core import (
    BddModel,
    ExactCareChecker,
    ExactModel,
    LookaheadConfig,
    LookaheadOptimizer,
    SatCareChecker,
    SignatureModel,
    execute_optimize_job,
    normalize_job_config,
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
from repro.timing import AigTimingEngine, NetworkTimingEngine
from repro.tt import TruthTable

from ..aig.test_aig import random_aig
from ..bdd.test_bdd import tt_to_bdd
from .test_output_digests import _aag_digest


def _cone(seed):
    aig = random_aig(seed, n_pis=5, n_nodes=25, n_pos=1)
    return renode(aig, k=4).extract_po_cone(0)


class TestCareSetExtremes:
    # Each property holds in both exact domains; ``model.conj([])`` is
    # the domain's constant 1.

    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=10)
    def test_full_care_set_changes_nothing_wrong(self, seed):
        # care == const1: only genuinely unreachable vectors (structural
        # SDCs) may be dropped, so the PO function must stay identical.
        for model_cls in (ExactModel, BddModel):
            net = _cone(seed)
            before = net.po_tts()[0]
            model = model_cls(net)
            care = model.conj([])
            secondary_simplify(net, 0, ExactCareChecker(model, care))
            assert net.po_tts()[0] == before

    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=10)
    def test_empty_care_set_allows_anything(self, seed):
        # care == const0: every vector is a don't care; whatever the result
        # is, the invariant "y_neg == y on the care set" holds vacuously —
        # check it runs and the network stays well-formed.
        for model_cls in (ExactModel, BddModel):
            net = _cone(seed)
            model = model_cls(net)
            care = model.complement(model.conj([]))
            secondary_simplify(net, 0, ExactCareChecker(model, care))
            net.po_tts()  # evaluable, no dangling references

    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=10)
    def test_partial_care_preserves_on_care(self, seed):
        for model_cls in (ExactModel, BddModel):
            net = _cone(seed)
            before = net.po_tts()[0]
            model = model_cls(net)
            care = model.fn(net.pis[0])
            secondary_simplify(net, 0, ExactCareChecker(model, care))
            after = net.po_tts()[0]
            care_tt = TruthTable.var(0, len(net.pis))
            assert (care_tt & (after ^ before)).is_const0

    def test_max_nodes_cap(self):
        for model_cls in (ExactModel, BddModel):
            net = _cone(3)
            model = model_cls(net)
            care = model.complement(model.conj([]))
            changed = secondary_simplify(
                net, 0, ExactCareChecker(model, care), max_nodes=1
            )
            assert changed <= 1


class TestExactCareChecker:
    @given(
        st.integers(0, 10_000),
        st.integers(0, (1 << 64) - 1),
        st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                 min_size=1, max_size=3),
    )
    @settings(deadline=None, max_examples=25)
    def test_bdd_verdicts_match_truth_tables(self, seed, care, mutations):
        # One random renoded network, one random care function, a checker
        # per exact domain: every minterm of every node gets the same
        # verdict from both, before and after each mutation + refresh.
        net = renode(random_aig(seed, n_pis=6, n_nodes=60, n_pos=8), k=3)
        care = TruthTable(care, 6)
        tt_model, bdd_model = ExactModel(net), BddModel(net)
        checkers = (
            ExactCareChecker(tt_model, care),
            ExactCareChecker(bdd_model, tt_to_bdd(bdd_model.bdd, care)),
        )
        feeding = [
            n for n in net.topo_order()
            if any(n in net.nodes[o].fanins for o in net.nodes)
        ]
        assume(feeding)
        for step in range(len(mutations) + 1):
            if step:
                pick, bits = mutations[step - 1]
                nid = feeding[pick % len(feeding)]
                nvars = len(net.nodes[nid].fanins)
                mask = (1 << (1 << nvars)) - 1
                net.set_function(nid, TruthTable(bits & mask, nvars))
                for checker in checkers:
                    checker.refresh(nid)
            for nid, cube in _minterm_queries(net):
                want = checkers[0].cube_unreachable(nid, cube)
                assert checkers[1].cube_unreachable(nid, cube) == want

    def test_adder8_job_counts_exact_queries(self):
        # flow-mix's adder8 job (17 PIs) answers every care query in the
        # BDD domain; the counts are the same serial and in parallel.
        names = ("secondary.exact.calls", "secondary.exact.unreachable")
        config = normalize_job_config({"flow": "lookahead"})
        for workers in (1, 2):
            store_runtime.reset()
            before = [perf.counter(name) for name in names]
            execute_optimize_job(
                ripple_carry_adder(8), config, workers=workers
            )
            counts = [perf.counter(n) - b for n, b in zip(names, before)]
            assert counts == [3572, 398], workers
        store_runtime.reset()
        report = perf.report()
        for name in ("calls", "unreachable"):
            assert re.search(rf"secondary\.exact\.{name} +\d+", report)


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
    followed by ``refresh(node)``.  Without
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
                checker.refresh(nid)
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


class FreshSessionChecker(SatCareChecker):
    """Reference checker: every session encodes Σ1's cone anew."""

    def _ensure_solver(self):
        if self._solver is None:
            self._solver, self._strash = self._encode_sigma_cone()
            self._sec_vars = dict(zip(self.secondary_net.pis, self._pi_vars))
        return self._solver


def _care_session_trace(checker_cls, monkeypatch):
    """Every care solve of secondary simplification on the C432 problem.

    Returns ``(calls, output)``: each ``Solver.solve`` call's result,
    decisions and propagations, and the simplified network's local
    functions.
    """
    pos_net, sigma_nid, neg_net, neg_model, care_sig = _c432_care_problem()
    checker = checker_cls(neg_model, care_sig, pos_net, sigma_nid, neg_net)
    solve = Solver.solve
    calls = []

    def spy(solver, *args, **kwargs):
        decisions, props = solver.num_decisions, solver.num_propagations
        result = solve(solver, *args, **kwargs)
        calls.append((
            result,
            solver.num_decisions - decisions,
            solver.num_propagations - props,
        ))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(Solver, "solve", spy)
        secondary_simplify(neg_net, 0, checker)
    return calls, {nid: node.tt for nid, node in neg_net.nodes.items()}


class TestIncrementalCareState:
    @given(
        st.integers(0, 10_000),
        st.integers(0, 1 << 16),
        st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                 min_size=1, max_size=4),
    )
    @settings(deadline=None, max_examples=25)
    def test_refresh_matches_fresh_recomputation(
        self, seed, sigma_pick, mutations
    ):
        # The cone pair of check_session_verdicts.  After each mutation
        # and refresh(node), the signature words, the query fingerprints,
        # the witness words every pool lookup reads and the timing
        # engine's levels equal a recomputation from scratch.
        aig = random_aig(seed, n_pis=6, n_nodes=60, n_pos=8)
        primary, secondary = renode(aig, k=3), renode(aig, k=3)
        nodes = secondary.topo_order()
        feeding = [
            n for n in nodes
            if any(n in secondary.nodes[o].fanins for o in nodes)
        ]
        assume(feeding)
        order = primary.topo_order()
        sigma_nid = order[sigma_pick % len(order)]
        patterns = random_patterns(6, 64, seed)
        checker = SatCareChecker(
            SignatureModel(secondary, patterns, 64), 0, primary, sigma_nid,
            secondary,
        )
        timing = NetworkTimingEngine(secondary)
        timing.levels()
        queries = _minterm_queries(secondary)
        pool = checker._witnesses
        for pick, bits in mutations:
            # Queries harvest witnesses and fill fingerprints and words.
            for nid, cube in queries:
                checker.cube_unreachable(nid, cube)
            assume(pool.size)  # Σ1 is not constant 1
            nid = feeding[pick % len(feeding)]
            nvars = len(secondary.nodes[nid].fanins)
            mask = (1 << (1 << nvars)) - 1
            secondary.set_function(nid, TruthTable(bits & mask, nvars))
            checker.refresh(nid)
            timing.invalidate(nid)
            fresh = SignatureModel(secondary, patterns, 64)
            assert checker.sig_model.fns == fresh.fns
            assert checker._sec_fps == secondary.node_fingerprints()
            assert timing.levels() == compute_levels(secondary)
            found = [pool.condition(n, c) for n, c in queries]
            replay = SignatureModel(
                secondary, [pool.words[pi] for pi in secondary.pis],
                pool.size,
            )
            assert found == [replay.cube_condition(n, c) for n, c in queries]
            read = {
                f
                for n, c in queries
                for f in secondary.nodes[n].fanins
            }
            assert read <= pool.words.keys()
            for n, word in pool.words.items():
                assert word == replay.fns[n], n

    def test_restored_sessions_search_as_fresh_ones(self, monkeypatch):
        # Each session after a refresh restarts from a copy of the first
        # session's state right after Σ1's cone was encoded; query for
        # query it decides and propagates as a session encoded anew.
        names = ("secondary.session.built", "secondary.session.restored")
        before = [perf.counter(name) for name in names]
        restored = _care_session_trace(SatCareChecker, monkeypatch)
        built, restores = [
            perf.counter(name) - b for name, b in zip(names, before)
        ]
        assert (built, restores) == (1, 2)
        fresh = _care_session_trace(FreshSessionChecker, monkeypatch)
        assert len(restored[0]) > 50
        assert restored == fresh

    def test_profile_report_lists_session_counters(self):
        pos_net, sigma_nid, neg_net, neg_model, care_sig = _c432_care_problem()
        checker = SatCareChecker(
            neg_model, care_sig, pos_net, sigma_nid, neg_net
        )
        nodes = perf.counter("secondary.refresh.nodes")
        changed = secondary_simplify(neg_net, 0, checker)
        assert changed
        assert perf.counter("secondary.refresh.nodes") - nodes >= changed
        report = perf.report()
        for name in ("session.built", "session.restored", "refresh.nodes"):
            assert re.search(rf"secondary\.{name} +\d+", report)


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

    def _c432_budget_counts(self):
        """(UNKNOWN verdicts, widened retries, retries ending UNKNOWN,
        retry propagations) of one C432 optimize."""
        store_runtime.reset()
        names = (
            "secondary.sat.unknown",
            "secondary.sat.widened",
            "secondary.sat.widened.unknown",
            "secondary.sat.widened.propagations",
        )
        before = [perf.counter(name) for name in names]
        with LookaheadOptimizer(
            workers=1, max_rounds=1, max_outputs_per_round=4
        ) as opt:
            opt.optimize(BENCHMARKS["C432"]())
        return [perf.counter(name) - b for name, b in zip(names, before)]

    def test_sigma_cone_queries_reuse_primary_variables(self):
        # The optimizer's cone pair: both networks come from one circuit,
        # so a secondary node inside Σ1's cone is structurally a primary
        # node the session has already encoded.
        aig = ripple_carry_adder(8)
        primary, secondary = renode(aig), renode(aig)
        sigma_nid = primary.pos[-1][0]
        cone = primary.fanin_cone([sigma_nid])
        patterns = random_patterns(len(aig.pis), 64, 0)
        checker = SatCareChecker(
            SignatureModel(secondary, patterns, 64),
            0,
            primary,
            sigma_nid,
            secondary,
        )
        solver = checker._ensure_solver()
        nvars = solver.num_vars
        calls = perf.counter("secondary.sat.calls")
        queries = [
            (nid, cube)
            for nid, cube in _minterm_queries(secondary)
            if nid in cone
        ]
        assert len(queries) > 20
        with _witness_pool(False):
            for nid, cube in queries:
                checker.cube_unreachable(nid, cube)
                assert solver.num_vars == nvars, (nid, cube)
        assert perf.counter("secondary.sat.calls") - calls == len(queries)

    def _c432_care_work(self, workers):
        store_runtime.reset()
        names = ("secondary.sat.propagations", "secondary.sat.conflicts")
        before = [perf.counter(name) for name in names]
        with LookaheadOptimizer(
            workers=workers, max_rounds=1, max_outputs_per_round=4
        ) as opt:
            opt.optimize(BENCHMARKS["C432"]())
        return [perf.counter(name) - b for name, b in zip(names, before)]

    def test_care_solver_work_is_counted_deterministically(self):
        work = self._c432_care_work(1)
        assert all(work)
        assert self._c432_care_work(1) == work
        assert self._c432_care_work(2) == work
        report = perf.report()
        for name in ("propagations", "conflicts"):
            assert re.search(rf"secondary\.sat\.{name} +\d+", report)

    def test_budget_exhausted_verdicts_are_counted(self, monkeypatch):
        assert self._c432_budget_counts() == [0, 0, 0, 0]
        # --profile prints this report; the counts are listed even at zero.
        report = perf.report()
        for name in ("unknown", "widened", "widened.unknown",
                     "widened.propagations"):
            assert re.search(rf"secondary\.sat\.{name} +\d+", report)
        monkeypatch.setattr(SatCareChecker, "max_conflicts", 0)
        unknown, widened, widened_unknown, widened_props = (
            self._c432_budget_counts()
        )
        assert unknown > 0
        # An UNKNOWN verdict is a PI-only search and its widened retry
        # that both ran out; a retry may answer where the first try did
        # not, even on a zero budget.
        assert widened >= unknown
        assert widened_unknown == unknown
        assert widened_props > 0

    def test_widened_retry_keeps_dalu(self):
        # One dalu care query exhausts its budget branching on the PIs
        # alone; the retry that branches on every variable answers it,
        # so the output is the one the unrestricted search gave.
        store_runtime.reset()
        aig = BENCHMARKS["dalu"]()
        names = ("secondary.sat.widened", "secondary.sat.unknown")
        before = [perf.counter(name) for name in names]
        with LookaheadOptimizer(
            workers=1, **golden_config("dalu", aig.num_ands())
        ) as opt:
            out = opt.optimize(aig)
        widened, unknown = [
            perf.counter(name) - b for name, b in zip(names, before)
        ]
        assert widened >= 1
        assert unknown == 0
        assert _aag_digest(out) == "926b093a86c15c67"

    def test_care_queries_decide_only_on_inputs(self, monkeypatch):
        pos_net, sigma_nid, neg_net, neg_model, care_sig = _c432_care_problem()
        checker = SatCareChecker(
            neg_model, care_sig, pos_net, sigma_nid, neg_net
        )
        decide = Solver._decide
        decided = []

        def spy(solver):
            ilit = decide(solver)
            if ilit >= 0:
                decided.append((ilit >> 1) + 1 in checker._pi_vars)
            return ilit

        monkeypatch.setattr(Solver, "_decide", spy)
        widened = perf.counter("secondary.sat.widened")
        secondary_simplify(neg_net, 0, checker)
        assert perf.counter("secondary.sat.widened") == widened
        assert decided and all(decided)

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
            # secondary_simplify may end on a refresh(nid), which drops the
            # session; the next query past the fast paths restores it from
            # the checker's snapshot.
            checker._ensure_solver()
            del checker
            garbage = gc.collect()
        finally:
            gc.enable()
        assert perf.counter("secondary.sat.calls") > calls
        assert garbage == 0
