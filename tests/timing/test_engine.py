"""The unified timing engine vs. independent reference implementations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import depth, levels, lit_var, required_times
from repro.netlist import compute_levels, renode
from repro.timing import (
    INF,
    AigTimingEngine,
    LoadAwareDelay,
    NetworkTimingEngine,
    PrescribedArrival,
    UnitDelay,
)

from ..aig.test_aig import random_aig


def reference_levels(aig, pi_arrivals=None):
    """Straight-line unit-delay forward pass, independent of the engine."""
    lvl = [0] * aig.num_vars
    for i, pi in enumerate(aig.pis):
        lvl[pi] = pi_arrivals[i] if pi_arrivals else 0
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        lvl[var] = 1 + max(lvl[lit_var(f0)], lvl[lit_var(f1)])
    return lvl


def reference_arrivals(aig, model):
    """Per-node forward pass under any model: fanout counts, PI arrivals
    and gate delays asked of the model node by node."""
    fanouts = [0] * aig.num_vars
    for var in aig.and_vars():
        for fi in aig.fanins(var):
            fanouts[lit_var(fi)] += 1
    for po in aig.pos:
        fanouts[lit_var(po)] += 1
    arr = [0] * aig.num_vars
    for i, (pi, name) in enumerate(zip(aig.pis, aig.pi_names)):
        arr[pi] = model.pi_arrival(i, name)
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        fo = fanouts[var] if model.gate_delay(1) != model.gate_delay(2) else 1
        arr[var] = model.gate_delay(fo) + max(
            arr[lit_var(f0)], arr[lit_var(f1)]
        )
    return arr


def reference_required(aig, lvl, target):
    req = [INF] * aig.num_vars
    for po in aig.pos:
        req[lit_var(po)] = min(req[lit_var(po)], float(target))
    for var in reversed(list(aig.and_vars())):
        if req[var] == INF:
            continue
        f0, f1 = aig.fanins(var)
        for fi in (f0, f1):
            req[lit_var(fi)] = min(req[lit_var(fi)], req[var] - 1)
    return req


class TestUnitEngineMatchesLegacy:
    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=25)
    def test_arrivals_match_reference_and_facade(self, seed):
        aig = random_aig(seed)
        engine = AigTimingEngine(aig)
        assert list(engine.arrivals()) == reference_levels(aig)
        assert list(engine.arrivals()) == levels(aig)
        assert all(isinstance(a, int) for a in engine.arrivals())

    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=25)
    def test_depth_matches_facade(self, seed):
        aig = random_aig(seed)
        assert AigTimingEngine(aig).depth() == depth(aig)

    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=15)
    def test_required_times_match_reference(self, seed):
        aig = random_aig(seed)
        engine = AigTimingEngine(aig)
        lvl = reference_levels(aig)
        ref = reference_required(aig, lvl, engine.depth())
        got = engine.required_times()
        assert [got[v] for v in range(aig.num_vars)] == ref
        assert got == required_times(aig)

    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=15)
    def test_critical_vars_have_zero_slack(self, seed):
        aig = random_aig(seed)
        engine = AigTimingEngine(aig)
        arr = engine.arrivals()
        req = engine.required_times()
        for var in engine.critical_vars():
            assert req[var] == arr[var]
            assert engine.slack(var) == 0


ENGINE_MODELS = {
    "unit": UnitDelay,
    "prescribed": lambda: PrescribedArrival({"pi0": 2, "pi3": 1, "late": 4}),
    "load": lambda: LoadAwareDelay(arrivals={"pi1": 30.0, "late": 55.0}),
}


class TestIncrementalEqualsFull:
    @given(st.sampled_from(sorted(ENGINE_MODELS)), st.integers(0, 40))
    @settings(deadline=None, max_examples=30)
    def test_appending_extends_incrementally(self, model_name, seed):
        import random

        rng = random.Random(seed)
        model = ENGINE_MODELS[model_name]()
        aig = random_aig(seed)
        engine = AigTimingEngine(aig, model)
        engine.arrivals()  # full pass over the prefix
        lits = [var * 2 for var in range(1, aig.num_vars)]
        for step in range(4):
            # Appended ANDs, with a PI among them, then a query.
            if step == 2:
                lits.append(aig.add_pi("late"))
            for _ in range(5):
                a = rng.choice(lits) ^ rng.randint(0, 1)
                b = rng.choice(lits) ^ rng.randint(0, 1)
                lits.append(aig.and_(a, b))
            got = [engine.arrival(v) for v in range(aig.num_vars)]
            # Equal values of equal types: an int arrival must not turn
            # into a float or back.
            assert repr(got) == repr(reference_arrivals(aig, model))
        assert repr(engine.arrivals()) == repr(
            AigTimingEngine(aig, model).arrivals()
        )

    def test_arrival_queries_track_appends(self):
        # ``arrival(var)`` answers settled variables without a sync; under
        # a fanout-sensitive model an appended reader must still move them.
        for model in (PrescribedArrival({"pi0": 2}), LoadAwareDelay()):
            aig = random_aig(5)
            engine = AigTimingEngine(aig, model)
            old = [engine.arrival(v) for v in range(aig.num_vars)]
            x = aig.pis[1] * 2
            for var in list(aig.and_vars())[:6]:
                aig.and_(var * 2, x ^ 1)
            fresh = AigTimingEngine(aig, model)
            got = [engine.arrival(v) for v in range(aig.num_vars)]
            assert got == list(fresh.arrivals())
            assert (got[: len(old)] != old) == engine.fanout_sensitive

    def test_invalidate_recovers(self):
        aig = random_aig(3)
        engine = AigTimingEngine(aig)
        before = list(engine.arrivals())
        engine.invalidate()
        assert list(engine.arrivals()) == before


class TestPrescribedArrivals:
    def test_pi_offsets_propagate(self):
        aig = random_aig(7)
        offsets = {name: i for i, name in enumerate(aig.pi_names)}
        engine = AigTimingEngine(aig, PrescribedArrival(offsets))
        arr = engine.arrivals()
        for i, pi in enumerate(aig.pis):
            assert arr[pi] == i
        ref = reference_levels(aig, pi_arrivals=list(range(aig.num_pis)))
        assert list(arr) == ref

    def test_zero_offsets_match_unit(self):
        aig = random_aig(11)
        zero = {name: 0 for name in aig.pi_names}
        skewed = AigTimingEngine(aig, PrescribedArrival(zero))
        unit = AigTimingEngine(aig, UnitDelay())
        assert list(skewed.arrivals()) == list(unit.arrivals())
        assert skewed.required_times() == unit.required_times()


class TestNetworkEngine:
    def test_levels_match_compute_levels(self):
        aig = random_aig(5)
        net = renode(aig, 4)
        engine = NetworkTimingEngine(net)
        assert dict(engine.levels()) == compute_levels(net)
        assert engine.depth() == max(
            engine.levels()[nid] for nid, _neg in net.pos
        )

    def test_incremental_after_mutation(self):
        from repro.tt import TruthTable

        from repro.adders.generators import ripple_carry_adder

        aig = ripple_carry_adder(3)
        net = renode(aig, 4)
        engine = NetworkTimingEngine(net)
        engine.levels()
        target = next(
            nid for nid in net.topo_order()
            if net.nodes[nid].kind == "node" and len(net.nodes[nid].fanins) >= 2
        )
        node = net.nodes[target]
        n = len(node.fanins)
        net.set_function(
            target, TruthTable.from_function(lambda *xs: not any(xs), n)
        )
        engine.invalidate(target)
        fresh = NetworkTimingEngine(net)
        assert dict(engine.levels()) == dict(fresh.levels())

    def test_critical_nodes_zero_slack(self):
        aig = random_aig(13)
        net = renode(aig, 4)
        engine = NetworkTimingEngine(net)
        req = engine.required_times()
        lvl = engine.levels()
        for nid in engine.critical_nodes():
            assert req[nid] == lvl[nid]
