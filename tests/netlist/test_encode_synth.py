"""Tests for network CNF encoding and network->AIG synthesis."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adders import ripple_carry_adder
from repro.aig import AIG, CONST0, CONST1, lit_not, lit_var, po_tts
from repro.bench import BENCHMARKS
from repro.netlist import (
    ArrivalAwareBuilder,
    Network,
    encode_network,
    min_sops,
    network_to_aig,
    renode,
    synthesize_node,
)
from repro.netlist.encode import extend_encoding, topo_rank
from repro.sat import Solver
from repro.sop import factor
from repro.timing import AigTimingEngine, LoadAwareDelay, PrescribedArrival
from repro.tt import TruthTable

from ..aig.test_aig import random_aig


class TestEncodeNetwork:
    @given(st.integers(0, 15))
    @settings(deadline=None, max_examples=8)
    def test_encoding_agrees_with_evaluation(self, seed):
        aig = random_aig(seed, n_pis=4, n_nodes=20, n_pos=2)
        net = renode(aig, k=4)
        solver = Solver()
        var_of = encode_network(solver, net)
        # For every input assignment, the forced model must match evaluate().
        for m in range(1 << len(net.pis)):
            assumptions = [
                (var_of[pi] if (m >> i) & 1 else -var_of[pi])
                for i, pi in enumerate(net.pis)
            ]
            assert solver.solve(assumptions)
            values = net.evaluate([bool((m >> i) & 1) for i in range(len(net.pis))])
            for (nid, neg), expected in zip(net.pos, values):
                got = solver.model_value(var_of[nid])
                if neg:
                    got = not got
                assert got == expected

    def test_constant_nodes(self):
        net = Network()
        net.add_pi("x")
        one = net.add_const(True)
        zero = net.add_const(False)
        net.add_po(one)
        net.add_po(zero)
        solver = Solver()
        var_of = encode_network(solver, net)
        assert solver.solve()
        assert solver.model_value(var_of[one]) is True
        assert solver.model_value(var_of[zero]) is False


class ClauseRecorder:
    """Solver stand-in that records the variable and clause stream."""

    def __init__(self):
        self.num_vars = 0
        self.stream = []

    def new_var(self):
        self.num_vars += 1
        self.stream.append(("var", self.num_vars))
        return self.num_vars

    def add_clause(self, lits):
        self.stream.append(("clause", tuple(lits)))
        return True


def whole_network_extension(solver, net, pi_vars, roots, var_of):
    """Reference lazy extension: a walk over the whole network per call.

    Every node of ``roots``' fan-in cones that is not yet in ``var_of``
    is encoded in ``net.topo_order()`` order, one Tseitin variable per
    node and per multi-literal cube of its on-set minimum SOP.
    """
    for pi, sv in zip(net.pis, pi_vars):
        var_of[pi] = sv
    keep = net.fanin_cone(roots)
    for nid in net.topo_order():
        if nid not in keep or nid in var_of:
            continue
        node = net.nodes[nid]
        out = solver.new_var()
        var_of[nid] = out
        if node.tt.is_const0:
            solver.add_clause([-out])
            continue
        if node.tt.is_const1:
            solver.add_clause([out])
            continue
        aux_vars = []
        for cube in min_sops(node.tt)[0]:
            lits = [
                var_of[node.fanins[var]] if pol else -var_of[node.fanins[var]]
                for var, pol in cube.literals()
            ]
            if len(lits) == 1:
                aux_vars.append(lits[0])
                continue
            aux = solver.new_var()
            aux_vars.append(aux)
            for lit in lits:
                solver.add_clause([-aux, lit])
            solver.add_clause([aux] + [-lit for lit in lits])
        solver.add_clause([-out] + aux_vars)
        for a in aux_vars:
            solver.add_clause([out, -a])


ENCODE_CIRCUITS = {
    "rca8": lambda: ripple_carry_adder(8),
    "C432": BENCHMARKS["C432"],
}


class TestConeExtension:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("circuit", sorted(ENCODE_CIRCUITS))
    def test_rank_ordered_extension_matches_whole_network_walk(
        self, circuit, seed
    ):
        # The care checker grows its secondary encoding one root batch
        # at a time; without a structural-hash table its cone-local,
        # rank-ordered walk must emit the reference's exact stream.
        net = renode(ENCODE_CIRCUITS[circuit]())
        rng = random.Random(seed)
        ids = sorted(net.nodes)
        got, want = ClauseRecorder(), ClauseRecorder()
        pi_vars = [got.new_var() for _ in net.pis]
        for _ in net.pis:
            want.new_var()
        got_vars = dict(zip(net.pis, pi_vars))
        want_vars = {}
        rank = topo_rank(net)
        for _ in range(25):
            roots = rng.sample(ids, rng.randint(1, 4))
            extend_encoding(got, net, roots, got_vars, rank)
            whole_network_extension(want, net, pi_vars, roots, want_vars)
            assert got.stream == want.stream
            assert got_vars == want_vars
        assert len(got_vars) > len(net.pis)


class TestSynthesis:
    @given(st.integers(1, 5), st.integers(0, 500))
    @settings(deadline=None, max_examples=25)
    def test_synthesize_node_matches_tt(self, nvars, seed):
        import random

        rng = random.Random(seed)
        tt = TruthTable(rng.getrandbits(1 << nvars), nvars)
        aig = AIG()
        builder = ArrivalAwareBuilder(aig)
        ins = [aig.add_pi() for _ in range(nvars)]
        lit = synthesize_node(builder, tt, ins)
        aig.add_po(lit)
        assert po_tts(aig)[0] == tt

    def test_arrival_aware_tree_prefers_early_merge(self):
        # One late input among 4: depth should be late_level + 1, not +2.
        aig = AIG()
        builder = ArrivalAwareBuilder(aig)
        xs = [aig.add_pi() for _ in range(5)]
        late = aig.and_(aig.and_(xs[0], xs[1]), aig.and_(xs[2], xs[3]))
        out = builder.balanced([late, xs[4], xs[4] ^ 1 ^ 1], "and")
        # late has level 2; merging the two early inputs first keeps
        # total depth at 3 instead of 4.
        assert builder.level(out) == 3

    def test_builder_self_heals_after_external_nodes(self):
        aig = AIG()
        builder = ArrivalAwareBuilder(aig)
        a, b = aig.add_pi(), aig.add_pi()
        # Create nodes behind the builder's back.
        deep = aig.and_(aig.and_(a, b), aig.and_(a ^ 1, b) ^ 1)
        assert builder.level(deep) == 2


class ReferenceBuilder:
    """Arrival-aware synthesis with no shortcuts.

    Every tree goes through the heap, every cover is factored on every
    use, and every arrival query syncs the timing engine.
    ``ArrivalAwareBuilder`` + ``synthesize_node`` must build exactly the
    same AIG.
    """

    def __init__(self, aig, model):
        self.aig = aig
        self.engine = AigTimingEngine(aig, model)

    def level(self, lit):
        return self.engine.arrivals()[lit_var(lit)]

    def balanced(self, lits, op):
        if not lits:
            return CONST1 if op == "and" else CONST0
        heap = [(self.level(l), i, l) for i, l in enumerate(lits)]
        heapq.heapify(heap)
        counter = len(lits)
        while len(heap) > 1:
            a = heapq.heappop(heap)[2]
            b = heapq.heappop(heap)[2]
            if op == "and":
                out = self.aig.and_(a, b)
            else:
                out = lit_not(self.aig.and_(lit_not(a), lit_not(b)))
            heapq.heappush(heap, (self.level(out), counter, out))
            counter += 1
        return heap[0][2]

    def build_expr(self, expr, ins):
        if expr.kind == "const0":
            return CONST0
        if expr.kind == "const1":
            return CONST1
        if expr.kind == "lit":
            var, pol = expr.lit
            return ins[var] if pol else lit_not(ins[var])
        children = [self.build_expr(c, ins) for c in expr.children]
        return self.balanced(children, expr.kind)

    def build_cover(self, cover, ins):
        factored = self.build_expr(factor(cover), ins)
        if cover.is_empty():
            flat = CONST0
        else:
            terms = [
                self.balanced(
                    [ins[v] if pol else lit_not(ins[v])
                     for v, pol in cube.literals()],
                    "and",
                )
                for cube in cover
            ]
            flat = self.balanced(terms, "or")
        return flat if self.level(flat) < self.level(factored) else factored

    def synthesize(self, tt, ins):
        if tt.is_const0:
            return CONST0
        if tt.is_const1:
            return CONST1
        on_cover, off_cover = min_sops(tt)
        lit_on = self.build_cover(on_cover, ins)
        lit_off = lit_not(self.build_cover(off_cover, ins))
        return lit_off if self.level(lit_off) < self.level(lit_on) else lit_on


SYNTH_MODELS = {
    "unit": lambda: None,
    "prescribed": lambda: PrescribedArrival(
        {"x0": 3, "x2": 1, "x5": 4, "x6": 2}
    ),
    # Fanout-sensitive: old arrivals move as readers are appended, so the
    # engine's settled-arrival shortcut must stay off.
    "load": lambda: LoadAwareDelay(arrivals={"x1": 40.0, "x4": 25.0}),
}


def _x(i, n):
    return TruthTable.var(i, n)


# Local functions whose on-set cover factors to the flat SOP itself.
FLAT_COVERS = {
    "single-cube": _x(0, 3) & ~_x(1, 3) & _x(2, 3),
    "single-literal": ~_x(0, 1),
    "unfactorable": (_x(0, 4) & _x(1, 4)) | (_x(2, 4) & _x(3, 4)),
}


def _synthesis_trace(seed, model_name, use_reference):
    """Synthesize random local functions over growing shared structure."""
    rng = random.Random(seed)
    aig = AIG()
    model = SYNTH_MODELS[model_name]()
    if use_reference:
        ref = ReferenceBuilder(aig, model)
        synth = ref.synthesize
    else:
        builder = ArrivalAwareBuilder(aig, model)

        def synth(tt, ins):
            return synthesize_node(builder, tt, ins)

    signals = [aig.add_pi(f"x{i}") for i in range(8)]
    # A small pool of local functions, so the same function recurs on
    # different inputs (as at the many cuts of one resynthesis pass),
    # plus covers whose factored form is the flat SOP itself.
    pool = list(FLAT_COVERS.values())
    for _ in range(6):
        n = rng.randint(1, 4)
        pool.append(TruthTable(rng.getrandbits(1 << n), n))
    lits = []
    for _ in range(25):
        tt = rng.choice(pool)
        ins = [
            s ^ rng.getrandbits(1)
            for s in rng.sample(signals, tt.nvars)
        ]
        lit = synth(tt, ins)
        lits.append(lit)
        if lit_var(lit) > 0:
            signals.append(lit)
        if rng.random() < 0.2:
            # A node created outside the builder.
            a, b = rng.sample(signals, 2)
            signals.append(aig.and_(a, b ^ 1))
    return lits, aig._fanin0, aig._fanin1


class TestSynthesisReference:
    @pytest.mark.parametrize("model_name", sorted(SYNTH_MODELS))
    @pytest.mark.parametrize("seed", range(16))
    def test_same_aig_as_reference_builder(self, seed, model_name):
        got = _synthesis_trace(seed, model_name, use_reference=False)
        want = _synthesis_trace(seed, model_name, use_reference=True)
        assert got == want
        assert len(got[1]) > 30  # the trace built real structure

    @pytest.mark.parametrize("model_name", sorted(SYNTH_MODELS))
    def test_flat_replay_skipped_only_under_fanout_blind_models(
        self, model_name, monkeypatch
    ):
        # Each cover of FLAT_COVERS factors to its own flat SOP, so its
        # flat build would only replay the factored one; the builder
        # skips it unless old arrivals can move (the load model).
        calls = {"cover": 0, "flat": 0}
        cover, flat = (
            ArrivalAwareBuilder.build_cover,
            ArrivalAwareBuilder.build_cover_flat,
        )

        def counting(name, method):
            def wrapper(*args):
                calls[name] += 1
                return method(*args)
            return wrapper

        monkeypatch.setattr(
            ArrivalAwareBuilder, "build_cover", counting("cover", cover)
        )
        monkeypatch.setattr(
            ArrivalAwareBuilder, "build_cover_flat", counting("flat", flat)
        )
        for name, tt in FLAT_COVERS.items():
            builder = ArrivalAwareBuilder(AIG(), SYNTH_MODELS[model_name]())
            _cubes, _expr, replays_flat = builder.factored_sops(tt)[0]
            assert replays_flat, name
        for seed in range(4):
            _synthesis_trace(seed, model_name, use_reference=False)
        assert calls["cover"] > 0
        if model_name == "load":
            assert calls["flat"] == calls["cover"]
        else:
            assert calls["flat"] < calls["cover"]
