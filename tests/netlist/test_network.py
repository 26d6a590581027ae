"""Tests for technology-independent networks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import (
    Network,
    compute_levels,
    cover_level,
    critical_inputs,
    network_depth,
    node_level,
    renode,
    network_to_aig,
    tree_level,
)
from repro.sop import Cover
from repro.tt import TruthTable
from repro.adders import ripple_carry_adder
from repro.aig import AIG, po_tts
from repro.cec import check_equivalence

from ..aig.test_aig import random_aig


AND2 = TruthTable.from_function(lambda a, b: a and b, 2)
XOR2 = TruthTable.from_function(lambda a, b: a != b, 2)


def small_network():
    net = Network()
    a, b, c = net.add_pi("a"), net.add_pi("b"), net.add_pi("c")
    n1 = net.add_node([a, b], AND2)
    n2 = net.add_node([n1, c], XOR2)
    net.add_po(n2, False, "y")
    return net, (a, b, c, n1, n2)


class TestStructure:
    def test_evaluate(self):
        net, (a, b, c, n1, n2) = small_network()
        assert net.evaluate([True, True, False]) == [True]
        assert net.evaluate([True, True, True]) == [False]
        assert net.evaluate([False, True, True]) == [True]

    def test_po_negation(self):
        net, (_a, _b, _c, _n1, n2) = small_network()
        net.add_po(n2, True, "ybar")
        out = net.evaluate([True, True, False])
        assert out == [True, False]

    def test_global_tts(self):
        net, ids = small_network()
        tts = net.po_tts()
        va, vb, vc = (TruthTable.var(i, 3) for i in range(3))
        assert tts[0] == (va & vb) ^ vc

    def test_bad_fanin_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            net.add_node([42], TruthTable.var(0, 1))

    def test_tt_width_mismatch_rejected(self):
        net = Network()
        a = net.add_pi()
        with pytest.raises(ValueError):
            net.add_node([a], AND2)

    def test_set_function_on_pi_rejected(self):
        net = Network()
        a = net.add_pi()
        with pytest.raises(ValueError):
            net.set_function(a, TruthTable.var(0, 0))

    def test_extract_po_cone_keeps_pi_alignment(self):
        net, ids = small_network()
        cone = net.extract_po_cone(0)
        assert len(cone.pis) == len(net.pis)
        assert cone.po_tts() == net.po_tts()

    def test_topo_includes_dangling(self):
        net, (a, b, _c, _n1, _n2) = small_network()
        dangling = net.add_node([a, b], XOR2)
        assert dangling in net.topo_order()

    def test_payload_roundtrip_is_exact(self):
        net, (_a, _b, _c, _n1, n2) = small_network()
        net.add_po(n2, True, "ybar")
        back = Network.from_payload(net.to_payload())
        # Exactness matters: ids, order, names, and _next_id all feed the
        # splice path, so the round trip must be indistinguishable.
        assert back.to_payload() == net.to_payload()
        assert back.pis == net.pis
        assert back.pos == net.pos
        assert back.po_names == net.po_names
        assert back._next_id == net._next_id
        assert list(back.nodes) == list(net.nodes)
        assert back.po_tts() == net.po_tts()
        # The copy is independent: growing it leaves the original alone.
        back.add_pi("extra")
        assert len(net.pis) == 3

    @given(st.integers(0, 15))
    @settings(deadline=None, max_examples=8)
    def test_payload_roundtrip_random(self, seed):
        aig = random_aig(seed, n_pis=6, n_nodes=35, n_pos=4)
        net = renode(aig, k=5)
        back = Network.from_payload(net.to_payload())
        assert back.to_payload() == net.to_payload()
        assert back.po_tts() == net.po_tts()


class TestLevelModel:
    def test_tree_level_uniform(self):
        assert tree_level([0, 0, 0, 0]) == 2
        assert tree_level([0, 0, 0]) == 2
        assert tree_level([0]) == 0
        assert tree_level([]) == 0

    def test_tree_level_skewed_arrivals(self):
        # A late input can hide balanced early merging: (((0,0)->1,1)->2,5)->6.
        assert tree_level([5, 0, 0, 1]) == 6

    def test_cover_level_and_or(self):
        # Two 2-literal cubes at arrival 0: AND trees depth 1, OR depth 2.
        cov = Cover.parse(["11-", "--1"])
        assert cover_level(cov, [0, 0, 0]) == 2

    def test_node_level_uses_cheaper_phase(self):
        # NOR of 4 inputs: on-set needs a single 4-literal cube (level 2);
        # the off-set is 4 single-literal cubes (OR tree level 2): equal here,
        # but an inverter-free complement must never be worse.
        nor4 = TruthTable.from_function(
            lambda a, b, c, d: not (a or b or c or d), 4
        )
        assert node_level(nor4, [0, 0, 0, 0]) == 2

    def test_constant_node_level(self):
        assert node_level(TruthTable.const(True, 2), [5, 5]) == 0

    def test_network_depth(self):
        # AND at level 1 feeds a XOR (2 SOP levels on a level-1 input): 3.
        net, _ = small_network()
        assert network_depth(net) == 3

    def test_critical_inputs_late_dominates(self):
        # XOR with one late input: only the late one is critical.
        crit = critical_inputs(XOR2, [5, 0])
        assert crit == [0]

    def test_critical_inputs_tie(self):
        crit = critical_inputs(XOR2, [3, 3])
        assert set(crit) == {0, 1}


class TestRenode:
    @given(st.integers(0, 25))
    @settings(deadline=None, max_examples=12)
    def test_roundtrip_equivalence(self, seed):
        aig = random_aig(seed, n_pis=6, n_nodes=35, n_pos=4)
        net = renode(aig, k=5)
        assert net.po_tts() == po_tts(aig)
        back = network_to_aig(net)
        assert check_equivalence(aig, back)

    @given(st.integers(0, 10))
    @settings(deadline=None, max_examples=6)
    def test_cluster_size_bound(self, seed):
        aig = random_aig(seed, n_pis=8, n_nodes=50)
        k = 4
        net = renode(aig, k=k)
        for nid in net.topo_order():
            assert len(net.nodes[nid].fanins) <= k

    def test_constant_po(self):
        aig = AIG()
        aig.add_pi()
        aig.add_po(1, "one")
        net = renode(aig)
        assert net.po_tts()[0].is_const1

    def test_pi_fed_po(self):
        aig = AIG()
        x = aig.add_pi()
        aig.add_po(x ^ 1, "notx")
        net = renode(aig)
        assert net.po_tts()[0] == ~TruthTable.var(0, 1)

    @pytest.mark.parametrize("k, max_cuts", [(1, 8), (0, 8), (6, 0)])
    def test_degenerate_cut_settings_raise(self, k, max_cuts):
        # With k < 2 or no kept cut an AND node has no usable cut.
        with pytest.raises(ValueError, match="k >= 2 and max_cuts >= 1"):
            renode(ripple_carry_adder(2), k=k, max_cuts=max_cuts)

    def test_smallest_cut_settings_renode(self):
        aig = ripple_carry_adder(2)
        net = renode(aig, k=2, max_cuts=1)
        assert net.po_tts() == po_tts(aig)
        assert all(len(node.fanins) <= 2 for node in net.nodes.values())
