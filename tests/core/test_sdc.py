"""Tests for SDC-based node minimization."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import AIG, po_tts
from repro.core import BddModel, ExactModel
from repro.core.sdc import sdc_minimize
from repro.netlist import Network, renode
from repro.tt import TruthTable

from ..aig.test_aig import random_aig


def test_correlated_fanins_simplify():
    # Node computes XOR(g, h) with g = a&b and h = a&b duplicated through
    # different structure: the vectors g != h are SDCs, so the node
    # becomes constant 0.
    net = Network()
    a, b = net.add_pi("a"), net.add_pi("b")
    and_tt = TruthTable.from_function(lambda x, y: x and y, 2)
    g = net.add_node([a, b], and_tt)
    h = net.add_node([b, a], and_tt)
    xor_tt = TruthTable.from_function(lambda x, y: x != y, 2)
    top = net.add_node([g, h], xor_tt)
    net.add_po(top)
    model = ExactModel(net)
    changed = sdc_minimize(net, model)
    assert changed >= 1
    assert net.po_tts()[0].is_const0


@given(st.integers(0, 40))
@settings(deadline=None, max_examples=15)
def test_preserves_po_functions(seed):
    aig = random_aig(seed, n_pis=5, n_nodes=30, n_pos=3)
    for model_cls in (ExactModel, BddModel):
        net = renode(aig, k=4)
        before = net.po_tts()
        sdc_minimize(net, model_cls(net))
        assert net.po_tts() == before


def test_wide_nodes_skipped():
    net = Network()
    pis = [net.add_pi() for _ in range(10)]
    wide = net.add_node(
        pis, TruthTable.from_function(lambda *xs: any(xs), 10)
    )
    net.add_po(wide)
    model = ExactModel(net)
    assert sdc_minimize(net, model) == 0
