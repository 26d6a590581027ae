"""Consistency tests between the three global-function models."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import random_patterns
from repro.core import ExactModel, SignatureModel
from repro.core.model import BddModel
from repro.netlist import renode
from repro.sop import Cube
from repro.tt import TruthTable

from ..aig.test_aig import random_aig


def _setup(seed, n_pis=5):
    aig = random_aig(seed, n_pis=n_pis, n_nodes=25, n_pos=2)
    net = renode(aig, k=4)
    return aig, net


class TestExactVsSignature:
    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=12)
    def test_signature_is_sampled_exact(self, seed):
        aig, net = _setup(seed)
        exact = ExactModel(net)
        width = 64
        pi_words = random_patterns(len(net.pis), width, seed)
        sig = SignatureModel(net, pi_words, width)
        for nid in net.topo_order():
            tt = exact.fn(nid)
            word = sig.fn(nid)
            for p in range(width):
                m = sum(
                    (1 << i)
                    for i, w in enumerate(pi_words)
                    if (w >> p) & 1
                )
                assert bool((word >> p) & 1) == tt.value(m)

    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=8)
    def test_cube_weights_agree_in_the_limit(self, seed):
        # With exhaustive "patterns" the signature weight equals the
        # exact weight.
        aig, net = _setup(seed, n_pis=4)
        exact = ExactModel(net)
        width = 16
        pi_words = [TruthTable.var(i, 4).bits for i in range(4)]
        sig = SignatureModel(net, pi_words, width)
        spcf_tt = TruthTable.var(0, 4) | TruthTable.var(1, 4)
        spcf_sig = spcf_tt.bits
        for nid in list(net.topo_order())[:6]:
            node = net.nodes[nid]
            if not node.fanins:
                continue
            cube = Cube.from_literals([(0, True)], len(node.fanins))
            w_exact = exact.cube_weight(spcf_tt, nid, cube)
            w_sig = sig.cube_weight(spcf_sig, nid, cube)
            assert abs(w_exact - w_sig) < 1e-9


class TestExactVsBdd:
    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=8)
    def test_weights_identical(self, seed):
        aig, net = _setup(seed, n_pis=5)
        exact = ExactModel(net)
        bm = BddModel(net)
        from repro.bdd import BDD

        spcf_tt = TruthTable.var(2, 5) & ~TruthTable.var(0, 5)
        # Build the same SPCF in the model's manager.
        ref = bm.bdd.and_(bm.bdd.var(2), bm.bdd.ite(bm.bdd.var(0), 1, 0))
        for nid in list(net.topo_order())[:6]:
            node = net.nodes[nid]
            if not node.fanins:
                continue
            cube = Cube.from_literals(
                [(len(node.fanins) - 1, False)], len(node.fanins)
            )
            w_exact = exact.cube_weight(spcf_tt, nid, cube)
            w_bdd = bm.cube_weight(ref, nid, cube)
            assert abs(w_exact - w_bdd) < 1e-9

    def test_domain_mismatch_rejected(self):
        import pytest

        from repro.core import Spcf

        aig, net = _setup(0)
        exact = ExactModel(net)
        with pytest.raises(ValueError):
            exact.spcf_fn(Spcf("sim", signature=3))


class TestEmptiness:
    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=8)
    def test_is_zero_iff_nothing_counts(self, seed):
        # Care checks ask only whether a conjunction is empty; both exact
        # domains answer without counting a minterm, and BDDs without
        # building the conjunction.  The care function is a node's
        # complement, as !Σ1 is in the optimizer.
        aig, net = _setup(seed)
        order = net.topo_order()
        care_nid = order[seed % len(order)]
        for model in (ExactModel(net), BddModel(net)):
            care = model.complement(model.fn(care_nid))
            for nid in order:
                k = len(net.nodes[nid].fanins)
                for m in range(1 << k):
                    lits = model.cube_literals(nid, Cube.from_minterm(m, k))
                    for fns in (lits, [care, *lits]):
                        assert model.conj_is_zero(fns) == (
                            model.count(model.conj(fns)) == 0
                        )
