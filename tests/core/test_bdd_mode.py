"""Tests for the BDD-domain SPCF and model (mid-size exact mode)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.adders import ripple_carry_adder
from repro.aig import depth, levels, lit_var
from repro.bdd import BDD
from repro.bench.table2 import GOLDEN_W1
from repro.cec import check_equivalence
from repro.core import LookaheadOptimizer, Spcf, spcf_exact_tt
from repro.core.model import BddBlowup, BddModel, ExactModel
from repro.core.spcf import spcf_exact_bdd
from repro.netlist import renode
from repro.tt import TruthTable

from ..aig.test_aig import random_aig


class TestSpcfBdd:
    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=15)
    def test_matches_tt_spcf(self, seed):
        aig = random_aig(seed, n_pis=5, n_nodes=25, n_pos=1)
        d = levels(aig)[lit_var(aig.pos[0])]
        if d == 0:
            return
        exact = spcf_exact_tt(aig, 0, d)
        bdd = BDD()
        ref = spcf_exact_bdd(aig, 0, d, bdd)
        assert ref is not None
        for m in range(1 << 5):
            asg = {i: bool((m >> i) & 1) for i in range(5)}
            assert bdd.eval(ref, asg) == exact.value(m)

    def test_blowup_returns_none(self):
        aig = ripple_carry_adder(6)
        bdd = BDD()
        ref = spcf_exact_bdd(aig, aig.num_pos - 1, 3, bdd, size_limit=5)
        assert ref is None

    def test_spcf_container_counts(self):
        aig = random_aig(3, n_pis=4, n_nodes=15, n_pos=1)
        d = levels(aig)[lit_var(aig.pos[0])]
        bdd = BDD()
        ref = spcf_exact_bdd(aig, 0, d, bdd)
        spcf = Spcf("bdd", bdd=bdd, ref=ref, num_pis=4)
        assert spcf.count == spcf_exact_tt(aig, 0, d).count_ones()


class TestBddModel:
    @given(st.integers(0, 30))
    @settings(deadline=None, max_examples=10)
    def test_matches_exact_model(self, seed):
        aig = random_aig(seed, n_pis=5, n_nodes=25, n_pos=2)
        net = renode(aig, k=4)
        exact = ExactModel(net)
        bm = BddModel(net)
        for nid in net.topo_order():
            tt = exact.fn(nid)
            assert bm.count(bm.fn(nid)) == tt.count_ones()
        # Cube conditions agree too.
        from repro.sop import Cube

        for nid in list(net.topo_order())[:5]:
            node = net.nodes[nid]
            if not node.fanins:
                continue
            cube = Cube.from_literals([(0, True)], len(node.fanins))
            assert bm.count(bm.cube_condition(nid, cube)) == exact.count(
                exact.cube_condition(nid, cube)
            )

    def test_blowup_raises(self):
        aig = ripple_carry_adder(6)
        net = renode(aig, k=6)
        try:
            BddModel(net, size_limit=3)
        except BddBlowup:
            return
        raise AssertionError("expected BddBlowup")


class TestOptimizerBddMode:
    def test_bdd_mode_equivalence(self):
        aig = ripple_carry_adder(7)  # 15 PIs: bdd territory in auto mode
        opt = LookaheadOptimizer(max_rounds=6)
        out = opt.optimize(aig)
        assert check_equivalence(aig, out)
        assert depth(out) < depth(aig)

    def test_bdd_round_runs_the_cone_pipeline(self):
        # 17 PIs: BDD cones go through the windowed cone pipeline, so the
        # round reports its replacements, phase timers and SPCF tier.
        aig = ripple_carry_adder(8)
        perf.reset()
        with LookaheadOptimizer(
            max_rounds=1, workers=1, walk_modes=("target",)
        ) as opt:
            out = opt.optimize(aig)
        assert perf.counter("replacements.accepted") > 0
        assert perf.seconds("phase.secondary") > 0
        assert perf.counter("spcf.tier.bdd") > 0
        assert perf.counter("spcf.tier.signature") == 0
        assert check_equivalence(aig, out)

    @pytest.mark.parametrize("stage", ["spcf", "model"])
    def test_bdd_blowup_falls_back_to_signatures(self, monkeypatch, stage):
        # A cone whose BDD work outgrows the manager budget — in the SPCF
        # or later in the reduce/secondary models — is redone alone in
        # the signature domain.
        from repro.core import lookahead

        if stage == "spcf":
            monkeypatch.setattr(lookahead, "spcf_exact_bdd",
                                lambda *args, **kwargs: None)
        else:
            monkeypatch.setattr(
                lookahead, "BddModel",
                lambda net, bdd=None: BddModel(net, bdd=bdd, size_limit=1),
            )
        aig = ripple_carry_adder(8)
        perf.reset()
        with LookaheadOptimizer(
            max_rounds=1, workers=1, walk_modes=("target",)
        ) as opt:
            out = opt.optimize(aig)
        assert perf.counter("spcf.tier.bdd") > 0
        assert perf.counter("spcf.tier.signature") > 0
        assert perf.counter("replacements.accepted") > 0
        assert check_equivalence(aig, out)

    def test_rca9_qor_above_truth_table_limit(self):
        # 19 PIs: past the truth-table limit (node_tts stops at 18), where
        # the BDD domain still earns area over signatures.
        aig = ripple_carry_adder(9)
        with LookaheadOptimizer(workers=1, **GOLDEN_W1) as opt:
            out = opt.optimize(aig)
        assert (depth(out), out.num_ands()) == (16, 119)

    def test_auto_picks_bdd_between_limits(self):
        from repro.core.lookahead import BDD_MODE_PI_LIMIT, TT_MODE_PI_LIMIT

        opt = LookaheadOptimizer()
        aig = ripple_carry_adder(8)  # 17 PIs
        assert TT_MODE_PI_LIMIT < aig.num_pis <= BDD_MODE_PI_LIMIT
        assert opt._resolve_mode(aig) == "bdd"
