"""End-to-end tests for the lookahead optimizer and area recovery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adders import optimal_cla_levels, ripple_carry_adder
from repro.aig import AIG, depth, po_tts
from repro.cec import check_equivalence
from repro.core import (
    LookaheadOptimizer,
    optimize_lookahead,
    remove_redundant_edges,
    sat_sweep,
)

from ..aig.test_aig import random_aig


class TestSatSweep:
    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=15)
    def test_preserves_function(self, seed):
        aig = random_aig(seed, n_pis=5, n_nodes=40, n_pos=3)
        swept = sat_sweep(aig, sim_width=64, seed=seed)
        assert check_equivalence(aig, swept)

    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=15)
    def test_never_increases_size_or_depth(self, seed):
        aig = random_aig(seed, n_pis=5, n_nodes=40, n_pos=3)
        swept = sat_sweep(aig, sim_width=64, seed=seed)
        assert swept.num_ands() <= aig.extract().num_ands()
        assert depth(swept) <= depth(aig)

    def test_merges_duplicated_logic(self):
        aig = AIG()
        a, b, c = (aig.add_pi() for _ in range(3))
        # Same function built two structurally different ways.
        f = aig.or_(aig.and_(a, b), aig.and_(a, c))
        g = aig.and_(a, aig.or_(b, c))
        aig.add_po(aig.xor_(f, g))  # constant 0 after sweeping
        swept = sat_sweep(aig)
        assert swept.num_ands() == 0
        assert po_tts(swept)[0].is_const0


class TestRedundancyRemoval:
    def test_removes_redundant_conjunct(self):
        aig = AIG()
        a, b = aig.add_pi(), aig.add_pi()
        # (a & b) & (a | b) == a & b: the (a|b) edge is redundant.
        redundant = aig.and_(aig.and_(a, b), aig.or_(a, b))
        aig.add_po(redundant)
        cleaned = remove_redundant_edges(aig)
        assert check_equivalence(aig, cleaned)
        assert cleaned.num_ands() < aig.extract().num_ands()


class TestLookaheadOptimizer:
    @given(st.integers(0, 50))
    @settings(deadline=None, max_examples=10)
    def test_random_circuits_equivalence(self, seed):
        aig = random_aig(seed, n_pis=6, n_nodes=40, n_pos=3)
        out = LookaheadOptimizer(max_rounds=2).optimize(aig)
        assert check_equivalence(aig, out)
        assert depth(out) <= depth(aig)

    def test_two_bit_adder_reaches_optimum(self):
        aig = ripple_carry_adder(2)
        out = LookaheadOptimizer(max_rounds=10, verify=True).optimize(aig)
        assert check_equivalence(aig, out)
        assert depth(out) == optimal_cla_levels(2)

    def test_four_bit_adder_substantial_gain(self):
        aig = ripple_carry_adder(4)
        out = LookaheadOptimizer(max_rounds=12, verify=True).optimize(aig)
        assert check_equivalence(aig, out)
        assert depth(out) <= 8  # 10 -> 8 observed; paper reaches 6-7

    def test_sim_mode_on_small_adder(self):
        aig = ripple_carry_adder(3)
        out = LookaheadOptimizer(
            max_rounds=6, spcf_tier="signature", sim_width=256
        ).optimize(aig)
        assert check_equivalence(aig, out)
        assert depth(out) <= depth(aig)

    def test_overapprox_spcf_mode(self):
        aig = ripple_carry_adder(3)
        out = LookaheadOptimizer(
            max_rounds=6, spcf_tier="overapprox"
        ).optimize(aig)
        assert check_equivalence(aig, out)

    def test_rules_ablation_still_correct(self):
        aig = ripple_carry_adder(3)
        out = LookaheadOptimizer(max_rounds=6, use_rules=False).optimize(aig)
        assert check_equivalence(aig, out)

    def test_convenience_wrapper(self):
        aig = ripple_carry_adder(2)
        out = optimize_lookahead(aig, max_rounds=4)
        assert check_equivalence(aig, out)

    def test_trivial_circuit_untouched(self):
        aig = AIG()
        a = aig.add_pi()
        aig.add_po(a)
        out = LookaheadOptimizer().optimize(aig)
        assert check_equivalence(aig, out)
