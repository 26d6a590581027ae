"""Tests for decomposition analytics, DOT export, and area mapping."""

import io

import pytest

from repro.adders import ripple_carry_adder
from repro.aig import AIG, depth, write_dot
from repro.core import LookaheadOptimizer, analyze_round, print_round_report
from repro.mapping import map_aig, mapped_delay


class TestAnalyzeRound:
    def test_adder_round_report(self):
        aig = ripple_carry_adder(4)
        report = analyze_round(aig)
        assert report.aig_depth == depth(aig)
        assert report.num_successful >= 1
        for o in report.outputs:
            assert o.po_level == report.aig_depth
            if o.success:
                assert o.cone_level_after < o.cone_level_before
                assert o.marked_nodes >= 1
                assert o.sigma_level is not None

    def test_dry_run_does_not_mutate(self):
        aig = ripple_carry_adder(4)
        before = aig.num_ands()
        analyze_round(aig)
        assert aig.num_ands() == before

    def test_print_report_smoke(self, capsys):
        report = analyze_round(ripple_carry_adder(3))
        print_round_report(report)
        out = capsys.readouterr().out
        assert "AIG depth" in out

    def test_sim_mode_report(self):
        aig = ripple_carry_adder(8)  # 17 PIs -> sim in the dry run
        report = analyze_round(
            aig, LookaheadOptimizer(sim_width=256), max_outputs=2
        )
        assert len(report.outputs) <= 2
        assert all(o.spcf_mode in ("sim", "tt") for o in report.outputs)


    def test_prescribed_arrivals_pick_the_round_target(self):
        # A 5-XOR chain (depth 10) feeds `deep`; a 2-AND gate over x, y,
        # z (depth 2) feeds `late`.  With x arriving at 20, `late`
        # completes at 22 and is the only output the round targets.
        aig = AIG()
        chain = [aig.add_pi(f"p{i}") for i in range(6)]
        acc = chain[0]
        for lit in chain[1:]:
            acc = aig.xor_(acc, lit)
        aig.add_po(acc, "deep")
        x, y, z = (aig.add_pi(name) for name in ("x", "y", "z"))
        aig.add_po(aig.and_(aig.and_(x, y), z), "late")
        assert depth(aig) == 10
        opt = LookaheadOptimizer(arrival_times={"x": 20}, sim_width=256)
        report = analyze_round(aig, opt)
        assert report.aig_depth == 22
        assert [o.po_name for o in report.outputs] == ["late"]
        assert report.outputs[0].po_level == 22


class TestDotExport:
    def test_structure(self):
        aig = ripple_carry_adder(2)
        buf = io.StringIO()
        write_dot(aig, buf)
        text = buf.getvalue()
        assert text.startswith("digraph aig")
        assert text.count("invtriangle") == aig.num_pos
        assert text.count("shape=box") == aig.num_pis
        # Complemented edges appear dashed.
        assert "style=dashed" in text

    def test_size_limit(self):
        aig = ripple_carry_adder(16)
        with pytest.raises(ValueError):
            write_dot(aig, io.StringIO(), max_nodes=10)


class TestAreaMapping:
    def test_area_vs_delay_tradeoff(self):
        aig = ripple_carry_adder(8)
        delay_net = map_aig(aig, objective="delay")
        area_net = map_aig(aig, objective="area")
        assert area_net.area <= delay_net.area
        assert mapped_delay(delay_net) <= mapped_delay(area_net)

    def test_area_mapping_correct(self):
        aig = ripple_carry_adder(4)
        net = map_aig(aig, objective="area")
        from repro.aig import evaluate

        for m in range(64):
            bits = [bool((m >> i) & 1) for i in range(9)]
            assert net.evaluate(bits) == evaluate(aig, bits)

    def test_bad_objective_rejected(self):
        with pytest.raises(ValueError):
            map_aig(ripple_carry_adder(2), objective="power")
