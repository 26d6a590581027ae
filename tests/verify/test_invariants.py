"""Invariants hold on known-good circuits and catch planted miscompiles."""

from __future__ import annotations

import pytest

from repro.adders import ripple_carry_adder
from repro.cec import check_equivalence
from repro.core import LookaheadOptimizer, lookahead_flow
from repro.verify import Case, INVARIANTS, run_invariant


@pytest.fixture(scope="module")
def adder_case():
    return Case(
        aig=ripple_carry_adder(4),
        config={"max_rounds": 2, "seed": 0},
        arrival_times=None,
    )


@pytest.mark.parametrize("name", sorted(INVARIANTS))
def test_invariant_clean_on_adder(name, adder_case):
    assert run_invariant(name, adder_case) is None


def test_run_invariant_reports_crashes(adder_case):
    def crashes(case):
        raise RuntimeError("boom")

    INVARIANTS["crashes"] = crashes
    try:
        detail = run_invariant("crashes", adder_case)
    finally:
        del INVARIANTS["crashes"]
    assert detail == "RuntimeError: boom"


class TestFlowVerifyGuard:
    def test_verify_accepts_correct_flow(self):
        aig = ripple_carry_adder(4)
        out = lookahead_flow(
            aig, LookaheadOptimizer(max_rounds=2), max_iterations=2,
            verify=True,
        )
        assert check_equivalence(aig, out)

    def test_verify_catches_planted_miscompile(self, monkeypatch):
        # Sabotage the optimizer to return a wrong circuit that *wins* the
        # quality gate (all outputs constant — depth 0, zero gates): the
        # opt-in guard must refuse to let it through.
        aig = ripple_carry_adder(4)

        def sabotage(self, circuit):
            wrong = circuit.__class__()
            for name in circuit.pi_names:
                wrong.add_pi(name)
            for name in circuit.po_names:
                wrong.add_po(0, name)
            return wrong

        monkeypatch.setattr(LookaheadOptimizer, "optimize", sabotage)
        with pytest.raises(AssertionError, match="NOT equivalent"):
            lookahead_flow(aig, max_iterations=2, verify=True)


class TestSpcfTiersAgree:
    def test_clean_on_random_circuit(self):
        import random

        from repro.verify.random_circuits import random_aig

        rng = random.Random(3)
        case = Case(aig=random_aig(rng), config={"max_rounds": 2})
        assert run_invariant("spcf_tiers_agree", case) is None

    def test_catches_degraded_tier_miscompile(self, monkeypatch):
        # Sabotage only the signature tier: the invariant must notice the
        # degraded kernel produced a non-equivalent circuit.
        real = LookaheadOptimizer.optimize

        def sabotage(self, circuit):
            if self.spcf_tier != "signature":
                return real(self, circuit)
            wrong = circuit.__class__()
            for name in circuit.pi_names:
                wrong.add_pi(name)
            for name in circuit.po_names:
                wrong.add_po(0, name)
            return wrong

        monkeypatch.setattr(LookaheadOptimizer, "optimize", sabotage)
        case = Case(aig=ripple_carry_adder(3), config={"max_rounds": 1})
        detail = run_invariant("spcf_tiers_agree", case)
        assert detail is not None and "signature" in detail
