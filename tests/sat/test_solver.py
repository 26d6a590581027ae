"""Tests for the CDCL SAT solver."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import AigCnf, Solver, implies, is_satisfiable, luby
from repro.aig import AIG, lit_not, po_tts


def brute_force(clauses, n):
    for bits in itertools.product([False, True], repeat=n):
        ok = True
        for cl in clauses:
            if not any(
                bits[abs(l) - 1] if l > 0 else not bits[abs(l) - 1]
                for l in cl
            ):
                ok = False
                break
        if ok:
            return True
    return False


def clause_strategy(n):
    lit = st.integers(1, n).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    return st.lists(lit, min_size=1, max_size=3)


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(15)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestBasics:
    def test_empty_formula_sat(self):
        assert Solver().solve()

    def test_unit_conflict(self):
        s = Solver()
        s.add_clause([1])
        assert not s.add_clause([-1]) or not s.solve()

    def test_tautological_clause_ignored(self):
        s = Solver()
        assert s.add_clause([1, -1])
        assert s.solve()

    def test_zero_literal_rejected(self):
        s = Solver()
        with pytest.raises(ValueError):
            s.add_clause([0])

    def test_simple_implication_chain(self):
        s = Solver()
        for i in range(1, 20):
            s.add_clause([-i, i + 1])
        s.add_clause([1])
        assert s.solve()
        assert all(s.model_value(i) for i in range(1, 21))

    def test_pigeonhole_3_2_unsat(self):
        # 3 pigeons, 2 holes: vars p(i,h) = 2*i + h + 1.
        s = Solver()
        for i in range(3):
            s.add_clause([2 * i + 1, 2 * i + 2])
        for h in range(2):
            for i in range(3):
                for j in range(i + 1, 3):
                    s.add_clause([-(2 * i + h + 1), -(2 * j + h + 1)])
        assert not s.solve()


class TestRandomized:
    @given(
        st.integers(1, 7),
        st.integers(1, 25),
        st.integers(0, 10_000),
    )
    @settings(deadline=None, max_examples=60)
    def test_matches_brute_force(self, n, m, seed):
        rng = random.Random(seed)
        clauses = [
            [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
            for _ in range(m)
        ]
        s = Solver()
        ok = all(s.add_clause(cl) for cl in clauses)
        result = s.solve() if ok else False
        assert result == brute_force(clauses, n)
        if result:
            model = s.model()
            for cl in clauses:
                assert any(
                    model[abs(l) - 1] if l > 0 else not model[abs(l) - 1]
                    for l in cl
                )

    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=40)
    def test_assumptions_and_reuse(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        clauses = [
            [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 15))
        ]
        s = Solver()
        if not all(s.add_clause(cl) for cl in clauses):
            return
        assumptions = [
            rng.choice([1, -1]) * rng.randint(1, n)
            for _ in range(rng.randint(0, 3))
        ]
        expected = brute_force(clauses + [[a] for a in assumptions], n)
        assert s.solve(assumptions) == expected
        # The solver must remain usable (incremental interface).
        assert s.solve() == brute_force(clauses, n)


def _random_cnf(rng, n_vars, n_clauses, width=3):
    return [
        [
            rng.choice([1, -1]) * rng.randint(1, n_vars)
            for _ in range(width)
        ]
        for _ in range(n_clauses)
    ]


def _pigeonhole(solver, holes=5, pigeons=6):
    def var(p, h):
        return p * holes + h + 1

    for p in range(pigeons):
        solver.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var(p1, h), -var(p2, h)])


class TestBudgets:
    def test_propagation_budget_returns_unknown(self):
        s = Solver()
        _pigeonhole(s)
        assert s.solve(max_propagations=10) is None
        # The solver stays usable: an unbudgeted call settles the query.
        assert s.solve() is False

    def test_propagation_budget_ignores_easy_instances(self):
        s = Solver()
        s.add_clause([1, 2])
        s.add_clause([-1])
        assert s.solve(max_propagations=100000) is True

    def test_conflict_budget_interleaves_with_prefix_reuse(self):
        """Budgeted UNKNOWN exits leave the retained prefix consistent."""
        s = Solver()
        _pigeonhole(s, holes=4, pigeons=5)
        assumptions = [1]
        while s.solve(assumptions, max_conflicts=3, keep_prefix=1) is None:
            pass
        fresh = Solver()
        _pigeonhole(fresh, holes=4, pigeons=5)
        assert fresh.solve(assumptions) is False


class TestPrefixReuse:
    def test_keep_prefix_matches_fresh_solves(self):
        """Shared-prefix reuse is invisible in verdicts and models."""
        rng = random.Random(3)
        for trial in range(40):
            n = rng.randint(4, 9)
            clauses = _random_cnf(rng, n, rng.randint(4, 30))
            reuse = Solver()
            live = True
            for clause in clauses:
                live = reuse.add_clause(list(clause)) and live
            if not live:
                continue
            prefix = rng.choice([1, -1])
            for _ in range(6):
                rest = [
                    rng.choice([1, -1]) * rng.randint(2, n)
                    for _ in range(rng.randint(0, 2))
                ]
                assumptions = [prefix] + rest
                fresh = Solver()
                for clause in clauses:
                    fresh.add_clause(list(clause))
                expected = fresh.solve(assumptions)
                got = reuse.solve(assumptions, keep_prefix=1)
                assert got is expected, (trial, assumptions)
                if expected:
                    model = [reuse.model_value(v + 1) for v in range(n)]
                    assert all(
                        any(
                            model[abs(l) - 1] == (l > 0)
                            for l in clause
                        )
                        for clause in clauses
                    )


class TestBranchOn:
    """A decision-variable set changes the search, never the answer."""

    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=80)
    def test_matches_brute_force_under_random_decision_sets(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        late = rng.randint(0, 2)  # created after the restriction
        s = Solver()
        for _ in range(n):
            s.new_var()
        # Most subsets leave variables that no decision fixes; the empty
        # one leaves all of them.
        s.branch_on(rng.sample(range(1, n + 1), rng.randint(0, n)))
        for _ in range(late):
            s.new_var()
        total = n + late
        clauses = _random_cnf(rng, total, rng.randint(1, 4 * total))
        live = True
        for clause in clauses:
            live = s.add_clause(list(clause)) and live
        widen_at = rng.randint(0, 5)
        for call in range(6):
            if call == widen_at:
                s.branch_on(None)
            elif call == widen_at + 2:
                s.branch_on(rng.sample(range(1, total + 1), rng.randint(0, 2)))
            assumptions = [
                rng.choice([1, -1]) * rng.randint(1, total)
                for _ in range(rng.randint(0, 3))
            ]
            got = s.solve(assumptions, keep_prefix=rng.randint(0, 1))
            want = live and brute_force(
                clauses + [[a] for a in assumptions], total
            )
            assert got is want, (seed, call)
            if got:
                assert None not in [
                    s.model_value(v) for v in range(1, s.num_vars + 1)
                ]
                for clause in clauses + [[a] for a in assumptions]:
                    assert any(s.model_value(l) for l in clause), (
                        seed, call, clause,
                    )


class TestAigEncoding:
    def test_miter_of_equivalent_forms(self):
        # a&b == !(!a | !b): the XOR miter must be UNSAT.
        aig = AIG()
        a, b = aig.add_pi(), aig.add_pi()
        f = aig.and_(a, b)
        g = lit_not(aig.or_(lit_not(a), lit_not(b)))
        enc = AigCnf()
        m = enc.encode(aig, roots=[f, g])
        x = enc.add_xor(enc.lit(m, f), enc.lit(m, g))
        assert not enc.solver.solve([x])

    def test_is_satisfiable_model(self):
        aig = AIG()
        xs = [aig.add_pi() for _ in range(4)]
        f = aig.and_many([xs[0], lit_not(xs[1]), xs[2]])
        sat, model = is_satisfiable(aig, f)
        assert sat
        assert model[0] and not model[1] and model[2]

    def test_unsat_target(self):
        aig = AIG()
        a = aig.add_pi()
        f = aig.and_(a, lit_not(a))
        sat, model = is_satisfiable(aig, f)
        assert not sat and model is None

    def test_implies(self):
        aig = AIG()
        a, b = aig.add_pi(), aig.add_pi()
        ab = aig.and_(a, b)
        assert implies(aig, ab, a)
        assert not implies(aig, a, ab)

    def test_shared_pi_encoding(self):
        aig1 = AIG()
        a1, b1 = aig1.add_pi(), aig1.add_pi()
        aig1.add_po(aig1.and_(a1, b1))
        aig2 = AIG()
        a2, b2 = aig2.add_pi(), aig2.add_pi()
        aig2.add_po(lit_not(aig2.or_(lit_not(a2), lit_not(b2))))
        enc = AigCnf()
        m1 = enc.encode(aig1)
        pi_vars = [m1[p] for p in aig1.pis]
        m2 = enc.encode(aig2, pi_vars=pi_vars)
        x = enc.add_xor(enc.lit(m1, aig1.pos[0]), enc.lit(m2, aig2.pos[0]))
        assert not enc.solver.solve([x])
