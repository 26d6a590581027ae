"""Tests for SAT-solver internals: heap, budgets, incrementality."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import Solver
from repro.sat.solver import _VarHeap


class TestVarHeap:
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                    max_size=30))
    @settings(deadline=None)
    def test_pops_in_activity_order(self, activities):
        heap = _VarHeap()
        act = list(activities)
        for var in range(len(act)):
            heap.push(var, act)
        popped = [heap.pop(act) for _ in range(len(act))]
        values = [act[v] for v in popped]
        assert values == sorted(values, reverse=True)

    def test_push_is_idempotent(self):
        heap = _VarHeap()
        act = [1.0, 2.0]
        heap.push(0, act)
        heap.push(0, act)
        heap.push(1, act)
        assert heap.pop(act) == 1
        assert heap.pop(act) == 0
        assert not heap.heap

    def test_update_reorders(self):
        heap = _VarHeap()
        act = [1.0, 2.0, 3.0]
        for v in range(3):
            heap.push(v, act)
        act[0] = 10.0
        heap.update(0, act)
        assert heap.pop(act) == 0


class TestBudget:
    def test_budget_returns_none_on_hard_instance(self):
        # A pigeonhole instance that needs many conflicts.
        s = Solver()
        holes, pigeons = 5, 6
        def var(p, h):
            return p * holes + h + 1
        for p in range(pigeons):
            s.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-var(p1, h), -var(p2, h)])
        assert s.solve(max_conflicts=5) is None
        # And the solver remains usable afterwards with a real budget.
        assert s.solve() is False

    def test_budget_does_not_affect_easy_instances(self):
        s = Solver()
        s.add_clause([1, 2])
        s.add_clause([-1])
        assert s.solve(max_conflicts=1) is True
        assert s.model_value(2) is True


class TestIncremental:
    def test_add_clause_after_solve(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve() is True
        s.reset()
        s.add_clause([-1])
        s.add_clause([-2])
        assert s.solve() is False

    def test_stats_accumulate(self):
        rng = random.Random(0)
        s = Solver()
        n = 8
        for _ in range(40):
            s.add_clause(
                [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3)]
            )
        s.solve()
        assert s.num_propagations > 0

    def test_clauses_only_at_root(self):
        s = Solver()
        s.add_clause([1, 2])
        s.trail_lim.append(0)  # simulate being mid-search
        try:
            s.add_clause([3])
        except RuntimeError:
            s.trail_lim.pop()
            return
        raise AssertionError("expected RuntimeError")


class TestCopy:
    @given(st.integers(0, 10_000), st.integers(0, 7))
    @settings(deadline=None, max_examples=25)
    def test_copy_continues_the_search_of_the_original(self, seed, cut):
        # A copy taken anywhere in a call stream (learned clauses, a kept
        # assumption prefix and a branch restriction included) answers
        # the rest of the stream exactly as the original does, and
        # searching on the copy leaves the original untouched.
        rng = random.Random(seed)
        n = 60
        solver = Solver()
        for _ in range(255):
            solver.add_clause(
                [rng.choice([1, -1]) * rng.randint(1, n) for _ in range(3)]
            )
        if seed % 2:
            solver.branch_on(range(1, n // 2))
        head = [rng.choice([1, -1]) * v for v in rng.sample(range(1, n), 2)]
        stream = []
        for i in range(8):
            tail = [
                rng.choice([1, -1]) * v for v in rng.sample(range(1, n), 3)
            ]
            kwargs = {"max_conflicts": 4} if i % 3 == 2 else {}
            stream.append((head + tail, dict(kwargs, keep_prefix=2)))

        def outcomes(s, calls):
            got = []
            for assumptions, kwargs in calls:
                result = s.solve(assumptions, **kwargs)
                got.append((
                    result, s.num_propagations, s.num_decisions,
                    s.num_conflicts, s.model() if result else None,
                ))
            return got

        outcomes(solver, stream[:cut])
        twin = solver.copy()
        assert outcomes(twin, stream[cut:]) == outcomes(solver, stream[cut:])
