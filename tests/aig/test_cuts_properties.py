"""Property tests for cut enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import (
    AIG,
    CONST0,
    CONST1,
    cut_tt,
    cut_volume,
    enumerate_cuts,
    fanin_cone_vars,
    lit_neg,
    lit_var,
    mffc_vars,
)
from repro.tt import TruthTable

from .test_aig import random_aig


def pairwise_cuts(aig, k, max_cuts):
    """Reference enumeration: the plain pairwise dominance filter."""

    def dominated(cut, others):
        cut_set = set(cut)
        return any(set(o) <= cut_set and o != cut for o in others)

    cuts = [[] for _ in range(aig.num_vars)]
    cuts[0] = [()]
    for var in aig.pis:
        cuts[var] = [(var,)]
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        merged = []
        for c0 in cuts[lit_var(f0)]:
            for c1 in cuts[lit_var(f1)]:
                union = tuple(sorted(set(c0) | set(c1)))
                if len(union) > k:
                    continue
                if union not in merged:
                    merged.append(union)
        merged = [c for c in merged if not dominated(c, merged)]
        merged.sort(key=lambda c: (len(c), c))
        cuts[var] = merged[:max_cuts] + [(var,)]
    return cuts


def truth_table_walk(aig, root, leaves, is_lit=False):
    """Reference cut function: one ``TruthTable`` object per node."""
    n = len(leaves)
    values = {0: TruthTable.const(False, n)}
    for i, leaf in enumerate(leaves):
        values[leaf] = TruthTable.var(i, n)
    root_var = lit_var(root) if is_lit else root
    stack = [root_var]
    while stack:
        var = stack[-1]
        if var in values:
            stack.pop()
            continue
        if aig.is_pi(var):
            raise ValueError(f"PI {var} reached but not a cut leaf")
        f0, f1 = aig.fanins(var)
        pending = [v for v in (lit_var(f0), lit_var(f1)) if v not in values]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        a = values[lit_var(f0)]
        if lit_neg(f0):
            a = ~a
        b = values[lit_var(f1)]
        if lit_neg(f1):
            b = ~b
        values[var] = a & b
    result = values[root_var]
    if is_lit and lit_neg(root):
        result = ~result
    return result


def raw_and(aig, f0, f1):
    """Append an AND node as given: ``and_`` would fold a constant."""
    var = aig.num_vars
    aig._fanin0.append(f0)
    aig._fanin1.append(f1)
    aig._is_pi.append(False)
    return var


class TestCutFunction:
    @given(st.integers(0, 10_000), st.integers(2, 8))
    @settings(deadline=None, max_examples=40)
    def test_matches_truth_table_walk(self, seed, k):
        aig = random_aig(seed, n_pis=8, n_nodes=60)
        cuts = enumerate_cuts(aig, k, 6)
        for var in aig.and_vars():
            for cut in cuts[var]:
                leaves = list(cut)
                want = truth_table_walk(aig, var, leaves)
                assert cut_tt(aig, var, leaves) == want
                for lit in (2 * var, 2 * var + 1):
                    assert cut_tt(aig, lit, leaves, is_lit=True) == (
                        truth_table_walk(aig, lit, leaves, is_lit=True)
                    )

    @pytest.mark.parametrize("const", [CONST0, CONST1])
    def test_constant_fanin(self, const):
        aig = AIG()
        x, y = aig.add_pi(), aig.add_pi()
        g = raw_and(aig, const, aig.and_(x, y ^ 1))
        h = raw_and(aig, 2 * g + 1, x)
        leaves = [lit_var(x), lit_var(y)]
        for root in (g, h):
            want = truth_table_walk(aig, root, leaves)
            assert cut_tt(aig, root, leaves) == want
            assert cut_tt(aig, 2 * root + 1, leaves, is_lit=True) == ~want
        assert cut_tt(aig, g, leaves).is_const0 == (const == CONST0)

    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=30)
    def test_pi_reached_raises_like_reference(self, seed):
        aig = random_aig(seed, n_pis=6, n_nodes=30)
        cuts = enumerate_cuts(aig, 4, 4)
        for var in aig.and_vars():
            for cut in cuts[var]:
                if len(cut) < 2 or cut == (var,):
                    continue
                leaves = list(cut[1:])  # drop one leaf: the cone leaks
                try:
                    want = truth_table_walk(aig, var, leaves)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        cut_tt(aig, var, leaves)
                else:
                    assert cut_tt(aig, var, leaves) == want


class TestCutEnumeration:
    # k from 2 to 10 spans every production setting: rewrite's 4,
    # renode's 6, refactor's and sis_minimize's 8 and speed_up's 10;
    # max_cuts=0 keeps trivial cuts only.
    @given(st.integers(0, 10_000), st.integers(2, 10), st.integers(0, 10))
    @settings(deadline=None, max_examples=60)
    def test_matches_pairwise_reference(self, seed, k, max_cuts):
        aig = random_aig(seed, n_pis=8, n_nodes=80)
        assert enumerate_cuts(aig, k, max_cuts) == pairwise_cuts(
            aig, k, max_cuts
        )

    @given(st.integers(0, 30), st.integers(3, 6))
    @settings(deadline=None, max_examples=15)
    def test_cuts_are_real_cuts(self, seed, k):
        # Every cut must separate the node from the PIs: walking the cone
        # from the root must terminate at cut leaves only.
        aig = random_aig(seed, n_pis=6, n_nodes=30)
        cuts = enumerate_cuts(aig, k=k)
        for var in aig.and_vars():
            for cut in cuts[var]:
                if not cut:
                    continue
                leaf_set = set(cut)
                stack = [var]
                seen = set()
                while stack:
                    v = stack.pop()
                    if v in leaf_set or v in seen:
                        continue
                    seen.add(v)
                    assert aig.is_and(v), (
                        f"cut {cut} of {var} does not cover PI {v}"
                    )
                    f0, f1 = aig.fanins(v)
                    stack.append(lit_var(f0))
                    stack.append(lit_var(f1))

    @given(st.integers(0, 30))
    @settings(deadline=None, max_examples=10)
    def test_no_dominated_cuts(self, seed):
        aig = random_aig(seed, n_pis=5, n_nodes=25)
        cuts = enumerate_cuts(aig, k=4)
        for var in aig.and_vars():
            non_trivial = [c for c in cuts[var] if c != (var,)]
            for i, a in enumerate(non_trivial):
                for j, b in enumerate(non_trivial):
                    if i != j:
                        assert not (
                            set(a) < set(b)
                        ), f"cut {b} dominated by {a}"

    @given(st.integers(0, 30))
    @settings(deadline=None, max_examples=10)
    def test_leaves_sorted_and_unique(self, seed):
        aig = random_aig(seed)
        cuts = enumerate_cuts(aig, k=5)
        for var_cuts in cuts:
            for cut in var_cuts:
                assert list(cut) == sorted(set(cut))

    @given(st.integers(0, 30))
    @settings(deadline=None, max_examples=10)
    def test_volume_bounded_by_cone(self, seed):
        aig = random_aig(seed, n_pis=5, n_nodes=25)
        cuts = enumerate_cuts(aig, k=4)
        for var in aig.and_vars():
            cone_ands = sum(
                1
                for v in fanin_cone_vars(aig, [var * 2])
                if aig.is_and(v)
            )
            for cut in cuts[var]:
                if cut and cut != (var,):
                    vol = cut_volume(aig, var, list(cut))
                    assert 1 <= vol <= cone_ands


class TestMffc:
    @given(st.integers(0, 30))
    @settings(deadline=None, max_examples=10)
    def test_mffc_contains_root(self, seed):
        aig = random_aig(seed, n_pis=5, n_nodes=25)
        for var in list(aig.and_vars())[:10]:
            mffc = mffc_vars(aig, var)
            assert var in mffc
            assert all(aig.is_and(v) for v in mffc)
