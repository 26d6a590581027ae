"""Property tests for cut enumeration."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import (
    cut_volume,
    enumerate_cuts,
    fanin_cone_vars,
    lit_var,
    mffc_vars,
)

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


class TestCutEnumeration:
    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(0, 10))
    @settings(deadline=None, max_examples=60)
    def test_matches_pairwise_reference(self, seed, k, max_cuts):
        aig = random_aig(seed, n_pis=6, n_nodes=40)
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
