"""Property tests for the paper's SOP level model."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import cover_level, levels as levels_module, min_sops
from repro.netlist import node_level, tree_level
from repro.sop import Cover, min_sop
from repro.tt import TruthTable


def brute_force_tree_level(arrivals):
    """Minimum root arrival over all binary merge orders (exponential)."""
    if len(arrivals) <= 1:
        return arrivals[0] if arrivals else 0
    best = None
    items = list(arrivals)
    for i, j in itertools.combinations(range(len(items)), 2):
        merged = [items[k] for k in range(len(items)) if k not in (i, j)]
        merged.append(max(items[i], items[j]) + 1)
        sub = brute_force_tree_level(merged)
        if best is None or sub < best:
            best = sub
    return best


class TestTreeLevel:
    @given(st.lists(st.integers(0, 6), min_size=0, max_size=6))
    @settings(deadline=None, max_examples=40)
    def test_matches_brute_force(self, arrivals):
        assert tree_level(arrivals) == brute_force_tree_level(arrivals)

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=10))
    def test_bounds(self, arrivals):
        result = tree_level(arrivals)
        assert result >= max(arrivals)
        # Upper bound: max arrival + ceil(log2(n)).
        import math

        assert result <= max(arrivals) + math.ceil(
            math.log2(max(len(arrivals), 1)) + 1e-9
        ) + (0 if len(arrivals) == 1 else 0) or len(arrivals) == 1

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=8),
           st.integers(0, 7))
    def test_monotone_in_arrivals(self, arrivals, idx):
        idx %= len(arrivals)
        bumped = list(arrivals)
        bumped[idx] += 1
        assert tree_level(bumped) >= tree_level(arrivals)


def tt_strategy(max_vars=4):
    return st.integers(2, max_vars).flatmap(
        lambda n: st.builds(
            TruthTable, st.integers(0, (1 << (1 << n)) - 1), st.just(n)
        )
    )


class TestNodeLevel:
    @given(tt_strategy())
    @settings(deadline=None, max_examples=30)
    def test_complement_invariant(self, t):
        # Output inversion is free in an AIG: level(f) == level(!f).
        levels = [0] * t.nvars
        assert node_level(t, levels) == node_level(~t, levels)

    @given(tt_strategy(), st.integers(0, 3))
    @settings(deadline=None, max_examples=30)
    def test_monotone_in_fanin_levels(self, t, idx):
        idx %= t.nvars
        base = [1] * t.nvars
        bumped = list(base)
        bumped[idx] += 2
        assert node_level(t, bumped) >= node_level(t, base)

    def test_single_literal_is_free(self):
        t = TruthTable.var(1, 3)
        assert node_level(t, [5, 7, 3]) == 7
        assert node_level(~t, [5, 7, 3]) == 7

    @given(tt_strategy())
    @settings(deadline=None, max_examples=30)
    def test_no_worse_than_on_set_cover(self, t):
        if t.is_const0 or t.is_const1:
            return
        levels = [0] * t.nvars
        on_cover = min_sop(t)
        assert node_level(t, levels) <= cover_level(on_cover, levels)


class TestCoverLevel:
    def test_single_cube_is_and_tree(self):
        cov = Cover.parse(["1111"])
        assert cover_level(cov, [0, 0, 0, 0]) == 2

    def test_wide_or_of_literals(self):
        cov = Cover.parse(["---1", "--1-", "-1--", "1---"])
        assert cover_level(cov, [0, 0, 0, 0]) == 2

    def test_empty_cover_is_constant(self):
        assert cover_level(Cover.empty(3), [4, 4, 4]) == 0


class TestMinSopsCache:
    def test_cache_keeps_at_most_its_cap(self, monkeypatch):
        # A long-lived process meets ever new local functions; the memo
        # keeps the SOP_CACHE_SIZE most recent ones, never every one.
        cap = levels_module.SOP_CACHE_SIZE
        monkeypatch.setattr(levels_module, "min_sop", lambda tt: tt.bits)
        levels_module._min_sops.cache_clear()
        try:
            for bits in range(cap + 100):
                tt = TruthTable(bits, 5)
                assert min_sops(tt) == (bits, (~tt).bits)
            assert levels_module._min_sops.cache_info().currsize == cap
            # The oldest function was evicted and is minimized again.
            monkeypatch.setattr(levels_module, "min_sop", lambda tt: -1)
            assert min_sops(TruthTable(0, 5)) == (-1, -1)
            assert min_sops(TruthTable(cap + 99, 5)) == (
                cap + 99, (~TruthTable(cap + 99, 5)).bits
            )
        finally:
            levels_module._min_sops.cache_clear()
