"""Unit and property tests for truth tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tt import TruthTable, cube_tt


def tt_strategy(max_vars=6):
    return st.integers(1, max_vars).flatmap(
        lambda n: st.builds(
            TruthTable, st.integers(0, (1 << (1 << n)) - 1), st.just(n)
        )
    )


class TestConstruction:
    def test_const(self):
        assert TruthTable.const(False, 3).is_const0
        assert TruthTable.const(True, 3).is_const1

    def test_var_columns(self):
        v1 = TruthTable.var(1, 3)
        for m in range(8):
            assert v1.value(m) == bool((m >> 1) & 1)

    def test_var_out_of_range(self):
        with pytest.raises(ValueError):
            TruthTable.var(3, 3)

    def test_from_function(self):
        maj = TruthTable.from_function(lambda a, b, c: (a + b + c) >= 2, 3)
        assert maj.count_ones() == 4
        assert maj.evaluate([True, True, False])
        assert not maj.evaluate([True, False, False])

    def test_from_minterms(self):
        t = TruthTable.from_minterms([0, 3], 2)
        assert list(t.minterms()) == [0, 3]

    def test_var_bits_mask_doubling_matches_definition(self):
        # The doubling construction must agree with the minterm
        # definition (bit m of var i is (m >> i) & 1) at every width,
        # including when the cache resumes from a narrower prefix.
        from repro.tt.truthtable import _VAR_CACHE, _var_bits

        saved = dict(_VAR_CACHE)
        try:
            for order in (range(1, 11), range(10, 0, -1)):
                _VAR_CACHE.clear()
                for nvars in order:
                    for i in range(nvars):
                        bits = _var_bits(i, nvars)
                        for m in range(1 << nvars):
                            assert ((bits >> m) & 1) == ((m >> i) & 1)
        finally:
            _VAR_CACHE.clear()
            _VAR_CACHE.update(saved)

    def test_from_minterms_range_check(self):
        with pytest.raises(ValueError):
            TruthTable.from_minterms([4], 2)

    def test_zero_vars(self):
        t = TruthTable.const(True, 0)
        assert t.is_const1
        assert t.count_ones() == 1


class TestAlgebra:
    def test_demorgan(self):
        a = TruthTable.var(0, 3)
        b = TruthTable.var(1, 3)
        assert ~(a & b) == (~a | ~b)
        assert ~(a | b) == (~a & ~b)

    def test_xor_identities(self):
        a = TruthTable.var(0, 2)
        b = TruthTable.var(1, 2)
        assert (a ^ b) == ((a & ~b) | (~a & b))
        assert (a ^ a).is_const0

    def test_mismatched_vars_raise(self):
        with pytest.raises(ValueError):
            TruthTable.var(0, 2) & TruthTable.var(0, 3)

    @given(tt_strategy())
    def test_double_complement(self, t):
        assert ~~t == t

    @given(tt_strategy())
    def test_implies_reflexive(self, t):
        assert t.implies(t)

    @given(tt_strategy())
    def test_and_implies_or(self, t):
        other = TruthTable.var(0, t.nvars)
        assert (t & other).implies(t | other)


class TestCofactors:
    @given(tt_strategy(), st.integers(0, 5), st.booleans())
    def test_cofactor_removes_dependence(self, t, i, value):
        i %= t.nvars
        cof = t.cofactor(i, value)
        assert not cof.depends_on(i)

    @given(tt_strategy(), st.integers(0, 5))
    def test_shannon_expansion(self, t, i):
        i %= t.nvars
        v = TruthTable.var(i, t.nvars)
        rebuilt = (v & t.cofactor(i, True)) | (~v & t.cofactor(i, False))
        assert rebuilt == t

    @given(tt_strategy(), st.integers(0, 5))
    def test_quantifier_sandwich(self, t, i):
        i %= t.nvars
        assert t.forall(i).implies(t)
        assert t.implies(t.exists(i))

    def test_support(self):
        a = TruthTable.var(0, 4)
        c = TruthTable.var(2, 4)
        assert (a & c).support() == [0, 2]


@st.composite
def tt_with_dummies(draw, max_vars=8):
    """A table over 0..max_vars variables, some of them made dummies."""
    n = draw(st.integers(0, max_vars))
    t = TruthTable(draw(st.integers(0, (1 << (1 << n)) - 1)), n)
    for i in range(n):
        if draw(st.booleans()):
            t = t.cofactor(i, False)
    return t


class TestSupportAgainstCofactors:
    """``depends_on``/``support``/``shrink`` against the definitions."""

    @given(tt_with_dummies())
    @settings(max_examples=200)
    def test_depends_on_and_support(self, t):
        differs = [
            t.cofactor(i, False) != t.cofactor(i, True)
            for i in range(t.nvars)
        ]
        assert [t.depends_on(i) for i in range(t.nvars)] == differs
        assert t.support() == [i for i, d in enumerate(differs) if d]

    @given(tt_with_dummies())
    @settings(max_examples=200)
    def test_shrink(self, t):
        small, support = t.shrink()
        assert support == [
            i for i in range(t.nvars)
            if t.cofactor(i, False) != t.cofactor(i, True)
        ]
        assert small.nvars == len(support)
        for m in range(1 << t.nvars):
            small_m = sum(1 << j for j, i in enumerate(support) if m >> i & 1)
            assert small.value(small_m) == t.value(m)


class TestTransforms:
    @given(tt_strategy(max_vars=4), st.permutations(list(range(4))))
    def test_permute_roundtrip(self, t, perm):
        perm = list(perm)[: t.nvars]
        if sorted(perm) != list(range(t.nvars)):
            return
        inverse = [0] * t.nvars
        for i, p in enumerate(perm):
            inverse[p] = i
        assert t.permute(perm).permute(inverse) == t

    @given(tt_strategy(), st.integers(0, 5))
    def test_flip_involution(self, t, i):
        i %= t.nvars
        assert t.flip(i).flip(i) == t

    @given(tt_strategy())
    def test_extend_preserves_semantics(self, t):
        wide = t.extend(t.nvars + 2)
        for m in range(1 << t.nvars):
            assert wide.value(m) == t.value(m)
        assert not wide.depends_on(t.nvars)

    @given(tt_strategy())
    def test_shrink_projects_support(self, t):
        small, support = t.shrink()
        assert small.nvars == len(support)
        assert small.support() == list(range(len(support)))
        # Spot-check semantics on every minterm.
        for m in range(1 << t.nvars):
            small_m = 0
            for j, i in enumerate(support):
                if (m >> i) & 1:
                    small_m |= 1 << j
            assert small.value(small_m) == t.value(m)

    def test_compose_identity(self):
        t = TruthTable.from_function(lambda a, b, c: a and (b or not c), 3)
        identity = [TruthTable.var(i, 3) for i in range(3)]
        assert t.compose(identity) == t

    def test_compose_substitution(self):
        f = TruthTable.var(0, 2) & TruthTable.var(1, 2)
        g_and = TruthTable.var(0, 3) | TruthTable.var(1, 3)
        g_c = TruthTable.var(2, 3)
        composed = f.compose([g_and, g_c])
        expected = (TruthTable.var(0, 3) | TruthTable.var(1, 3)) & TruthTable.var(2, 3)
        assert composed == expected


class TestCubeTT:
    def test_cube_semantics(self):
        # Cube: x0 AND !x2 over 3 vars.
        t = cube_tt(0b101, 0b001, 3)
        for m in range(8):
            expected = bool(m & 1) and not bool(m & 4)
            assert t.value(m) == expected

    def test_full_cube_is_tautology(self):
        assert cube_tt(0, 0, 3).is_const1
