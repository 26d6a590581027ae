"""Tests for the BDD package (against truth tables as the oracle)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD, FALSE, TRUE, aig_to_bdd, ref_complemented, ref_not
from repro.tt import TruthTable
from repro.aig import AIG, po_tts


def tt_to_bdd(bdd, t):
    if t.is_const0:
        return FALSE
    if t.is_const1:
        return TRUE
    i = max(t.support())
    hi = tt_to_bdd(bdd, t.cofactor(i, True))
    lo = tt_to_bdd(bdd, t.cofactor(i, False))
    return bdd.ite(bdd.var(i), hi, lo)


def bdd_to_tt(bdd, ref, nvars):
    bits = 0
    for m in range(1 << nvars):
        if bdd.eval(ref, {i: bool((m >> i) & 1) for i in range(nvars)}):
            bits |= 1 << m
    return TruthTable(bits, nvars)


def tt_strategy(max_vars=5):
    return st.integers(1, max_vars).flatmap(
        lambda n: st.builds(
            TruthTable, st.integers(0, (1 << (1 << n)) - 1), st.just(n)
        )
    )


class TestCanonicity:
    @given(tt_strategy())
    def test_same_function_same_ref(self, t):
        bdd = BDD()
        r1 = tt_to_bdd(bdd, t)
        r2 = tt_to_bdd(bdd, ~~t)
        assert r1 == r2

    @given(tt_strategy())
    def test_complement_is_ref_not(self, t):
        bdd = BDD()
        assert tt_to_bdd(bdd, ~t) == ref_not(tt_to_bdd(bdd, t))

    def test_var_structure(self):
        bdd = BDD()
        v = bdd.var(3)
        assert bdd.level_of(v) == 3


class TestOps:
    @given(tt_strategy(4), tt_strategy(4))
    @settings(deadline=None)
    def test_binary_ops(self, t1, t2):
        n = max(t1.nvars, t2.nvars)
        t1, t2 = t1.extend(n), t2.extend(n)
        bdd = BDD()
        r1, r2 = tt_to_bdd(bdd, t1), tt_to_bdd(bdd, t2)
        assert bdd_to_tt(bdd, bdd.and_(r1, r2), n) == (t1 & t2)
        assert bdd_to_tt(bdd, bdd.or_(r1, r2), n) == (t1 | t2)
        assert bdd_to_tt(bdd, bdd.xor_(r1, r2), n) == (t1 ^ t2)

    @given(tt_strategy(4), st.integers(0, 3), st.booleans())
    @settings(deadline=None)
    def test_restrict(self, t, var, value):
        var %= t.nvars
        bdd = BDD()
        r = tt_to_bdd(bdd, t)
        assert bdd_to_tt(bdd, bdd.restrict(r, var, value), t.nvars) == \
            t.cofactor(var, value)

    @given(tt_strategy(4), st.integers(0, 3))
    @settings(deadline=None)
    def test_quantification(self, t, var):
        var %= t.nvars
        bdd = BDD()
        r = tt_to_bdd(bdd, t)
        assert bdd_to_tt(bdd, bdd.exists(r, [var]), t.nvars) == t.exists(var)
        assert bdd_to_tt(bdd, bdd.forall(r, [var]), t.nvars) == t.forall(var)

    @given(tt_strategy(3), tt_strategy(3), st.integers(0, 2))
    @settings(deadline=None)
    def test_compose(self, f, g, var):
        n = max(f.nvars, g.nvars)
        f, g = f.extend(n), g.extend(n)
        var %= n
        bdd = BDD()
        rf, rg = tt_to_bdd(bdd, f), tt_to_bdd(bdd, g)
        composed = bdd.compose(rf, var, rg)
        v = TruthTable.var(var, n)
        expected = (g & f.cofactor(var, True)) | (~g & f.cofactor(var, False))
        assert bdd_to_tt(bdd, composed, n) == expected


class TestQueries:
    @given(tt_strategy())
    def test_sat_count(self, t):
        bdd = BDD()
        assert bdd.sat_count(tt_to_bdd(bdd, t), t.nvars) == t.count_ones()

    def test_sat_count_rejects_a_variable_beyond_nvars_at_any_depth(self):
        bdd = BDD()
        x0, x20 = bdd.var(0), bdd.var(20)
        for f in (x20, bdd.and_(x0, x20), bdd.or_(x0, ref_not(x20))):
            with pytest.raises(ValueError, match="beyond nvars"):
                bdd.sat_count(f, 5)
        # The raise cached nothing: the same manager still counts.
        assert bdd.sat_count(x0, 5) == 16
        assert bdd.sat_count(bdd.and_(x0, x20), 21) == 1 << 19

    @given(tt_strategy())
    def test_pick_one(self, t):
        bdd = BDD()
        r = tt_to_bdd(bdd, t)
        one = bdd.pick_one(r)
        if t.is_const0:
            assert one is None
        else:
            assert bdd.eval(r, one)

    @given(tt_strategy())
    def test_support(self, t):
        bdd = BDD()
        assert bdd.support(tt_to_bdd(bdd, t)) == t.support()

    @given(tt_strategy(4), tt_strategy(4))
    def test_implies(self, t1, t2):
        n = max(t1.nvars, t2.nvars)
        t1, t2 = t1.extend(n), t2.extend(n)
        bdd = BDD()
        assert bdd.implies(tt_to_bdd(bdd, t1), tt_to_bdd(bdd, t2)) == \
            t1.implies(t2)


class TestFromAig:
    def test_aig_to_bdd_matches_po_tts(self):
        aig = AIG()
        xs = [aig.add_pi() for _ in range(5)]
        f = aig.mux_(xs[0], aig.xor_(xs[1], xs[2]), aig.and_(xs[3], xs[4]))
        g = aig.or_many(xs)
        aig.add_po(f)
        aig.add_po(g)
        bdd = BDD()
        refs = aig_to_bdd(bdd, aig, aig.pos)
        for ref, tt in zip(refs, po_tts(aig)):
            assert bdd_to_tt(bdd, ref, 5) == tt

    def test_size_limit_aborts(self):
        aig = AIG()
        xs = [aig.add_pi() for _ in range(12)]
        f = aig.xor_many(xs)
        bdd = BDD()
        assert aig_to_bdd(bdd, aig, [f], size_limit=3) is None


class ReferenceBDD(BDD):
    """``ite`` written through ``level_of``/``cofactors``/``ref_not``.

    The textbook recursion the array-reading ``BDD.ite`` must match call
    for call: same terminal cases, cache keys, recursion order and
    ``_mk`` calls, hence the same nodes allocated in the same order.
    """

    def ite(self, f, g, h):
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        if g == FALSE and h == TRUE:
            return ref_not(f)
        if g == f:
            g = TRUE
        elif g == ref_not(f):
            g = FALSE
        if h == f:
            h = FALSE
        elif h == ref_not(f):
            h = TRUE
        out_neg = False
        if ref_complemented(g):
            g, h = ref_not(g), ref_not(h)
            out_neg = True
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return ref_not(cached) if out_neg else cached
        top = min(self.level_of(f), self.level_of(g), self.level_of(h))
        f1, f0 = self.cofactors(f, top)
        g1, g0 = self.cofactors(g, top)
        h1, h0 = self.cofactors(h, top)
        r1 = self.ite(f1, g1, h1)
        r0 = self.ite(f0, g0, h0)
        result = self._mk(top, r1, r0)
        self._ite_cache[key] = result
        return ref_not(result) if out_neg else result


def _random_formulas(bdd, seed, nvars=7, steps=100):
    """Refs of a random operation sequence (replayable on any manager)."""
    rng = random.Random(seed)
    pool = [TRUE, FALSE]
    for i in rng.sample(range(nvars), nvars):
        pool.append(bdd.var(i) ^ rng.getrandbits(1))
    out = []
    for _ in range(steps):
        op = rng.randrange(6)
        f, g, h = (rng.choice(pool) ^ rng.getrandbits(1) for _ in range(3))
        if op == 0:
            r = bdd.and_(f, g)
        elif op == 1:
            r = bdd.or_(f, g)
        elif op == 2:
            r = bdd.xor_(f, g)
        elif op == 3:
            r = bdd.ite(f, g, h)
        elif op == 4:
            r = bdd.compose(f, rng.randrange(nvars), g)
        else:
            r = bdd.exists(f, [rng.randrange(nvars)])
        pool.append(r)
        out.append(r)
    return out


def _fresh_count(bdd, ref, nvars):
    """``sat_count`` on an empty memo, as every call counted before."""
    memo, bdd._sat_counts = bdd._sat_counts, {}
    try:
        return bdd.sat_count(ref, nvars)
    finally:
        bdd._sat_counts = memo


class TestSatCountMemo:
    @pytest.mark.parametrize("seed", range(10))
    def test_memoized_counts_match_fresh_counts(self, seed):
        # Counts interleave with the ite calls that grow the manager, and
        # each function is counted over two variable spaces: the memo the
        # manager keeps must answer as a memo started for the call.
        rng = random.Random(seed)
        bdd = BDD()
        seen = []
        for batch in range(5):
            seen.extend(_random_formulas(bdd, f"{seed}:{batch}", steps=30))
            for ref in rng.sample(seen, 20):
                for nvars in (7, 9):
                    fresh = _fresh_count(bdd, ref, nvars)
                    assert bdd.sat_count(ref, nvars) == fresh
                oracle = bdd_to_tt(bdd, ref, 7).count_ones()
                assert bdd.sat_count(ref, 7) == oracle
        assert len(bdd._sat_counts[7]) > 20  # the memo was shared


class TestIteReference:
    @pytest.mark.parametrize("seed", range(25))
    def test_same_refs_and_node_arrays(self, seed):
        fast, ref = BDD(), ReferenceBDD()
        assert _random_formulas(fast, seed) == _random_formulas(ref, seed)
        assert fast._var == ref._var
        assert fast._high == ref._high
        assert fast._low == ref._low
        assert fast._ite_cache == ref._ite_cache
        assert fast.size() > 20  # the formulas reached real BDDs

    @given(tt_strategy(5), tt_strategy(5))
    @settings(deadline=None, max_examples=40)
    def test_same_nodes_from_truth_tables(self, t1, t2):
        n = max(t1.nvars, t2.nvars)
        t1, t2 = t1.extend(n), t2.extend(n)
        managers = (BDD(), ReferenceBDD())
        refs = []
        for bdd in managers:
            a, b = tt_to_bdd(bdd, t1), tt_to_bdd(bdd, t2)
            refs.append((a, b, bdd.and_(a, b), bdd.xor_(a, ref_not(b))))
        assert refs[0] == refs[1]
        fast, ref = managers
        assert (fast._var, fast._high, fast._low) == \
            (ref._var, ref._high, ref._low)


def _manager_state(bdd):
    """Copies of everything a BDD operation could add to the manager."""
    return (
        list(bdd._var), list(bdd._high), list(bdd._low),
        dict(bdd._unique), dict(bdd._ite_cache),
    )


class TestConjIsFalse:
    """``conj_is_false`` against the conjunction it never builds.

    Every call must leave the manager as it found it; the reference
    conjunction is built only after that is checked.
    """

    def _check(self, bdd, refs):
        before = _manager_state(bdd)
        got = bdd.conj_is_false(refs)
        assert _manager_state(bdd) == before
        assert got == (bdd.and_many(refs) == FALSE)
        return got

    def _check_implies(self, bdd, f, g):
        before = _manager_state(bdd)
        got = bdd.implies(f, g)
        assert _manager_state(bdd) == before
        assert got == (bdd.and_(f, ref_not(g)) == FALSE)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_the_built_conjunction(self, seed):
        bdd = BDD()
        pool = [TRUE, FALSE, *_random_formulas(bdd, seed)]
        rng = random.Random(seed)
        verdicts = set()
        for _ in range(40):
            refs = [
                rng.choice(pool) ^ rng.getrandbits(1)
                for _ in range(rng.randint(1, 6))
            ]
            verdicts.add(self._check(bdd, refs))
            f = rng.choice(refs)
            self._check(bdd, refs + [f])  # a duplicate operand
            self._check(bdd, refs + [ref_not(f)])  # a complementary pair
            self._check_implies(bdd, f, rng.choice(pool))
        assert verdicts == {True, False}

    @given(
        st.integers(0, 10_000),
        st.lists(
            st.tuples(st.integers(0, 1 << 10), st.booleans()),
            min_size=1, max_size=6,
        ),
    )
    @settings(deadline=None, max_examples=100)
    def test_operand_lists(self, seed, picks):
        bdd = BDD()
        pool = [TRUE, FALSE, *_random_formulas(bdd, seed, steps=40)]
        refs = [pool[i % len(pool)] ^ neg for i, neg in picks]
        self._check(bdd, refs)
        self._check_implies(bdd, refs[0], refs[-1])

    def test_constant_and_trivial_operands(self):
        bdd = BDD()
        x, y = bdd.var(0), bdd.var(1)
        cases = [
            ([], False), ([TRUE], False), ([FALSE], True),
            ([x, TRUE], False), ([x, FALSE], True), ([x, x], False),
            ([x, ref_not(x)], True), ([x, y, ref_not(x)], True),
            ([x, ref_not(y)], False),
        ]
        for refs, empty in cases:
            assert self._check(bdd, refs) is empty
