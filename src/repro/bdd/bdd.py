"""Reduced ordered BDDs with complement edges.

A function is referenced by ``ref = (node_id << 1) | complement``.  Node 0 is
the terminal; ``TRUE = 0`` and ``FALSE = 1`` (the complemented terminal).
Canonical form: the *high* (then) edge of a stored node is never
complemented.  Variables are ordered by index (level == variable).

Used for exact SPCF representation and exact cube-weight computation on
small/medium cones, and as an independent oracle in the test suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

TRUE = 0
FALSE = 1


def ref_not(ref: int) -> int:
    """Complement a function reference."""
    return ref ^ 1


def ref_node(ref: int) -> int:
    return ref >> 1


def ref_complemented(ref: int) -> bool:
    return bool(ref & 1)


def _conj_operands(refs: Iterable[int]) -> Optional[Tuple[int, ...]]:
    """The distinct non-constant operands of a conjunction, sorted.

    ``None`` when the conjunction is FALSE on sight: a FALSE operand or
    a complementary pair.
    """
    ops = set()
    for r in refs:
        if r == TRUE:
            continue
        if r == FALSE or r ^ 1 in ops:
            return None
        ops.add(r)
    return tuple(sorted(ops))


class BDD:
    """A BDD manager (unique table + computed table)."""

    _TERMINAL_LEVEL = 1 << 30

    def __init__(self) -> None:
        # Parallel node arrays; node 0 is the terminal.
        self._var: List[int] = [self._TERMINAL_LEVEL]
        self._high: List[int] = [TRUE]
        self._low: List[int] = [TRUE]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        # sat_count memo: nvars -> {ref: count}.  Nodes never change once
        # made, so a count stays valid while the manager grows.
        self._sat_counts: Dict[int, Dict[int, int]] = {}

    # -- node management -------------------------------------------------------

    def _mk(self, var: int, high: int, low: int) -> int:
        if high == low:
            return high
        # Canonicalize: high edge must be regular.
        out_neg = high & 1
        if out_neg:
            high ^= 1
            low ^= 1
        key = (var, high, low)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(var)
            self._high.append(high)
            self._low.append(low)
            self._unique[key] = node
        return (node << 1) | out_neg

    def var(self, i: int) -> int:
        """Reference to the projection function ``x_i``."""
        return self._mk(i, TRUE, FALSE)

    def nvar(self, i: int) -> int:
        """Reference to ``!x_i``."""
        return ref_not(self.var(i))

    def level_of(self, ref: int) -> int:
        return self._var[ref_node(ref)]

    def cofactors(self, ref: int, var: int) -> Tuple[int, int]:
        """(high, low) cofactors with respect to ``var``."""
        node = ref_node(ref)
        if self._var[node] != var:
            return ref, ref
        neg = ref & 1
        return self._high[node] ^ neg, self._low[node] ^ neg

    def size(self) -> int:
        """Total nodes allocated in the manager."""
        return len(self._var)

    # -- core ITE ---------------------------------------------------------------

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h``."""
        # Terminal cases.
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        if g == FALSE and h == TRUE:
            return f ^ 1
        if g == f:
            g = TRUE
        elif g == f ^ 1:
            g = FALSE
        if h == f:
            h = FALSE
        elif h == f ^ 1:
            h = TRUE
        # Normalize for cache hits: ensure g regular by output complement.
        out_neg = False
        if g & 1:
            # ite(f,g,h) = !ite(f,!g,!h)
            g, h = g ^ 1, h ^ 1
            out_neg = True
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached ^ 1 if out_neg else cached
        # Cofactors straight off the node arrays (the hot loop of every
        # BDD build); same values as ``level_of``/``cofactors``.
        var, high, low = self._var, self._high, self._low
        fn, gn, hn = f >> 1, g >> 1, h >> 1
        fv, gv, hv = var[fn], var[gn], var[hn]
        top = min(fv, gv, hv)
        if fv == top:
            f1, f0 = high[fn] ^ (f & 1), low[fn] ^ (f & 1)
        else:
            f1 = f0 = f
        if gv == top:
            g1, g0 = high[gn] ^ (g & 1), low[gn] ^ (g & 1)
        else:
            g1 = g0 = g
        if hv == top:
            h1, h0 = high[hn] ^ (h & 1), low[hn] ^ (h & 1)
        else:
            h1 = h0 = h
        r1 = self.ite(f1, g1, h1)
        r0 = self.ite(f0, g0, h0)
        result = self._mk(top, r1, r0)
        self._ite_cache[key] = result
        return result ^ 1 if out_neg else result

    # -- derived operations -------------------------------------------------------

    def and_(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def or_(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def xor_(self, f: int, g: int) -> int:
        return self.ite(f, ref_not(g), g)

    def and_many(self, refs: Iterable[int]) -> int:
        acc = TRUE
        for r in refs:
            acc = self.and_(acc, r)
            if acc == FALSE:
                break
        return acc

    def or_many(self, refs: Iterable[int]) -> int:
        acc = FALSE
        for r in refs:
            acc = self.or_(acc, r)
            if acc == TRUE:
                break
        return acc

    def implies(self, f: int, g: int) -> bool:
        return self.conj_is_false([f, ref_not(g)])

    def conj_is_false(self, refs: Iterable[int]) -> bool:
        """Whether the conjunction of ``refs`` is FALSE, building nothing.

        The many-operand form of CUDD's containment test
        (``Cudd_bddLeq``): a depth-first search for one satisfying path
        of the conjunction.  Each step cofactors every operand on the
        top variable, takes the then-branch first and stops at the first
        branch that is not empty.  It only reads the node arrays: no
        ``_mk`` call, no unique-table or computed-table entry, so the
        manager is the same after the call as before it.
        """
        ops = _conj_operands(refs)
        if ops is None:
            return True
        if len(ops) < 2:
            return False
        return self._conj_empty(ops, set())

    def _conj_empty(
        self, ops: Tuple[int, ...], empty: Set[Tuple[int, ...]]
    ) -> bool:
        """:meth:`conj_is_false` of at least two :func:`_conj_operands`.

        ``empty`` holds the operand tuples this call has proved empty.
        Only those need remembering: a branch that is not empty ends the
        whole search.
        """
        if ops in empty:
            return True
        var = self._var
        top = min([var[r >> 1] for r in ops])
        for branch in (self._high, self._low):
            sub = _conj_operands([
                branch[r >> 1] ^ (r & 1) if var[r >> 1] == top else r
                for r in ops
            ])
            if sub is None:
                continue
            if len(sub) < 2 or not self._conj_empty(sub, empty):
                return False
        empty.add(ops)
        return True

    def restrict(self, f: int, var: int, value: bool) -> int:
        """Cofactor ``f`` with respect to ``x_var = value``."""
        if self.level_of(f) > var:
            return f
        cache: Dict[int, int] = {}

        def rec(r: int) -> int:
            lvl = self.level_of(r)
            if lvl > var:
                return r
            if r in cache:
                return cache[r]
            hi, lo = self.cofactors(r, lvl)
            if lvl == var:
                out = hi if value else lo
            else:
                out = self._mk(lvl, rec(hi), rec(lo))
            cache[r] = out
            return out

        out = rec(f)
        del rec  # free the self-referencing closure now, not at GC
        return out

    def exists(self, f: int, variables: Sequence[int]) -> int:
        out = f
        for v in sorted(variables, reverse=True):
            hi = self.restrict(out, v, True)
            lo = self.restrict(out, v, False)
            out = self.or_(hi, lo)
        return out

    def forall(self, f: int, variables: Sequence[int]) -> int:
        return ref_not(self.exists(ref_not(f), variables))

    def compose(self, f: int, var: int, g: int) -> int:
        """Substitute function ``g`` for variable ``var`` in ``f``."""
        hi = self.restrict(f, var, True)
        lo = self.restrict(f, var, False)
        return self.ite(g, hi, lo)

    # -- queries --------------------------------------------------------------------

    def support(self, f: int) -> List[int]:
        seen = set()
        sup = set()
        stack = [ref_node(f)]
        while stack:
            node = stack.pop()
            if node in seen or node == 0:
                continue
            seen.add(node)
            sup.add(self._var[node])
            stack.append(ref_node(self._high[node]))
            stack.append(ref_node(self._low[node]))
        return sorted(sup)

    def eval(self, f: int, assignment: Dict[int, bool]) -> bool:
        ref = f
        while ref_node(ref) != 0:
            node = ref_node(ref)
            value = assignment.get(self._var[node], False)
            nxt = self._high[node] if value else self._low[node]
            ref = nxt ^ (ref & 1)
        return not ref_complemented(ref)

    def sat_count(self, f: int, nvars: int) -> int:
        """Number of satisfying minterms over ``nvars`` variables (0..nvars-1).

        Counts are memoized per manager, so the counts of overlapping
        functions share their common nodes' work.  Raises ``ValueError``
        when ``f`` depends on a variable beyond ``nvars``, at any depth.
        """
        cache = self._sat_counts.setdefault(nvars, {})
        full = 1 << nvars

        def count(ref: int) -> int:
            """Exact on-set size of ``ref`` over the full nvars space."""
            if ref == TRUE:
                return full
            if ref == FALSE:
                return 0
            if ref in cache:
                return cache[ref]
            node = ref_node(ref)
            # Checked before anything is cached: a raise leaves no count
            # above the offending node.
            if self._var[node] >= nvars:
                raise ValueError("function depends on variables beyond nvars")
            hi = self._high[node] ^ (ref & 1)
            lo = self._low[node] ^ (ref & 1)
            # f = x·hi + !x·lo with hi, lo independent of x, so the sum
            # below is even and the halving is exact.
            out = (count(hi) + count(lo)) // 2
            cache[ref] = out
            return out

        try:
            return count(f)
        finally:
            del count  # free the self-referencing closure now, not at GC

    def pick_one(self, f: int) -> Optional[Dict[int, bool]]:
        """One satisfying assignment over the support, or None if UNSAT."""
        if f == FALSE:
            return None
        out: Dict[int, bool] = {}
        ref = f
        while ref_node(ref) != 0:
            node = ref_node(ref)
            hi = self._high[node] ^ (ref & 1)
            lo = self._low[node] ^ (ref & 1)
            if hi != FALSE:
                out[self._var[node]] = True
                ref = hi
            else:
                out[self._var[node]] = False
                ref = lo
        return out

    def node_count(self, f: int) -> int:
        """Number of distinct nodes in the DAG of ``f`` (terminal included)."""
        seen = set()
        stack = [ref_node(f)]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node != 0:
                stack.append(ref_node(self._high[node]))
                stack.append(ref_node(self._low[node]))
        return len(seen)
