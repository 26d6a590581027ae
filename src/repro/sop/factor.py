"""Algebraic factoring of SOP covers (kernels, division, good_factor).

The factored form drives multi-level synthesis of network nodes back into
AIGs: ``repro.netlist.to_aig`` walks the expression tree produced by
:func:`factor` and builds arrival-aware AND/OR trees.

Internally cubes are frozensets of literals ``(var, polarity)`` — the
algebraic (as opposed to Boolean) view, as in SIS.
"""

from __future__ import annotations

from collections import Counter
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from .cube import Cube
from .sop import Cover

Literal = Tuple[int, bool]
ACube = FrozenSet[Literal]


class Expr:
    """Factored-form expression tree.

    ``kind`` is one of ``'lit'``, ``'and'``, ``'or'``, ``'const0'``,
    ``'const1'``.  Literal nodes carry ``(var, polarity)``; operator nodes
    carry children.
    """

    __slots__ = ("kind", "lit", "children")

    def __init__(self, kind: str, lit: Optional[Literal] = None,
                 children: Optional[List["Expr"]] = None):
        self.kind = kind
        self.lit = lit
        self.children = children or []

    @classmethod
    def literal(cls, var: int, pol: bool) -> "Expr":
        return cls("lit", lit=(var, pol))

    @classmethod
    def and_(cls, children: List["Expr"]) -> "Expr":
        if not children:
            return cls("const1")
        if len(children) == 1:
            return children[0]
        return cls("and", children=children)

    @classmethod
    def or_(cls, children: List["Expr"]) -> "Expr":
        if not children:
            return cls("const0")
        if len(children) == 1:
            return children[0]
        return cls("or", children=children)

    def num_literals(self) -> int:
        if self.kind == "lit":
            return 1
        return sum(c.num_literals() for c in self.children)

    def __repr__(self) -> str:
        if self.kind == "lit":
            var, pol = self.lit
            return f"x{var}" if pol else f"!x{var}"
        if self.kind in ("const0", "const1"):
            return self.kind[-1]
        sep = " & " if self.kind == "and" else " | "
        return "(" + sep.join(map(repr, self.children)) + ")"


def _to_acubes(cover: Cover) -> List[ACube]:
    return [frozenset(c.literals()) for c in cover.cubes]


def _from_acubes(acubes: Sequence[ACube], nvars: int) -> Cover:
    return Cover([Cube.from_literals(list(ac), nvars) for ac in acubes], nvars)


def divide(f: Sequence[ACube], d: Sequence[ACube]) -> Tuple[List[ACube], List[ACube]]:
    """Algebraic (weak) division: ``f = d * q + r``.

    Returns ``(q, r)``.  ``q`` is empty when ``d`` does not divide ``f``.
    """
    if not d:
        return [], list(f)
    quotient: Optional[Set[ACube]] = None
    for dc in d:
        partial = {fc - dc for fc in f if dc <= fc}
        quotient = partial if quotient is None else quotient & partial
        if not quotient:
            return [], list(f)
    q = sorted(quotient, key=sorted)  # deterministic order
    product = {qc | dc for qc in q for dc in d}
    r = [fc for fc in f if fc not in product]
    return q, r


def common_cube(f: Sequence[ACube]) -> ACube:
    """Largest cube dividing every cube of ``f``."""
    if not f:
        return frozenset()
    acc: FrozenSet[Literal] = f[0]
    for fc in f[1:]:
        acc = acc & fc
    return acc


def is_cube_free(f: Sequence[ACube]) -> bool:
    return not common_cube(f)


def kernels(f: Sequence[ACube], min_level: int = 0) -> List[Tuple[ACube, List[ACube]]]:
    """All (co-kernel, kernel) pairs of ``f`` (standard recursive extraction).

    The trivial kernel (``f`` itself, when cube-free) is included with the
    empty co-kernel.
    """
    literal_counts = Counter(lit for fc in f for lit in fc)
    literals = sorted(
        (lit for lit, n in literal_counts.items() if n >= 2),
        key=lambda lit: (lit[0], lit[1]),
    )
    results: List[Tuple[ACube, List[ACube]]] = []
    seen: Set[FrozenSet[ACube]] = set()

    def rec(g: List[ACube], cokernel: ACube, start: int) -> None:
        key = frozenset(g)
        if key not in seen:
            seen.add(key)
            results.append((cokernel, g))
        for idx in range(start, len(literals)):
            lit = literals[idx]
            with_lit = [gc for gc in g if lit in gc]
            if len(with_lit) < 2:
                continue
            sub = [gc - {lit} for gc in with_lit]
            cc = common_cube(sub)
            new_g = sorted(({s - cc for s in sub}), key=sorted)
            # Skip if the common cube contains an earlier literal — that
            # kernel is found from the earlier branch (canonical pruning).
            if any(literals.index(c) < idx for c in cc if c in literals):
                continue
            rec(list(new_g), cokernel | {lit} | cc, idx + 1)

    g0 = list(f)
    cc0 = common_cube(g0)
    rec([fc - cc0 for fc in g0], frozenset(cc0), 0)
    del rec  # free the self-referencing closure (and ``seen``) now, not at GC
    # Kernels must be cube-free covers with >= 2 cubes, plus the trivial one.
    out = []
    for cok, ker in results:
        if len(ker) >= 2 or (not cok and ker):
            out.append((cok, ker))
    return out


def best_kernel(f: Sequence[ACube]) -> Optional[List[ACube]]:
    """Kernel maximizing a simple literal-savings value, or None."""
    candidates = kernels(f)
    best = None
    best_value = 0
    for _cok, ker in candidates:
        if frozenset(map(frozenset, ker)) == frozenset(map(frozenset, f)):
            continue
        if len(ker) < 2:
            continue
        q, _r = divide(f, ker)
        if not q:
            continue
        ker_lits = sum(len(c) for c in ker)
        value = (len(q) - 1) * ker_lits
        if value > best_value:
            best_value = value
            best = ker
    return best


def _most_common_literal(f: Sequence[ACube]) -> Optional[Literal]:
    counts = Counter(lit for fc in f for lit in fc)
    if not counts:
        return None
    # Only useful if it appears at least twice.
    lit, n = counts.most_common(1)[0]
    return lit if n >= 2 else None


def _factor_acubes(f: List[ACube]) -> Expr:
    if not f:
        return Expr("const0")
    if any(len(fc) == 0 for fc in f):
        return Expr("const1")
    if len(f) == 1:
        return Expr.and_([Expr.literal(v, p) for v, p in sorted(f[0])])
    cc = common_cube(f)
    if cc:
        rest = _factor_acubes([fc - cc for fc in f])
        lits = [Expr.literal(v, p) for v, p in sorted(cc)]
        return Expr.and_(lits + [rest])
    divisor = best_kernel(f)
    if divisor is None:
        lit = _most_common_literal(f)
        if lit is None:
            # All cubes are single distinct literals: plain OR.
            return Expr.or_([_factor_acubes([fc]) for fc in f])
        divisor = [frozenset({lit})]
    q, r = divide(f, divisor)
    if not q:
        return Expr.or_([_factor_acubes([fc]) for fc in f])
    q_expr = _factor_acubes(q)
    d_expr = _factor_acubes(list(divisor))
    dq = Expr.and_([d_expr, q_expr])
    if not r:
        return dq
    return Expr.or_([dq, _factor_acubes(r)])


def factor(cover: Cover) -> Expr:
    """Good-factor the cover into a factored-form expression tree."""
    return _factor_acubes(_to_acubes(cover))


def expr_to_cover(expr: Expr, nvars: int) -> Cover:
    """Flatten a factored form back to an SOP cover (for testing)."""
    def rec(e: Expr) -> List[ACube]:
        if e.kind == "const0":
            return []
        if e.kind == "const1":
            return [frozenset()]
        if e.kind == "lit":
            return [frozenset({e.lit})]
        if e.kind == "or":
            out: List[ACube] = []
            for ch in e.children:
                out.extend(rec(ch))
            return out
        # AND: cartesian product of children's cube lists.
        acc: List[ACube] = [frozenset()]
        for ch in e.children:
            child_cubes = rec(ch)
            nxt = []
            for a in acc:
                for b in child_cubes:
                    merged = dict(a)
                    ok = True
                    for var, pol in b:
                        if var in merged and merged[var] != pol:
                            ok = False
                            break
                        merged[var] = pol
                    if ok:
                        nxt.append(frozenset(merged.items()))
            acc = nxt
        return acc

    return _from_acubes(rec(expr), nvars).single_cube_containment()
