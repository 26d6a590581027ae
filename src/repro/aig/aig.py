"""And-Inverter Graphs with structural hashing.

An AIG is the paper's *decomposed logic circuit*: a DAG of two-input AND
nodes whose edges may be complemented.  Nodes are identified by integer
*variables*; signals are *literals* ``lit = 2*var + neg``.  Variable 0 is
the constant-false node, so literal 0 is constant 0 and literal 1 constant 1.

The graph is append-only: nodes are created in topological order, which
makes levelized traversals a simple ``range`` loop.  Optimizations build new
AIGs rather than mutating in place.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

CONST0 = 0  #: literal constant false
CONST1 = 1  #: literal constant true


def lit_var(lit: int) -> int:
    """Variable index of a literal."""
    return lit >> 1


def lit_neg(lit: int) -> bool:
    """Complement flag of a literal."""
    return bool(lit & 1)


def lit_not(lit: int) -> int:
    """Complement a literal."""
    return lit ^ 1


def lit_notif(lit: int, cond: bool) -> int:
    """Complement a literal iff ``cond``."""
    return lit ^ 1 if cond else lit


def make_lit(var: int, neg: bool = False) -> int:
    """Build a literal from a variable and complement flag."""
    return (var << 1) | int(neg)


class AIG:
    """Structurally hashed And-Inverter Graph."""

    def __init__(self) -> None:
        # Variable 0 is the constant node; it has no fanins.
        self._fanin0: List[int] = [0]
        self._fanin1: List[int] = [0]
        self._is_pi: List[bool] = [False]
        self.pis: List[int] = []  # PI variable ids in creation order
        self.pos: List[int] = []  # PO literals in creation order
        self.pi_names: List[str] = []
        self.po_names: List[str] = []
        self._strash: Dict[Tuple[int, int], int] = {}

    # -- construction --------------------------------------------------------

    def add_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input; returns its (positive) literal."""
        var = len(self._fanin0)
        self._fanin0.append(0)
        self._fanin1.append(0)
        self._is_pi.append(True)
        self.pis.append(var)
        self.pi_names.append(name if name is not None else f"pi{len(self.pis) - 1}")
        return make_lit(var)

    def add_pis(self, count: int, prefix: str = "pi") -> List[int]:
        """Create ``count`` primary inputs named ``prefix0..``."""
        start = len(self.pis)
        return [self.add_pi(f"{prefix}{start + i}") for i in range(count)]

    def add_po(self, lit: int, name: Optional[str] = None) -> int:
        """Register a primary output literal; returns its PO index."""
        self._check_lit(lit)
        self.pos.append(lit)
        self.po_names.append(name if name is not None else f"po{len(self.pos) - 1}")
        return len(self.pos) - 1

    def and_(self, a: int, b: int) -> int:
        """AND of two literals with constant folding and structural hashing."""
        bound = len(self._fanin0) << 1
        if not (0 <= a < bound and 0 <= b < bound):
            self._check_lit(a)
            self._check_lit(b)
        if a == CONST0 or b == CONST0 or a == b ^ 1:
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1 or a == b:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        var = self._strash.get(key)
        if var is None:
            var = len(self._fanin0)
            self._fanin0.append(a)
            self._fanin1.append(b)
            self._is_pi.append(False)
            self._strash[key] = var
        return var << 1

    # -- introspection --------------------------------------------------------

    def _check_lit(self, lit: int) -> None:
        if not 0 <= lit_var(lit) < len(self._fanin0):
            raise ValueError(f"literal {lit} references unknown variable")

    @property
    def num_vars(self) -> int:
        """Total variable count including the constant node."""
        return len(self._fanin0)

    @property
    def num_pis(self) -> int:
        return len(self.pis)

    @property
    def num_pos(self) -> int:
        return len(self.pos)

    def num_ands(self) -> int:
        """Number of AND nodes (the paper's AIG 'gates' metric)."""
        return sum(
            1 for v in range(self.num_vars) if self.is_and(v)
        )

    def structure_digest(self) -> str:
        """SHA-256 of the graph exactly as stored: variable numbering,
        fan-in literals, PI/PO order and names.

        Stricter than :func:`~repro.aig.cone.aig_fingerprint` (64 bits,
        blind to names and numbering) and than an AIGER dump
        (``write_aag`` renumbers): equal digests mean equal graphs.
        """
        payload = json.dumps(
            [self._fanin0, self._fanin1, self.pis, self.pos,
             self.pi_names, self.po_names],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def is_pi(self, var: int) -> bool:
        return self._is_pi[var]

    def is_const(self, var: int) -> bool:
        return var == 0

    def is_and(self, var: int) -> bool:
        return var != 0 and not self._is_pi[var]

    def fanins(self, var: int) -> Tuple[int, int]:
        """Fan-in literals of an AND variable."""
        if not self.is_and(var):
            raise ValueError(f"variable {var} is not an AND node")
        return self._fanin0[var], self._fanin1[var]

    def and_vars(self) -> Iterable[int]:
        """AND variables in topological (creation) order."""
        for var in range(1, self.num_vars):
            if not self._is_pi[var]:
                yield var

    def pi_index(self, var: int) -> int:
        """Position of a PI variable in the PI list."""
        if not self._is_pi[var]:
            raise ValueError(f"variable {var} is not a PI")
        return self.pis.index(var)

    # -- derived operators ----------------------------------------------------

    def or_(self, a: int, b: int) -> int:
        return lit_not(self.and_(lit_not(a), lit_not(b)))

    def nand_(self, a: int, b: int) -> int:
        return lit_not(self.and_(a, b))

    def nor_(self, a: int, b: int) -> int:
        return self.and_(lit_not(a), lit_not(b))

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, lit_not(b)), self.and_(lit_not(a), b))

    def xnor_(self, a: int, b: int) -> int:
        return lit_not(self.xor_(a, b))

    def mux_(self, sel: int, t: int, e: int) -> int:
        """Multiplexer: ``sel ? t : e``."""
        return self.or_(self.and_(sel, t), self.and_(lit_not(sel), e))

    def implies_(self, a: int, b: int) -> int:
        return self.or_(lit_not(a), b)

    def and_many(self, lits: Sequence[int]) -> int:
        """Balanced AND tree over a list of literals."""
        return self._tree(list(lits), self.and_)

    def or_many(self, lits: Sequence[int]) -> int:
        """Balanced OR tree over a list of literals."""
        return self._tree(list(lits), self.or_)

    def xor_many(self, lits: Sequence[int]) -> int:
        """Balanced XOR tree over a list of literals."""
        return self._tree(list(lits), self.xor_)

    @staticmethod
    def _tree(lits: List[int], op) -> int:
        if not lits:
            raise ValueError("empty operand list")
        while len(lits) > 1:
            nxt = [op(lits[i], lits[i + 1]) for i in range(0, len(lits) - 1, 2)]
            if len(lits) % 2:
                nxt.append(lits[-1])
            lits = nxt
        return lits[0]

    # -- copying --------------------------------------------------------------

    def copy_cone(
        self,
        dest: "AIG",
        mapping: Dict[int, int],
        lits: Sequence[int],
    ) -> List[int]:
        """Copy the cones of ``lits`` into ``dest``.

        ``mapping`` maps source variables to destination literals and must
        already contain every PI (and constant var 0 maps implicitly).
        Returns the destination literals for ``lits``; extends ``mapping``.
        """
        mapping.setdefault(0, CONST0)
        out = []
        for lit in lits:
            out.append(self._copy_rec(dest, mapping, lit))
        return out

    def _copy_rec(self, dest: "AIG", mapping: Dict[int, int], lit: int) -> int:
        fanin0, fanin1, is_pi = self._fanin0, self._fanin1, self._is_pi
        stack = [lit >> 1]
        while stack:
            var = stack[-1]
            if var in mapping:
                stack.pop()
                continue
            if is_pi[var]:
                raise KeyError(f"PI variable {var} missing from mapping")
            f0, f1 = fanin0[var], fanin1[var]
            a = mapping.get(f0 >> 1)
            b = mapping.get(f1 >> 1)
            if a is None or b is None:
                if a is None:
                    stack.append(f0 >> 1)
                if b is None:
                    stack.append(f1 >> 1)
                continue
            stack.pop()
            mapping[var] = dest.and_(a ^ (f0 & 1), b ^ (f1 & 1))
        return mapping[lit >> 1] ^ (lit & 1)

    def extract(self, po_lits: Optional[Sequence[int]] = None) -> "AIG":
        """Structurally rebuild keeping only logic reachable from the POs.

        This performs dangling-node removal and re-strashing in one pass
        (ABC's ``cleanup`` + ``strash``).  PI set and order are preserved.
        """
        if po_lits is None:
            po_lits = self.pos
        dest = AIG()
        mapping: Dict[int, int] = {0: CONST0}
        for var, name in zip(self.pis, self.pi_names):
            mapping[var] = dest.add_pi(name)
        new_pos = self.copy_cone(dest, mapping, po_lits)
        for lit, name in zip(new_pos, self.po_names[: len(new_pos)]):
            dest.add_po(lit, name)
        # Extra POs beyond existing names get default names.
        for lit in new_pos[len(self.po_names):]:
            dest.add_po(lit)
        return dest

    def __repr__(self) -> str:
        return (
            f"AIG(pis={self.num_pis}, pos={self.num_pos}, "
            f"ands={self.num_ands()})"
        )
