"""CNF encodings of AIGs (Tseitin transform) and SAT convenience wrappers."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..aig import AIG, lit_neg, lit_var
from .solver import Solver


class AigCnf:
    """Incremental Tseitin encoding of one or more AIGs into one solver.

    Each encoded AIG variable maps to a solver variable; the constant node
    maps to a dedicated always-false variable shared by all encodings.
    """

    def __init__(self) -> None:
        self.solver = Solver()
        self._false_var = self.solver.new_var()
        self.solver.add_clause([-self._false_var])
        self.maps: List[Dict[int, int]] = []

    def encode(
        self,
        aig: AIG,
        pi_vars: Optional[Sequence[int]] = None,
        roots: Optional[Iterable[int]] = None,
        var_map: Optional[Dict[int, int]] = None,
    ) -> Dict[int, int]:
        """Encode ``aig`` (or just the cones of ``roots``) into the solver.

        ``pi_vars`` supplies solver variables for the PIs (shared PIs across
        AIGs make miters); fresh variables are created when omitted.
        Returns the AIG-var -> solver-var map.

        ``var_map`` extends an earlier encoding of ``aig`` in place (an
        empty dict starts one): only the part of the cones of ``roots``
        not yet in the map is encoded, in var order, and a PI gets a fresh
        variable when a cone first reaches it.  A session that extends
        one map query by query thus pays only for the cones it queries.
        The solver must be at decision level 0 (:meth:`Solver.reset`).
        """
        solver = self.solver
        if var_map is None:
            var_map = {0: self._false_var}
            if pi_vars is None:
                pi_vars = [solver.new_var() for _ in range(aig.num_pis)]
            if len(pi_vars) != aig.num_pis:
                raise ValueError("one solver variable per PI required")
            for aig_var, sv in zip(aig.pis, pi_vars):
                var_map[aig_var] = sv
            self.maps.append(var_map)
        elif not var_map:
            var_map[0] = self._false_var
            self.maps.append(var_map)
        if roots is None:
            roots = [2 * var for var in range(aig.num_vars)]
        new = set()
        stack = [lit_var(r) for r in roots]
        while stack:
            v = stack.pop()
            if v in var_map or v in new:
                continue
            new.add(v)
            if aig.is_and(v):
                f0, f1 = aig.fanins(v)
                stack.append(lit_var(f0))
                stack.append(lit_var(f1))
        for var in sorted(new):
            out = solver.new_var()
            var_map[var] = out
            if not aig.is_and(var):
                continue  # a PI, first reached by this extension
            f0, f1 = aig.fanins(var)
            a = self._sat_lit(var_map, f0)
            b = self._sat_lit(var_map, f1)
            # out <-> a & b
            solver.add_clause([-out, a])
            solver.add_clause([-out, b])
            solver.add_clause([out, -a, -b])
        return var_map

    @staticmethod
    def _sat_lit(var_map: Dict[int, int], aig_lit: int) -> int:
        sv = var_map[lit_var(aig_lit)]
        return -sv if lit_neg(aig_lit) else sv

    def lit(self, var_map: Dict[int, int], aig_lit: int) -> int:
        """Solver literal for an AIG literal under a given encoding map."""
        return self._sat_lit(var_map, aig_lit)

    def add_xor(self, a: int, b: int) -> int:
        """Fresh solver variable constrained to ``a XOR b``."""
        out = self.solver.new_var()
        self.solver.add_clause([-out, a, b])
        self.solver.add_clause([-out, -a, -b])
        self.solver.add_clause([out, -a, b])
        self.solver.add_clause([out, a, -b])
        return out

    def add_or(self, lits: Sequence[int]) -> int:
        """Fresh solver variable constrained to ``OR(lits)``."""
        out = self.solver.new_var()
        self.solver.add_clause([-out] + list(lits))
        for l in lits:
            self.solver.add_clause([out, -l])
        return out


def is_satisfiable(
    aig: AIG, target_lit: int, assumptions_lits: Sequence[int] = ()
) -> Tuple[bool, Optional[List[bool]]]:
    """Is there an input making ``target_lit`` (and all assumption lits) true?

    Returns ``(sat, pi_assignment)``.
    """
    enc = AigCnf()
    roots = [target_lit] + list(assumptions_lits)
    var_map = enc.encode(aig, roots=roots)
    assumptions = [enc.lit(var_map, l) for l in roots]
    sat = enc.solver.solve(assumptions)
    if not sat:
        return False, None
    model = [
        enc.solver.model_value(var_map[pi]) or False for pi in aig.pis
    ]
    return True, model


def implies(aig: AIG, a_lit: int, b_lit: int) -> bool:
    """Check ``a -> b`` as circuit functions (UNSAT of ``a & !b``)."""
    from ..aig import lit_not

    sat, _ = is_satisfiable(aig, a_lit, [lit_not(b_lit)])
    return not sat
