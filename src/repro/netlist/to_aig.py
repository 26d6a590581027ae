"""Synthesizing a technology-independent network back into an AIG.

Each node's local function is factored algebraically (on-set and off-set
both tried, output inversion being free) and instantiated with
arrival-aware AND/OR trees: operands are merged earliest-first, realizing
the optimal-depth trees assumed by the paper's level model.
"""

from __future__ import annotations

import heapq
from typing import Dict, Sequence, Tuple

from ..aig import AIG, CONST0, CONST1, lit_not, lit_var
from ..sop import Cover, factor
from ..sop.factor import Expr
from ..tt import TruthTable
from .levels import min_sops
from .network import Network

#: (on-set, off-set) minimum SOPs, each with its factored form.
_SopForms = Tuple[Tuple[Cover, Expr], Tuple[Cover, Expr]]


class ArrivalAwareBuilder:
    """AIG construction wrapper tracking arrivals for arrival-aware trees.

    Arrival bookkeeping is delegated to an incremental
    :class:`repro.timing.AigTimingEngine`, so a delay model with
    non-uniform PI arrivals makes every tree built here (and the
    reconstruction acceptance checks in the lookahead optimizer)
    arrival-aware.  The engine's lazy extension also covers nodes added to
    the AIG outside this builder.
    """

    def __init__(self, aig: AIG, model=None):
        from ..timing import AigTimingEngine

        self.aig = aig
        self.engine = AigTimingEngine(aig, model)
        # Factored min-SOP covers by local function: cut resynthesis meets
        # the same function at many cuts, and factoring is its costly step.
        self._factored: Dict[Tuple[int, int], _SopForms] = {}

    def level(self, lit: int) -> int:
        return self.engine.arrival(lit_var(lit))

    def and_(self, a: int, b: int) -> int:
        return self.aig.and_(a, b)

    def or_(self, a: int, b: int) -> int:
        return lit_not(self.and_(lit_not(a), lit_not(b)))

    def balanced(self, lits: Sequence[int], op: str) -> int:
        """Arrival-aware tree: always merge the two earliest operands."""
        combine = self.and_ if op == "and" else self.or_
        if len(lits) == 2:
            # ``and_`` is symmetric: two operands need no arrivals.
            return combine(lits[0], lits[1])
        if len(lits) == 1:
            return lits[0]
        if not lits:
            return CONST1 if op == "and" else CONST0
        heap = [(self.level(l), i, l) for i, l in enumerate(lits)]
        heapq.heapify(heap)
        counter = len(lits)
        while len(heap) > 1:
            _la, _ia, a = heapq.heappop(heap)
            _lb, _ib, b = heapq.heappop(heap)
            out = combine(a, b)
            heapq.heappush(heap, (self.level(out), counter, out))
            counter += 1
        return heap[0][2]

    def build_expr(self, expr: Expr, input_lits: Sequence[int]) -> int:
        """Instantiate a factored-form expression over input literals."""
        if expr.kind == "const0":
            return CONST0
        if expr.kind == "const1":
            return CONST1
        if expr.kind == "lit":
            var, pol = expr.lit
            lit = input_lits[var]
            return lit if pol else lit_not(lit)
        children = [self.build_expr(c, input_lits) for c in expr.children]
        return self.balanced(children, "and" if expr.kind == "and" else "or")

    def build_cover_flat(self, cover: Cover, input_lits: Sequence[int]) -> int:
        """Instantiate a cover as flat arrival-aware AND/OR trees.

        This realizes exactly the depth promised by the network level model
        (``cover_level``); the factored form below is usually smaller but
        can be deeper.
        """
        if cover.is_empty():
            return CONST0
        terms = []
        for cube in cover:
            lits = [
                input_lits[var] if pol else lit_not(input_lits[var])
                for var, pol in cube.literals()
            ]
            terms.append(self.balanced(lits, "and"))
        return self.balanced(terms, "or")

    def factored_sops(self, tt: TruthTable) -> _SopForms:
        """(on-set, off-set) min SOPs of ``tt``, each with its factored form.

        Memoized per builder, so the memo lives as long as one synthesis
        pass rather than the process.
        """
        key = (tt.bits, tt.nvars)
        forms = self._factored.get(key)
        if forms is None:
            on_cover, off_cover = min_sops(tt)
            forms = (
                (on_cover, factor(on_cover)),
                (off_cover, factor(off_cover)),
            )
            self._factored[key] = forms
        return forms

    def build_cover(
        self, cover: Cover, expr: Expr, input_lits: Sequence[int]
    ) -> int:
        """Instantiate a cover: best of factored form ``expr`` and flat SOP."""
        factored = self.build_expr(expr, input_lits)
        flat = self.build_cover_flat(cover, input_lits)
        if self.level(flat) < self.level(factored):
            return flat
        return factored


def synthesize_node(
    builder: ArrivalAwareBuilder, tt: TruthTable, input_lits: Sequence[int]
) -> int:
    """Best-of-two-phases synthesis of a local function into the AIG."""
    if tt.is_const0:
        return CONST0
    if tt.is_const1:
        return CONST1
    (on_cover, on_expr), (off_cover, off_expr) = builder.factored_sops(tt)
    lit_on = builder.build_cover(on_cover, on_expr, input_lits)
    lit_off = lit_not(builder.build_cover(off_cover, off_expr, input_lits))
    if builder.level(lit_off) < builder.level(lit_on):
        return lit_off
    return lit_on


def synthesize_into(
    builder: ArrivalAwareBuilder, net: Network, pi_lits: Sequence[int]
) -> Dict[int, int]:
    """Synthesize every network node into an existing AIG builder.

    ``pi_lits`` gives the AIG literal for each network PI (by PI order).
    Returns the node-id -> AIG-literal map.
    """
    lit_of: Dict[int, int] = {}
    for pi, lit in zip(net.pis, pi_lits):
        lit_of[pi] = lit
    for nid in net.topo_order():
        node = net.nodes[nid]
        input_lits = [lit_of[f] for f in node.fanins]
        lit_of[nid] = synthesize_node(builder, node.tt, input_lits)
    return lit_of


def network_to_aig(net: Network, model=None) -> AIG:
    """Convert the network to a cleaned, structurally hashed AIG.

    ``model`` (a :class:`repro.timing.DelayModel`) seeds PI arrivals so the
    synthesized trees hide late-arriving inputs.
    """
    aig = AIG()
    builder = ArrivalAwareBuilder(aig, model)
    pi_lits = [aig.add_pi(net.nodes[p].name) for p in net.pis]
    lit_of = synthesize_into(builder, net, pi_lits)
    for (nid, neg), name in zip(net.pos, net.po_names):
        lit = lit_of[nid]
        aig.add_po(lit_not(lit) if neg else lit, name)
    return aig.extract()
