"""Synthesizing a technology-independent network back into an AIG.

Each node's local function is factored algebraically (on-set and off-set
both tried, output inversion being free) and instantiated with
arrival-aware AND/OR trees: operands are merged earliest-first, realizing
the optimal-depth trees assumed by the paper's level model.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from ..aig import AIG, CONST0, CONST1, lit_not
from ..sop import Cover, factor
from ..sop.factor import Expr
from ..tt import TruthTable
from .levels import min_sops
from .network import Network

#: One phase of a local function: its minimum SOP as one ``(var,
#: polarity)`` list per cube, the SOP's factored form, and whether
#: building that form replays the flat SOP build.
_Phase = Tuple[List[List[Tuple[int, bool]]], Expr, bool]


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
        self._factored: Dict[Tuple[int, int], Tuple[_Phase, _Phase]] = {}

    def level(self, lit: int) -> int:
        return self.engine.arrival(lit >> 1)

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

    def build_cover_flat(
        self, cubes: Sequence[Sequence[Tuple[int, bool]]],
        input_lits: Sequence[int],
    ) -> int:
        """Instantiate an SOP, one ``(var, polarity)`` list per cube, as
        flat arrival-aware AND/OR trees.

        This realizes exactly the depth promised by the network level model
        (``cover_level``); the factored form below is usually smaller but
        can be deeper.
        """
        if not cubes:
            return CONST0
        terms = [
            self.balanced(
                [
                    input_lits[var] if pol else lit_not(input_lits[var])
                    for var, pol in cube
                ],
                "and",
            )
            for cube in cubes
        ]
        return self.balanced(terms, "or")

    def factored_sops(self, tt: TruthTable) -> Tuple[_Phase, _Phase]:
        """(on-set, off-set) phases of ``tt``: each min SOP's cubes, its
        factored form and whether that form replays the flat build.

        Memoized per builder, so the memo lives as long as one synthesis
        pass rather than the process.
        """
        key = (tt.bits, tt.nvars)
        forms = self._factored.get(key)
        if forms is None:
            on_cover, off_cover = min_sops(tt)
            forms = (_phase(on_cover), _phase(off_cover))
            self._factored[key] = forms
        return forms

    def build_cover(self, phase: _Phase, input_lits: Sequence[int]) -> int:
        """Instantiate a cover: best of its factored form and flat SOP."""
        cubes, expr, replays_flat = phase
        factored = self.build_expr(expr, input_lits)
        if replays_flat and not self.engine.fanout_sensitive:
            # The flat build would make the same ``and_`` calls on the
            # same arrivals and return ``factored`` again.  Under a
            # fanout-sensitive model the nodes just built have moved
            # older arrivals, so the replay may build another tree.
            return factored
        flat = self.build_cover_flat(cubes, input_lits)
        if self.level(flat) < self.level(factored):
            return flat
        return factored


def _phase(cover: Cover) -> _Phase:
    """``cover``'s cubes and factored form, and whether that form is the
    flat SOP itself: an OR of one AND per cube, cubes and literals in
    cover order (as ``factor`` leaves a cover no kernel divides)."""
    cubes = [list(cube.literals()) for cube in cover]
    expr = factor(cover)
    terms = expr.children if expr.kind == "or" else [expr]
    replays_flat = len(terms) == len(cubes) and all(
        [f.lit for f in (t.children if t.kind == "and" else [t])] == cube
        for t, cube in zip(terms, cubes)
    )
    return cubes, expr, replays_flat


def synthesize_node(
    builder: ArrivalAwareBuilder, tt: TruthTable, input_lits: Sequence[int]
) -> int:
    """Best-of-two-phases synthesis of a local function into the AIG."""
    if tt.is_const0:
        return CONST0
    if tt.is_const1:
        return CONST1
    on_phase, off_phase = builder.factored_sops(tt)
    lit_on = builder.build_cover(on_phase, input_lits)
    lit_off = lit_not(builder.build_cover(off_phase, input_lits))
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
