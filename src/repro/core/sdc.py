"""Satisfiability-don't-care node minimization.

A network node's fan-ins may be correlated: input vectors that no primary
input assignment can produce are *satisfiability don't cares* (SDCs), and
the node function may be re-minimized freely over them.  This is the
classic `full_simplify`-style cleanup; it reuses the exact global-function
models, so every proved vector really is unreachable.
"""

from __future__ import annotations

from typing import Optional

from ..netlist import Network, compute_levels
from ..sop import Cube
from ..tt import TruthTable
from .simplify import complete_function

SDC_SUPPORT_LIMIT = 8
"""Nodes with more fan-ins than this are skipped (2^k vector checks)."""


def sdc_minimize(net: Network, model, max_nodes: Optional[int] = None) -> int:
    """Minimize every node against its proved-unreachable input vectors.

    ``model`` must be an exact model (truth-table or BDD domain) over the
    same network.  Returns the number of nodes changed; mutates ``net``
    and keeps ``model`` refreshed.
    """
    levels = compute_levels(net)
    changed = 0
    for nid in net.topo_order():
        if max_nodes is not None and changed >= max_nodes:
            break
        node = net.nodes[nid]
        tt = node.tt
        k = len(node.fanins)
        if tt.is_const0 or tt.is_const1 or k == 0 or k > SDC_SUPPORT_LIMIT:
            continue
        dc = TruthTable.const(False, k)
        for m in range(1 << k):
            cube = Cube.from_minterm(m, k)
            if model.conj_is_zero(model.cube_literals(nid, cube)):
                dc |= cube.to_tt()
        if dc.is_const0:
            continue
        fanin_levels = [levels[f] for f in node.fanins]
        new_tt = complete_function(tt & ~dc, dc, fanin_levels)
        if new_tt == tt:
            continue
        net.set_function(nid, new_tt)
        changed += 1
        model.recompute()
        levels = compute_levels(net)
    return changed
