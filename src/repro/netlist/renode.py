"""Clustering an AIG into a technology-independent network (ABC's renode).

A depth-oriented cut cover is selected: every AND node gets the K-feasible
cut minimizing its cluster arrival, and the cover is extracted from the POs
downward.  Each chosen cluster becomes one complex-function network node.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..aig import AIG, cut_tt, enumerate_cuts, lit_neg, lit_var
from ..tt import TruthTable
from .network import Network

DEFAULT_K = 6
DEFAULT_MAX_CUTS = 8


def renode(
    aig: AIG, k: int = DEFAULT_K, max_cuts: int = DEFAULT_MAX_CUTS
) -> Network:
    """Cluster ``aig`` into a network of complex nodes (<=k inputs each).

    Every AND node keeps a usable cut, its fan-in pair, exactly when
    ``k >= 2`` and ``max_cuts >= 1``; other settings raise ``ValueError``.
    """
    if k < 2 or max_cuts < 1:
        raise ValueError(
            f"renode needs k >= 2 and max_cuts >= 1, got k={k}, "
            f"max_cuts={max_cuts}"
        )
    cuts = enumerate_cuts(aig, k, max_cuts)
    # Depth-oriented best-cut selection.
    arrival: List[int] = [0] * aig.num_vars
    best_cut: List[Tuple[int, ...]] = [()] * aig.num_vars
    for var in aig.and_vars():
        best = None
        best_key = None
        for cut in cuts[var]:
            if cut == (var,) or not cut:
                continue
            arr = 1 + max([arrival[leaf] for leaf in cut])
            key = (arr, len(cut))
            if best_key is None or key < best_key:
                best_key = key
                best = cut
        if best is None:
            raise AssertionError(f"no usable cut for AND var {var}")
        arrival[var] = best_key[0]
        best_cut[var] = best

    # Extract the cover from the POs downward.
    net = Network()
    node_of: Dict[int, int] = {}
    for pi_var, name in zip(aig.pis, aig.pi_names):
        node_of[pi_var] = net.add_pi(name)

    const_node: Dict[bool, int] = {}

    def map_var(var: int) -> int:
        if var in node_of:
            return node_of[var]
        if var == 0:
            if False not in const_node:
                const_node[False] = net.add_const(False)
            node_of[0] = const_node[False]
            return node_of[0]
        stack = [var]
        while stack:
            v = stack[-1]
            if v in node_of:
                stack.pop()
                continue
            leaves = best_cut[v]
            pending = [u for u in leaves if u not in node_of and u != 0]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            tt = cut_tt(aig, v, list(leaves))
            tt_small, support = tt.shrink()
            fanins = [map_var(leaves[i]) for i in support]
            node_of[v] = net.add_node(fanins, tt_small)
        return node_of[var]

    for po_lit, name in zip(aig.pos, aig.po_names):
        var = lit_var(po_lit)
        neg = lit_neg(po_lit)
        if var == 0:
            nid = net.add_const(neg)  # lit 1 is constant true
            net.add_po(nid, False, name)
            continue
        net.add_po(map_var(var), neg, name)
    del map_var  # free the self-referencing closure now, not at GC
    return net
