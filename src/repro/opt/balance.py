"""AND-tree balancing (ABC's ``balance``).

Maximal single-fanout AND trees are collected and rebuilt as arrival-aware
(Huffman-merged) trees, which minimizes tree depth for the given leaf
arrival times.
"""

from __future__ import annotations

import heapq
from typing import Dict, List

from ..aig import AIG, CONST0, fanout_counts, lit_neg, lit_not, lit_notif, lit_var


def balance(aig: AIG) -> AIG:
    """Depth-minimizing AND-tree rebalance; function-preserving."""
    counts = fanout_counts(aig)
    dest = AIG()
    mapping: Dict[int, int] = {0: CONST0}
    level: Dict[int, int] = {0: 0}
    for var, name in zip(aig.pis, aig.pi_names):
        mapping[var] = dest.add_pi(name)
        level[lit_var(mapping[var])] = 0

    def new_level(lit: int) -> int:
        return level.get(lit_var(lit), 0)

    def collect_leaves(var: int, root: bool, leaves: List[int]) -> None:
        """Leaves of the maximal AND tree rooted at ``var``.

        Recursion continues through non-complemented, single-fanout AND
        fan-ins (they belong to this tree exclusively).
        """
        f0, f1 = aig.fanins(var)
        for lit in (f0, f1):
            v = lit_var(lit)
            if (
                not lit_neg(lit)
                and aig.is_and(v)
                and counts[v] == 1
            ):
                collect_leaves(v, False, leaves)
            else:
                leaves.append(lit)

    def build_tree(leaf_lits: List[int]) -> int:
        heap = [(new_level(l), i, l) for i, l in enumerate(leaf_lits)]
        heapq.heapify(heap)
        counter = len(heap)
        while len(heap) > 1:
            _la, _ia, a = heapq.heappop(heap)
            _lb, _ib, b = heapq.heappop(heap)
            out = dest.and_(a, b)
            ov = lit_var(out)
            if ov not in level:
                level[ov] = 1 + max(new_level(a), new_level(b))
            heapq.heappush(heap, (new_level(out), counter, out))
            counter += 1
        return heap[0][2]

    for var in aig.and_vars():
        leaves: List[int] = []
        collect_leaves(var, True, leaves)
        mapped_leaves = [
            lit_notif(mapping[lit_var(l)], lit_neg(l)) for l in leaves
        ]
        if any(l == CONST0 for l in mapped_leaves):
            mapping[var] = CONST0
            continue
        mapped_leaves = [l for l in mapped_leaves if l != lit_not(CONST0)]
        if not mapped_leaves:
            mapping[var] = lit_not(CONST0)
            continue
        mapping[var] = build_tree(mapped_leaves)
    del collect_leaves  # free the self-referencing closure now, not at GC

    for po, name in zip(aig.pos, aig.po_names):
        dest.add_po(lit_notif(mapping[lit_var(po)], lit_neg(po)), name)
    return dest.extract()
