"""K-feasible cut enumeration with priority pruning, plus cut functions.

Cuts drive the ``renode`` clustering of an AIG into a technology-independent
network, the cut-rewriting baseline, and the technology mapper.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..tt import TruthTable
from ..tt.truthtable import _var_bits
from .aig import AIG, lit_var

Cut = Tuple[int, ...]  # sorted tuple of leaf variables


def enumerate_cuts(
    aig: AIG, k: int = 4, max_cuts: int = 8
) -> List[List[Cut]]:
    """Per-variable list of K-feasible cuts (leaf-variable tuples).

    Every variable keeps its trivial cut ``(var,)`` plus up to ``max_cuts``
    non-trivial cuts, smallest first.  The constant variable has the empty
    cut.
    """
    fanin0, fanin1, is_pi = aig._fanin0, aig._fanin1, aig._is_pi
    cuts: List[List[Cut]] = [[] for _ in range(aig.num_vars)]
    cuts[0] = [()]
    for var in aig.pis:
        cuts[var] = [(var,)]
    for var in range(1, len(fanin0)):
        if is_pi[var]:
            continue
        # Leaf sets live only while their node is merged: one set per
        # kept cut of every variable would outlast the pass in memory.
        sets1 = [frozenset(c) for c in cuts[fanin1[var] >> 1]]
        unique = set()
        for c0 in cuts[fanin0[var] >> 1]:
            s0 = frozenset(c0)
            for s1 in sets1:
                u = s0 | s1
                if len(u) <= k:
                    unique.add(u)
        # Small-first, keep the first ``max_cuts`` cuts that no other cut
        # is a proper subset of.  A dominating cut is smaller, and a chain
        # of them ends at a kept cut, so testing the kept ones suffices.
        # Leaf tuples order cuts within one size; they are built only for
        # the sizes reached before the list is full.
        kept: List[Cut] = []
        kept_sets: List[FrozenSet[int]] = []
        for _size, group in groupby(sorted(unique, key=len), key=len):
            if len(kept) == max_cuts:
                break
            for cut, u in sorted([(tuple(sorted(u)), u) for u in group]):
                if len(kept) == max_cuts:
                    break
                for o in kept_sets:
                    if o < u:
                        break
                else:
                    kept.append(cut)
                    kept_sets.append(u)
        kept.append((var,))
        cuts[var] = kept
    return cuts


def cut_tt(aig: AIG, root_lit_or_var: int, leaves: Sequence[int],
           is_lit: bool = False) -> TruthTable:
    """Truth table of ``root`` over the ordered ``leaves`` variables.

    ``root`` may be a variable (default) or a literal (``is_lit=True``).
    Every path from the root must be cut by ``leaves`` (or constants).
    """
    n = len(leaves)
    full = (1 << (1 << n)) - 1
    # Table bits per variable; one TruthTable is built at the end.
    values: Dict[int, int] = {0: 0}
    for i, leaf in enumerate(leaves):
        values[leaf] = _var_bits(i, n)
    root_var = root_lit_or_var >> 1 if is_lit else root_lit_or_var
    fanin0, fanin1, is_pi = aig._fanin0, aig._fanin1, aig._is_pi
    stack = [root_var]
    while stack:
        var = stack[-1]
        if var in values:
            stack.pop()
            continue
        if is_pi[var]:
            raise ValueError(f"PI {var} reached but not a cut leaf")
        f0, f1 = fanin0[var], fanin1[var]
        a = values.get(f0 >> 1)
        b = values.get(f1 >> 1)
        if a is None or b is None:
            if a is None:
                stack.append(f0 >> 1)
            if b is None:
                stack.append(f1 >> 1)
            continue
        stack.pop()
        if f0 & 1:
            a ^= full
        if f1 & 1:
            b ^= full
        values[var] = a & b
    result = values[root_var]
    if is_lit and root_lit_or_var & 1:
        result ^= full
    return TruthTable(result, n)


def cut_volume(aig: AIG, root: int, leaves: Sequence[int]) -> int:
    """Number of AND nodes strictly inside the cut cone."""
    leaf_set = set(leaves)
    seen = set()
    stack = [root]
    count = 0
    while stack:
        var = stack.pop()
        if var in seen or var in leaf_set or not aig.is_and(var):
            continue
        seen.add(var)
        count += 1
        f0, f1 = aig.fanins(var)
        stack.append(lit_var(f0))
        stack.append(lit_var(f1))
    return count
