"""K-feasible cut enumeration with priority pruning, plus cut functions.

Cuts drive the ``renode`` clustering of an AIG into a technology-independent
network, the cut-rewriting baseline, and the technology mapper.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..tt import TruthTable
from .aig import AIG, lit_neg, lit_var

Cut = Tuple[int, ...]  # sorted tuple of leaf variables


def _merge(c0: Cut, c1: Cut, k: int) -> Cut:
    """Union of two cuts, or () sentinel if it exceeds k leaves."""
    union = sorted(set(c0) | set(c1))
    if len(union) > k:
        return ()
    return tuple(union)


def enumerate_cuts(
    aig: AIG, k: int = 4, max_cuts: int = 8
) -> List[List[Cut]]:
    """Per-variable list of K-feasible cuts (leaf-variable tuples).

    Every variable keeps its trivial cut ``(var,)`` plus up to ``max_cuts``
    non-trivial cuts, smallest first.  The constant variable has the empty
    cut.
    """
    cuts: List[List[Cut]] = [[] for _ in range(aig.num_vars)]
    cuts[0] = [()]
    for var in aig.pis:
        cuts[var] = [(var,)]
    for var in aig.and_vars():
        f0, f1 = aig.fanins(var)
        v0, v1 = lit_var(f0), lit_var(f1)
        merged: List[Cut] = []
        seen = set()
        for c0 in cuts[v0]:
            for c1 in cuts[v1]:
                u = _merge(c0, c1, k)
                if u == () and (c0 or c1):
                    continue
                if u in seen:
                    continue
                seen.add(u)
                merged.append(u)
        # Small-first, keep the first ``max_cuts`` cuts that no other cut
        # is a proper subset of.  A dominating cut is smaller, and a chain
        # of them ends at a kept cut, so testing the kept ones suffices.
        merged.sort(key=lambda c: (len(c), c))
        kept: List[Cut] = []
        kept_sets: List[FrozenSet[int]] = []
        for cut in merged:
            if len(kept) == max_cuts:
                break
            cut_set = frozenset(cut)
            if not any(o < cut_set for o in kept_sets):
                kept.append(cut)
                kept_sets.append(cut_set)
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
    values: Dict[int, TruthTable] = {0: TruthTable.const(False, n)}
    for i, leaf in enumerate(leaves):
        values[leaf] = TruthTable.var(i, n)
    root_var = lit_var(root_lit_or_var) if is_lit else root_lit_or_var
    stack = [root_var]
    while stack:
        var = stack[-1]
        if var in values:
            stack.pop()
            continue
        if aig.is_pi(var):
            raise ValueError(f"PI {var} reached but not a cut leaf")
        f0, f1 = aig.fanins(var)
        pending = [
            v for v in (lit_var(f0), lit_var(f1)) if v not in values
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        a = values[lit_var(f0)]
        if lit_neg(f0):
            a = ~a
        b = values[lit_var(f1)]
        if lit_neg(f1):
            b = ~b
        values[var] = a & b
    result = values[root_var]
    if is_lit and lit_neg(root_lit_or_var):
        result = ~result
    return result


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
